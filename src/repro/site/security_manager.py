"""Site-level security manager: envelope sealing + DH session-key rotation.

"The security manager is placed between the message manager and the network
manager" (§4) — the message manager calls :meth:`protect`/:meth:`unprotect`
on every remote send/receive.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage, make_reply
from repro.security.dh import DHKeyPair
from repro.security.layer import SecurityLayer
from repro.site.manager_base import Manager


class SecurityManager(Manager):
    manager_id = ManagerId.SECURITY

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.layer = SecurityLayer(
            local_addr=self.kernel.local_physical(),
            enabled=self.config.security.enabled,
            cluster_password=self.config.security.cluster_password,
        )
        self._pending_dh: Dict[int, DHKeyPair] = {}

    @property
    def enabled(self) -> bool:
        return self.layer.enabled

    # -- envelope path (called by the message manager) --------------------
    def protect(self, peer_physical: str, data: bytes) -> bytes:
        return self.layer.protect(peer_physical, data)

    def unprotect(self, envelope: bytes) -> Tuple[str, bytes]:
        return self.layer.unprotect(envelope)

    # -- session-key rotation ----------------------------------------------
    def initiate_key_exchange(self, peer_logical: int) -> None:
        """Upgrade the password-derived pairwise key to a DH session key."""
        if not self.enabled:
            return
        pair = DHKeyPair(self.kernel.rng)
        self._pending_dh[peer_logical] = pair
        self.site.message_manager.send(SDMessage(
            type=MsgType.KEY_EXCHANGE_INIT,
            src_site=self.local_id, dst_site=peer_logical,
            payload={"public": pair.public},
        ))
        self.note("key_exchange", peer_logical, "init")

    def _on_key_exchange_init(self, msg: SDMessage) -> None:
        pair = DHKeyPair(self.kernel.rng)
        key = pair.shared_key(msg.payload["public"])
        # install only after the reply is sealed under the old key
        self.site.message_manager.send(make_reply(
            msg, MsgType.KEY_EXCHANGE_REPLY, {"public": pair.public}))
        self._install(msg.src_site, key)

    def _on_key_exchange_reply(self, msg: SDMessage) -> None:
        pair = self._pending_dh.pop(msg.src_site, None)
        if pair is None:
            self.log("unsolicited KEY_EXCHANGE_REPLY from %d", msg.src_site)
            return
        self._install(msg.src_site, pair.shared_key(msg.payload["public"]))

    def _install(self, peer_logical: int, key: bytes) -> None:
        peer_physical = self.site.cluster_manager.physical_of(peer_logical)
        if peer_physical is None:
            return
        self.layer.install_session_key(peer_physical, key)
        self.note("key_exchange", peer_logical, "complete")

    def status(self) -> dict:
        base = super().status()
        base["enabled"] = self.enabled
        base["sealed"] = self.layer.messages_sealed
        base["opened"] = self.layer.messages_opened
        return base
