"""The per-site security layer sitting between message and network manager.

Key management follows the paper's constraint that "a first contact must be
made in a secure way, e. g. by supplying a start password by hand": every
pair of sites deterministically derives an initial pairwise key from the
cluster password and the two *physical* addresses, so any site can encrypt
to any other immediately, with no handshake on the critical path.  A DH
exchange (KEY_EXCHANGE_INIT/REPLY messages, handled by the site wiring) can
later rotate a pair onto a fresh session key.

When disabled ("if an insular cluster ... is used, the security manager can
be disabled in favor of a performance gain", §4), envelopes pass through
unmodified except for a one-byte marker, and mixed clusters fail closed: a
sealed envelope arriving at a disabled layer raises
:class:`~repro.common.errors.SecurityError`.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.common.errors import SecurityError
from repro.security.cipher import NONCE_SIZE, derive_key, open_sealed, seal

_PLAIN = 0
_SEALED = 1


class SecurityLayer:
    """Encrypt/decrypt byte envelopes for one site.

    The envelope carries the sender's physical address in clear (the
    receiver needs it to select the pairwise key before it can decrypt
    anything): ``flag(1) || addr_len(2) || addr || body``.
    """

    def __init__(self, local_addr: str, enabled: bool,
                 cluster_password: str) -> None:
        self.local_addr = local_addr
        self.enabled = enabled
        self._password = cluster_password
        self._session_keys: Dict[str, bytes] = {}
        #: password-derived initial key per peer, derived once (it sits on
        #: the per-message path until a session key replaces it)
        self._derived_keys: Dict[str, bytes] = {}
        #: previous key per peer: messages sealed before a rotation may
        #: still be in flight when the new key installs (rollover grace)
        self._previous_keys: Dict[str, bytes] = {}
        self._nonce_counters: Dict[str, int] = {}
        #: envelope header is identical for every message this site sends;
        #: build it once (protect() sits on the per-message hot path)
        addr = local_addr.encode("utf-8")
        self._header = struct.pack(">BH", _SEALED if enabled else _PLAIN,
                                   len(addr)) + addr
        #: nonce pad depends only on the local address; cache it instead of
        #: re-deriving a key per message
        self._nonce_pad = derive_key(b"nonce", addr)[:NONCE_SIZE - 8]
        #: bytes encrypted/decrypted — feeds the sim cost model
        self.bytes_processed = 0
        self.messages_sealed = 0
        self.messages_opened = 0

    # ------------------------------------------------------------------
    def _pair_key(self, peer_addr: str) -> bytes:
        key = self._session_keys.get(peer_addr)
        if key is not None:
            return key
        key = self._derived_keys.get(peer_addr)
        if key is None:
            low, high = sorted((self.local_addr, peer_addr))
            key = self._derived_keys[peer_addr] = derive_key(
                self._password, low, high)
        return key

    def install_session_key(self, peer_addr: str, key: bytes) -> None:
        """Adopt a DH-negotiated session key for ``peer_addr``."""
        if len(key) != 32:
            raise SecurityError("session key must be 32 bytes")
        self._previous_keys[peer_addr] = self._pair_key(peer_addr)
        self._session_keys[peer_addr] = key

    def has_session_key(self, peer_addr: str) -> bool:
        return peer_addr in self._session_keys

    def _next_nonce(self, peer_addr: str) -> bytes:
        counter = self._nonce_counters.get(peer_addr, 0)
        self._nonce_counters[peer_addr] = counter + 1
        return self._nonce_pad + struct.pack(">Q", counter)

    # ------------------------------------------------------------------
    def protect(self, peer_addr: str, data: bytes) -> bytes:
        """Wrap outgoing ``data`` for transmission to ``peer_addr``."""
        header = self._header
        if not self.enabled:
            return header + data
        self.messages_sealed += 1
        self.bytes_processed += len(data)
        nonce = self._next_nonce(peer_addr)
        key = self._pair_key(peer_addr)
        return header + seal(key, data, nonce)

    def unprotect(self, envelope: bytes) -> Tuple[str, bytes]:
        """Unwrap an incoming envelope; returns (sender_addr, payload)."""
        if len(envelope) < 3:
            raise SecurityError("envelope too short")
        flag, addr_len = struct.unpack_from(">BH", envelope, 0)
        if len(envelope) < 3 + addr_len:
            raise SecurityError("envelope truncated in sender address")
        sender = envelope[3:3 + addr_len].decode("utf-8")
        body = envelope[3 + addr_len:]
        if flag == _PLAIN:
            if self.enabled:
                raise SecurityError(
                    f"plaintext message from {sender} rejected: security on")
            return sender, body
        if flag != _SEALED:
            raise SecurityError(f"unknown envelope flag {flag}")
        if not self.enabled:
            raise SecurityError(
                f"sealed message from {sender} but security layer disabled")
        self.messages_opened += 1
        self.bytes_processed += len(body)
        try:
            return sender, open_sealed(self._pair_key(sender), body)
        except SecurityError:
            previous = self._previous_keys.get(sender)
            if previous is None:
                raise
            # sealed just before a key rotation: accept under the old key
            return sender, open_sealed(previous, body)
