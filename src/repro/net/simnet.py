"""The simulated network: topology routing + transport cost model.

Delivery delay of a message of ``size`` bytes from ``src`` to ``dst``::

    delay = path_latency(src, dst)
          + size / bandwidth
          + transport_overhead            (tcp handshake / ttcp transaction)

The UDP model additionally drops messages with ``udp_loss_rate`` probability
and delays a ``udp_reorder_rate`` fraction by an extra latency so they arrive
out of order — reproducing the paper's finding that plain UDP "proved not
usable at the current expansion stage" (§4).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.config import NetworkConfig
from repro.common.errors import AddressError
from repro.common.stats import StatSet
from repro.net.topology import Topology
from repro.sim.engine import Simulator


class SimNetwork:
    """Shared medium connecting all simulated sites.

    Each site attaches a receive callback under its integer physical
    address.  ``endpoint(addr)`` returns a per-site
    :class:`SimTransportEndpoint` satisfying the Transport protocol.
    """

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None,
                 topology: Optional[Topology] = None) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.topology = topology
        self._receivers: Dict[int, Callable[[bytes], None]] = {}
        self.stats = StatSet()
        #: optional fault-injection controller (repro.chaos); consulted per
        #: message when set.  The None-guarded hot path costs one attribute
        #: read, and chaos-free runs stay bit-identical.
        self.chaos = None

    # ------------------------------------------------------------------
    def attach(self, addr: int, receiver: Callable[[bytes], None]) -> None:
        if addr < 0:
            raise AddressError("site physical addresses must be non-negative")
        if addr in self._receivers:
            raise AddressError(f"physical address {addr} already attached")
        self._receivers[addr] = receiver
        if self.topology is not None and addr not in self.topology.nodes():
            # late joiners on an explicit topology: connect them to node 0's
            # component via a direct link with the default latency
            self.topology.add_link(addr, self._anchor_node(), self.config.latency)

    def _anchor_node(self) -> int:
        for node in self.topology.nodes():  # type: ignore[union-attr]
            return node
        raise AddressError("topology has no nodes to anchor a joiner to")

    def detach(self, addr: int) -> None:
        self._receivers.pop(addr, None)

    def is_attached(self, addr: int) -> bool:
        return addr in self._receivers

    # ------------------------------------------------------------------
    def _one_way_latency(self, src: int, dst: int) -> float:
        if self.topology is None:
            return self.config.latency
        return self.topology.path_latency(src, dst)

    def transit_delay(self, src: int, dst: int, size: int) -> float:
        """Deterministic part of the delivery delay (no UDP reorder)."""
        cfg = self.config
        latency = self._one_way_latency(src, dst)
        serialization = size / cfg.bandwidth
        if cfg.transport == "tcp":
            overhead = cfg.tcp_handshake_cost * (1.0 - cfg.tcp_connection_reuse)
        elif cfg.transport == "ttcp":
            overhead = cfg.ttcp_transaction_cost
        else:  # udp: no connection machinery at all
            overhead = 0.0
        return latency + serialization + overhead

    def send(self, src: int, dst: int, data: bytes) -> bool:
        """Schedule delivery of ``data``; returns False on immediate failure.

        A detached destination (crashed/left site) silently swallows the
        message at delivery time — like a real network, the sender cannot
        know; failure surfaces via timeouts (heartbeats, help retries).

        ``data`` is the complete envelope and all this method reads.  It
        is handed to the receiver as the object it arrived as: a sim
        kernel sends a :class:`~repro.messages.SnapshotEnvelope`, whose
        receiver skips the parse, and anything that puts other bytes on
        the wire (``corrupt_wire`` below) thereby drops that rider.
        """
        cfg = self.config
        if self.chaos is not None and self.chaos.corrupts_wire:
            # silent data corruption in flight: the mangled bytes replace
            # the originals before any cost/size accounting, exactly as a
            # flipped bit on the wire would
            mangled = self.chaos.corrupt_wire(src, dst, data)
            if mangled is not None:
                data = mangled
        size = len(data)
        self.stats.inc("messages")
        self.stats.add("bytes", size)

        delay = self.transit_delay(src, dst, size)
        if delay == float("inf"):
            self.stats.inc("unroutable")
            return False

        if cfg.transport == "udp":
            if self.sim.rng.random() < cfg.udp_loss_rate:
                self.stats.inc("udp_lost")
                return True  # sender cannot tell: fire-and-forget
            if self.sim.rng.random() < cfg.udp_reorder_rate:
                delay += 3.0 * cfg.latency + self.sim.rng.random() * cfg.latency
                self.stats.inc("udp_reordered")

        if self.chaos is not None:
            offsets = self.chaos.filter_send(src, dst)
            if offsets is not None:
                if not offsets:
                    self.stats.inc("chaos_dropped")
                    return True  # like UDP loss: the sender cannot tell
                if len(offsets) > 1:
                    self.stats.inc("chaos_duplicated")
                if offsets[0] != 0.0:
                    self.stats.inc("chaos_delayed")
                for extra in offsets:
                    self.sim.schedule(delay + extra, self._deliver, dst,
                                      data)
                return True

        self.sim.schedule(delay, self._deliver, dst, data)
        return True

    def _deliver(self, dst: int, data: bytes) -> None:
        receiver = self._receivers.get(dst)
        if receiver is None:
            self.stats.inc("dropped_dead_dst")
            return
        self.stats.inc("delivered")
        receiver(data)

    def endpoint(self, addr: int,
                 receiver: Callable[[bytes], None]) -> "SimTransportEndpoint":
        """Attach ``receiver`` and return a Transport-shaped endpoint."""
        self.attach(addr, receiver)
        return SimTransportEndpoint(self, addr)


class SimTransportEndpoint:
    """Per-site view of the shared :class:`SimNetwork` (Transport protocol)."""

    def __init__(self, network: SimNetwork, addr: int) -> None:
        self._network = network
        self._addr = addr

    def send(self, dst: str, data: bytes) -> bool:
        return self._network.send(self._addr, int(dst), data)

    def local_address(self) -> str:
        return str(self._addr)

    def close(self) -> None:
        self._network.detach(self._addr)
