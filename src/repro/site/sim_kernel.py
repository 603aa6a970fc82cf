"""The simulation kernel: one per simulated site, over a shared SimNetwork.

:class:`SharedSimState` is what the sites of one run have in common: the
event engine, the network, and a registry of the running sites for the
facade.  It holds no program state — memory objects and files live in
the managers of the site that owns them and move by messages only.  (The
SDC defense still places its shadow runs through ``sites``; see ROADMAP.)
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.common.errors import SerializationError
from repro.messages import SnapshotEnvelope
from repro.net.simnet import SimNetwork
from repro.sim.engine import Event, Simulator
from repro.site.kernel import CpuModel, Kernel


class SharedSimState:
    """State shared by every simulated site in one cluster run."""

    def __init__(self, sim: Simulator, network: SimNetwork) -> None:
        self.sim = sim
        self.network = network
        #: logical site id -> SDVMSite, for facade inspection
        self.sites: Dict[int, Any] = {}

    def alive_peers(self, *exclude: int) -> list:
        """Sorted logical ids of running sites outside ``exclude``.

        Used by the SDC defense to place shadow executions: the sorted
        order makes buddy selection a pure function of membership, so a
        replicated run replays bit-identically.
        """
        return sorted(i for i in self.sites if i not in exclude)


class SimKernel(Kernel):
    """Kernel backed by the discrete-event simulator."""

    mode = "sim"

    def __init__(self, shared: SharedSimState, physical: int,
                 speed: float, seed: int = 0,
                 tracer: Optional[Any] = None) -> None:
        self.shared = shared
        self.sim = shared.sim
        self.cpu = CpuModel(shared.sim, speed)
        self.tracer = tracer
        self._physical = physical
        self.rng = random.Random((seed << 16) ^ physical ^ 0x5DF1)
        self._endpoint: Optional[Any] = None
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._closed = False

    # ------------------------------------------------------------------
    def attach_receiver(self, receiver: Callable[[bytes], None]) -> None:
        """Connect this kernel to the shared network (done by the daemon)."""
        self._receiver = receiver
        self._endpoint = self.shared.network.endpoint(self._physical, receiver)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> Event:
        return self.sim.schedule(delay, fn, *args)

    def cancel(self, handle: Any) -> None:
        if isinstance(handle, Event):
            handle.cancel()

    def post(self, fn: Callable[..., None], *args: Any) -> None:
        self.sim.schedule(0.0, fn, *args)

    def cpu_charge(self, seconds: float) -> None:
        self.cpu.charge(seconds)

    def cpu_run(self, seconds: float, fn: Callable[..., None],
                *args: Any) -> None:
        self.cpu.run(seconds, fn, *args)

    def transport_send(self, dst_physical: str, data: bytes,
                       msg: Optional[Any] = None) -> bool:
        if self._closed:
            return False
        if msg is not None:
            # the receiver is in this process: spare it the parse.  The
            # copy is taken now, not at delivery — senders go on mutating
            # what they sent (a checkpoint shard holds live parameters)
            try:
                data = SnapshotEnvelope(data, msg.snapshot())
            except SerializationError:
                pass  # let the receiver's parse reject the bytes
        return self.shared.network.send(self._physical, int(dst_physical),
                                        data)

    def local_physical(self) -> str:
        return str(self._physical)

    def shutdown(self) -> None:
        self._closed = True
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
