"""The simulation kernel: one per simulated site.

The sites of one run have the event engine (:class:`Simulator`) and the
:class:`SimNetwork` in common and nothing else: memory objects, files and
executions live in the managers of the site that owns them, and whatever
one site knows of another came in a message.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.common.errors import SerializationError
from repro.messages import SnapshotEnvelope
from repro.net.simnet import SimNetwork
from repro.sim.engine import Event, Simulator
from repro.site.kernel import CpuModel, Kernel


class SimKernel(Kernel):
    """Kernel backed by the discrete-event simulator."""

    mode = "sim"

    def __init__(self, sim: Simulator, network: SimNetwork, physical: int,
                 speed: float, seed: int = 0,
                 tracer: Optional[Any] = None) -> None:
        self.sim = sim
        self._network = network
        self.cpu = CpuModel(sim, speed)
        self.tracer = tracer
        self._physical = physical
        self.rng = random.Random((seed << 16) ^ physical ^ 0x5DF1)
        self._endpoint: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------
    def attach_receiver(self, receiver: Callable[[bytes], None]) -> None:
        """Connect this kernel to the network (done by the daemon)."""
        self._endpoint = self._network.endpoint(self._physical, receiver)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> Event:
        return self.sim.schedule(delay, fn, *args)

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> Event:
        return self.sim.schedule_at(when, fn, *args)

    def cancel(self, handle: Any) -> None:
        if isinstance(handle, Event):
            handle.cancel()

    def post(self, fn: Callable[..., None], *args: Any) -> None:
        self.sim.schedule(0.0, fn, *args)

    def cpu_charge(self, seconds: float) -> None:
        self.cpu.charge(seconds)

    def cpu_run(self, seconds: float, fn: Callable[..., None],
                *args: Any, overhead: bool = True) -> None:
        self.cpu.run(seconds, fn, *args, overhead=overhead)

    def run_user(self, work: Callable[[], Any],
                 done: Callable[[Any], None]) -> None:
        # a microthread runs at one instant of virtual time: inline, no event
        done(work())

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
        return self._network.send(self._physical, int(dst_physical), data)

    def local_physical(self) -> str:
        return str(self._physical)

    def shutdown(self) -> None:
        self._closed = True
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
