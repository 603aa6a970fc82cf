"""The kernel interface a site daemon runs on, plus the modelled CPU.

All manager code is written against :class:`Kernel`, so the same protocol
logic runs under the deterministic simulation and under real threads and
sockets — the design move that lets one implementation serve both the
benchmarks (reproducible timing) and the live runtime (proof the protocols
actually work).
"""

from __future__ import annotations

import abc
import random
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.common.errors import SDVMError


class Kernel(abc.ABC):
    """Execution substrate services for one site daemon."""

    rng: random.Random

    #: cluster-wide structured event journal (repro.trace.Tracer), shared
    #: by every kernel of one run; None unless SDVMConfig(trace=True).
    #: Managers read it once and guard each emission, so the disabled
    #: path costs one attribute check and nothing else.
    tracer: Optional[Any] = None

    #: the modelled processor (:class:`CpuModel`) where the kernel models
    #: one — the sim's; a live kernel's CPU time passes by itself
    cpu: Optional["CpuModel"] = None

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Seconds since the run began: virtual in the sim, wall-clock
        seconds since the cluster's build under the live kernel."""

    @abc.abstractmethod
    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> Any:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a cancellable
        handle."""

    @abc.abstractmethod
    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> Any:
        """Run ``fn(*args)`` at time ``when`` (on the clock of :attr:`now`);
        returns a :meth:`call_later` handle.  Exact where ``call_later(when
        - now)`` would round: a sim event fires at ``when`` itself."""

    @abc.abstractmethod
    def cancel(self, handle: Any) -> None:
        """Cancel a :meth:`call_later` handle (idempotent)."""

    @abc.abstractmethod
    def post(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` as soon as possible, preserving post order."""

    @abc.abstractmethod
    def cpu_charge(self, seconds: float) -> None:
        """Occupy this site's CPU for ``seconds`` of protocol work."""

    @abc.abstractmethod
    def cpu_run(self, seconds: float, fn: Callable[..., None],
                *args: Any, overhead: bool = True) -> None:
        """Occupy the CPU for ``seconds``, then run ``fn(*args)``;
        ``overhead=False`` bills a microthread's compute phase."""

    @abc.abstractmethod
    def run_user(self, work: Callable[[], Any],
                 done: Callable[[Any], None]) -> None:
        """Run microthread code: ``work()`` where this kernel hosts user
        code, then ``done(result)`` where manager state may be touched."""

    def on_reactor(self) -> bool:
        """Whether the calling thread may touch manager state (the sim's
        one thread always may)."""
        return True

    @abc.abstractmethod
    def attach_receiver(self, receiver: Callable[[bytes], None]) -> None:
        """Deliver every envelope that arrives for this site to
        ``receiver`` (the message manager's ``deliver_raw``)."""

    def attach_peer_watcher(self, watcher: Callable[[str], None]) -> None:
        """Call ``watcher(physical_addr)`` when the transport suspects a
        peer dead; the sim's network has no failure detector."""

    def transport_stats(self) -> dict:
        """The transport's own counters ({} where it keeps none)."""
        return {}

    @abc.abstractmethod
    def transport_send(self, dst_physical: str, data: bytes,
                       msg: Optional[Any] = None) -> bool:
        """Hand bytes to the transport for ``dst_physical``.

        ``msg`` is the :class:`~repro.messages.SDMessage` that ``data``
        encodes, when the sender has just encoded it: a kernel whose wire
        stays inside the process may deliver a private copy of it next to
        the bytes; one with a real wire ignores it.
        """

    @abc.abstractmethod
    def local_physical(self) -> str:
        """This site's physical address."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Tear down transports/threads owned by the kernel."""


class CpuModel:
    """Processor-sharing model of one site's CPU for the sim kernel.

    All protocol work (message serialization, scheduling decisions,
    compilation) and microthread compute segments run here as jobs that
    share the CPU equally — matching the paper's execution environment,
    where the daemon's ~5 virtually parallel microthreads are OS threads
    the operating system timeshares.  A 20 µs bookkeeping microthread
    therefore finishes in ~n·20 µs even while a long test computes, instead
    of queueing behind it; and overhead genuinely contends with useful
    work, which is what makes the single-site overhead experiment (paper
    §5: ~3 %) meaningful.

    Batched virtual-service accounting: one cumulative counter
    (``_service``) records how much CPU time *each* active job has
    received since t=0, advancing by ``dt / n`` per :meth:`_advance` —
    O(1) in the active-job count.  A job admitted when the counter read
    ``b`` with demand ``d`` finishes when the counter reaches ``b + d``;
    that finish mark is fixed at admission, so jobs live in a min-heap
    keyed by it and the next completion is a heap peek.  Under equal
    sharing the per-job service order never changes after admission,
    which is what makes the admission-time key sound.  Per-job remaining
    time is never stored or decayed — the old model's O(jobs) decay loop
    on every advance (the profiled top cost of 256-site runs, where hot
    sites carry long job lists of per-message charges) is gone.

    Deterministic: completions are processed in (time, admission-sequence)
    order; all state advances only at event boundaries.
    """

    __slots__ = ("_sim", "speed", "slowdown", "_jobs", "_seq",
                 "_last_update", "_completion_event", "_target_time",
                 "_service", "_overhead_jobs", "busy_total",
                 "overhead_total")

    def __init__(self, sim: "Any", speed: float) -> None:
        if speed <= 0:
            raise SDVMError(f"CPU speed must be positive, got {speed}")
        self._sim = sim
        self.speed = speed
        #: transient demand multiplier (chaos slow-site faults); applied at
        #: admission time, so jobs already running keep their old rate.
        #: The default of 1.0 is float-exact: ``x * 1.0 == x`` bitwise.
        self.slowdown = 1.0
        #: active jobs, a heap ordered by (finish_service, seq) where
        #: finish_service = service counter at admission + demand.
        #: Entry: [finish_service, seq, fn, args, overhead]
        self._jobs: list = []
        self._seq = 0
        self._last_update = 0.0
        self._completion_event = None
        #: absolute virtual time of the next job completion, or None when
        #: idle.  The armed heap event may fire *before* this (it is left in
        #: place when an admission pushes the completion later); a stale
        #: fire re-arms at the current target without touching job state,
        #: so the shared-progress arithmetic below is unaffected by when
        #: (or how often) stale wake-ups happen.
        self._target_time = None
        #: cumulative virtual service: CPU-seconds every currently-active
        #: job has received since t=0 (idle periods add nothing)
        self._service = 0.0
        #: active jobs flagged overhead — lets overhead_total advance in
        #: O(1) (each gets the same share per advance)
        self._overhead_jobs = 0
        #: total CPU-seconds consumed
        self.busy_total = 0.0
        #: CPU-seconds spent on protocol overhead (vs. microthread compute)
        self.overhead_total = 0.0

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Progress the shared service counter up to the current instant."""
        now = self._sim.now
        dt = now - self._last_update
        self._last_update = now
        n = len(self._jobs)
        if n == 0 or dt <= 0.0:
            return
        share = dt / n
        self._service += share
        self.busy_total += dt
        if self._overhead_jobs:
            self.overhead_total += share * self._overhead_jobs

    def _reschedule(self) -> None:
        """Re-aim the completion event at the earliest job completion.

        Churn-avoiding: work admissions almost always push the completion
        *later* (more jobs share the CPU), so instead of cancelling and
        re-pushing a heap entry on every admission, the already-armed event
        is left alone whenever it fires at or before the new target —
        :meth:`_complete` detects the early fire and re-arms.  Only a
        target that moved *earlier* (a new job shorter than every current
        remaining share) needs a cancel.
        """
        jobs = self._jobs
        event = self._completion_event
        if not jobs:
            self._target_time = None
            # no active job references the counter: re-zero it so its
            # magnitude (and thus the absolute float error of
            # ``finish - service``) is bounded by the longest continuous
            # busy period, not the whole run
            self._service = 0.0
            if event is not None:
                event.cancel()
                self._completion_event = None
            return
        shortest = jobs[0][0] - self._service
        if shortest < 0.0:
            shortest = 0.0
        target = self._sim.now + shortest * len(jobs)
        self._target_time = target
        if event is None:
            self._completion_event = self._sim.schedule_at(
                target, self._complete)
        elif event.time > target:
            event.cancel()
            self._completion_event = self._sim.schedule_at(
                target, self._complete)

    def _complete(self) -> None:
        self._completion_event = None
        target = self._target_time
        if target is None:
            return
        now = self._sim.now
        if now < target:
            # stale wake-up: the completion moved later while this event
            # sat in the heap.  Re-arm at the real target — deliberately
            # WITHOUT advancing job state, so the float trajectory of the
            # progress accounting is identical to an eager-cancel scheme.
            self._completion_event = self._sim.schedule_at(
                target, self._complete)
            return
        self._advance()
        jobs = self._jobs
        mark = self._service + 1e-12
        finished = []
        while jobs and jobs[0][0] <= mark:
            job = heappop(jobs)
            finished.append(job)
            if job[4]:
                self._overhead_jobs -= 1
        if finished:
            finished.sort(key=lambda job: job[1])  # admission order
            for job in finished:
                if job[2] is not None:
                    job[2](*job[3])
        self._reschedule()

    # ------------------------------------------------------------------
    def run(self, seconds: float, fn: Optional[Callable[..., None]],
            *args: Any, overhead: bool = True) -> None:
        """Admit a job of ``seconds`` CPU time; ``fn`` fires at completion."""
        if seconds < 0:
            raise SDVMError(f"negative CPU charge {seconds}")
        seconds *= self.slowdown
        if seconds == 0.0:
            if fn is not None:
                self._sim.schedule(0.0, fn, *args)
            return
        self._advance()
        heappush(self._jobs,
                 [self._service + seconds, self._seq, fn, args, overhead])
        self._seq += 1
        if overhead:
            self._overhead_jobs += 1
        self._reschedule()

    def charge(self, seconds: float, overhead: bool = True) -> None:
        """Consume CPU capacity without a completion callback."""
        self.run(seconds, None, overhead=overhead)

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def utilization(self) -> float:
        """Busy fraction since t=0."""
        now = self._sim.now
        return self.busy_total / now if now > 0 else 0.0
