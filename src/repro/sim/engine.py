"""The discrete-event simulator: virtual clock + ordered event queue.

Determinism rules:

* events fire in (time, insertion-sequence) order, so simultaneous events
  run in the order they were scheduled;
* cancelled events stay in the heap but are skipped (lazy deletion), which
  keeps :meth:`Simulator.cancel` O(1); when more than half the queue is
  cancelled the heap is compacted in one O(n) sweep so long runs with many
  cancelled timers (request timeouts, help retries) don't accumulate dead
  entries until pop time;
* all randomness flows through :attr:`Simulator.rng`, seeded at construction.

Performance notes: the heap stores plain ``(time, seq, event)`` tuples so
``heapq`` compares tuples in C instead of calling a Python ``__lt__``; the
:class:`Event` handle itself is a ``__slots__`` class carrying only the
callback, its args, and the cancelled flag.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SDVMError


class SimulationError(SDVMError):
    """Raised for kernel misuse (negative delays, running a stopped sim)."""


class Event:
    """A scheduled callback, ordered by (time, seq) in the simulator heap."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., None],
                 args: tuple = (), sim: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: owning simulator while queued (cleared on pop) — lets cancel()
        #: keep the owner's cancelled-entry count exact without a scan
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()


#: compaction triggers only beyond this queue size — tiny queues rebuild
#: for no benefit
_COMPACT_MIN = 64


class Simulator:
    """Event-driven virtual-time kernel.

    >>> sim = Simulator(seed=1)
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        #: cancelled events still sitting in the heap (exact count)
        self._cancelled = 0
        self.rng = random.Random(seed)
        #: number of events executed (exposed for tests/benchmarks)
        self.events_executed = 0
        #: optional hook called before each event fires: hook(event)
        self.trace_hook: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        event.cancel()

    # -- lazy-deletion bookkeeping --------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        queue = self._queue
        if len(queue) > _COMPACT_MIN and self._cancelled * 2 > len(queue):
            # in-place rebuild so aliases of the queue list stay valid
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or stopped.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier (useful for fixed-horizon runs).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        executed_this_run = 0
        queue = self._queue
        # hoist the optional bounds out of the loop: an unset horizon/limit
        # becomes +inf, so the per-event path is two comparisons, no
        # None-checks
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        try:
            while queue:
                if self._stopped or executed_this_run >= limit:
                    break
                entry = queue[0]
                if entry[0] > horizon:
                    break
                heappop(queue)
                event = entry[2]
                event._sim = None
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = entry[0]
                self.events_executed += 1
                executed_this_run += 1
                if self.trace_hook is not None:
                    self.trace_hook(event)
                event.fn(*event.args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            _time, _seq, event = heappop(queue)
            event._sim = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            self.events_executed += 1
            if self.trace_hook is not None:
                self.trace_hook(event)
            event.fn(*event.args)
            return True
        return False

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled
