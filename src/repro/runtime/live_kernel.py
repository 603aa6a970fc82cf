"""The live kernel: a reactor thread per site, wall-clock time, real I/O.

Every site daemon is an actor: all manager state is touched only from the
site's reactor thread.  Socket reader threads and worker threads communicate
with the managers exclusively by posting closures onto the reactor queue.
Microthread code runs on a pool of persistent ``sdvm-exec-*`` worker
threads (:meth:`LiveKernel.run_user`).  ``call_later`` uses one timer
thread per site with a heap of deadlines (cheaper than a
``threading.Timer`` per timeout).
"""

from __future__ import annotations

import heapq
import itertools
import queue
import random
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SDVMError
from repro.net.base import Transport
from repro.site.kernel import Kernel


class _TimerHandle:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False


class LiveKernel(Kernel):
    mode = "live"

    def __init__(self, make_transport: Callable[[Callable[[bytes], None]],
                                                Transport],
                 seed: int = 0, name: str = "site",
                 tracer: Optional[Any] = None) -> None:
        """``make_transport`` builds the endpoint given a receive callback
        (which may fire on arbitrary threads — it posts to the reactor)."""
        self.rng = random.Random(seed ^ hash(name) & 0xFFFF)
        #: shared structured journal; appends are atomic under CPython, so
        #: the per-site reactor threads need no extra locking
        self.tracer = tracer
        self._queue: "queue.SimpleQueue[Optional[Tuple[Callable, tuple]]]" = (
            queue.SimpleQueue())
        #: wall-clock accounting (parity with SimCluster.wall_clock_metrics):
        #: reactor items processed since construction, and when we started
        self.events_processed = 0
        self.started_at = time.monotonic()
        self._stopping = threading.Event()
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._name = name
        #: the worker pool (reactor state): jobs (``None`` tells one worker
        #: to exit), the workers, and the runs whose result is not back yet
        self._jobs: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []
        self._user_runs = 0
        self.workers_started = 0
        self._peer_watcher: Optional[Callable[[str], None]] = None
        self.transport = make_transport(self._on_raw)
        # reliable transports report suspected-dead peers; route those onto
        # the reactor like any other network event
        if hasattr(self.transport, "on_peer_down"):
            self.transport.on_peer_down = self._on_peer_down
        # timer machinery
        self._timer_heap: list = []
        self._timer_lock = threading.Lock()
        self._timer_wakeup = threading.Event()
        self._timer_seq = itertools.count()
        self._reactor = threading.Thread(target=self._reactor_loop,
                                         name=f"sdvm-reactor-{name}",
                                         daemon=True)
        self._timer_thread = threading.Thread(target=self._timer_loop,
                                              name=f"sdvm-timer-{name}",
                                              daemon=True)
        self._reactor.start()
        self._timer_thread.start()

    # ------------------------------------------------------------------
    # reactor

    def _reactor_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, args = item
            self.events_processed += 1
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — keep the reactor alive
                import traceback
                traceback.print_exc()

    def attach_receiver(self, receiver: Callable[[bytes], None]) -> None:
        """Daemon wires the message manager's deliver_raw here."""
        self._receiver = receiver

    def _on_raw(self, data: bytes) -> None:
        # called on socket reader threads
        receiver = self._receiver
        if receiver is not None and not self._stopping.is_set():
            self.post(receiver, data)

    def attach_peer_watcher(self, watcher: Callable[[str], None]) -> None:
        """Daemon wires the cluster manager's transport-suspicion hook here;
        ``watcher(physical_addr)`` runs on the reactor."""
        self._peer_watcher = watcher

    def _on_peer_down(self, physical: str) -> None:
        # called on transport writer threads
        watcher = self._peer_watcher
        if watcher is not None and not self._stopping.is_set():
            self.post(watcher, physical)

    def wall_clock_metrics(self) -> dict:
        """Uptime + reactor throughput (the live twin of
        :meth:`repro.site.simcluster.SimCluster.wall_clock_metrics`).

        Informational only — wall-clock figures are machine- and
        load-dependent, so they never participate in gated metrics.
        """
        uptime = time.monotonic() - self.started_at
        events = self.events_processed
        return {
            "wall_seconds": uptime,
            "events_executed": float(events),
            "events_per_sec": events / uptime if uptime > 0 else 0.0,
        }

    def transport_stats(self) -> dict:
        """Snapshot of the transport's counters ({} if it keeps none)."""
        stats = getattr(self.transport, "stats", None)
        return stats.as_dict() if stats is not None else {}

    def post(self, fn: Callable[..., None], *args: Any) -> None:
        if not self._stopping.is_set():
            self._queue.put((fn, args))

    def on_reactor(self) -> bool:
        return threading.current_thread() is self._reactor

    def reactor_call(self, fn: Callable[[], Any],
                     timeout: float = 10.0) -> Any:
        """Run ``fn`` on the reactor and return its result (blocking).

        Used by client threads that need manager state (submit, sign-off,
        status queries).  Microthread workers never block on the reactor:
        a run whose operation needs it is abandoned with the request left
        on its context (:attr:`~repro.proc.context.ExecutionContext.request`)
        and runs again once the reply is logged.
        Calling from the reactor itself runs inline.
        """
        if self.on_reactor():
            return fn()
        done = threading.Event()
        box: list = [None, None]

        def runner() -> None:
            try:
                box[0] = fn()
            except Exception as exc:  # noqa: BLE001 — propagate to caller
                box[1] = exc
            finally:
                done.set()

        self.post(runner)
        if not done.wait(timeout):
            raise SDVMError("reactor call timed out")
        if box[1] is not None:
            raise box[1]
        return box[0]

    # ------------------------------------------------------------------
    # timers

    def _timer_loop(self) -> None:
        while not self._stopping.is_set():
            with self._timer_lock:
                now = time.monotonic()
                wait = None
                while self._timer_heap:
                    deadline, _seq, handle, fn, args = self._timer_heap[0]
                    if handle.cancelled:
                        heapq.heappop(self._timer_heap)
                        continue
                    if deadline <= now:
                        heapq.heappop(self._timer_heap)
                        self.post(fn, *args)
                        continue
                    wait = deadline - now
                    break
            self._timer_wakeup.wait(timeout=wait if wait is not None else 0.2)
            self._timer_wakeup.clear()

    @property
    def now(self) -> float:
        return time.monotonic()

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> _TimerHandle:
        handle = _TimerHandle()
        deadline = time.monotonic() + max(delay, 0.0)
        with self._timer_lock:
            heapq.heappush(self._timer_heap,
                           (deadline, next(self._timer_seq), handle, fn,
                            args))
        self._timer_wakeup.set()
        return handle

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> _TimerHandle:
        # a time already past fires at once (call_later clamps at 0)
        return self.call_later(when - time.monotonic(), fn, *args)

    def cancel(self, handle: Any) -> None:
        if isinstance(handle, _TimerHandle):
            handle.cancelled = True

    # ------------------------------------------------------------------
    # CPU model: real time passes by itself

    def cpu_charge(self, seconds: float) -> None:
        pass

    def cpu_run(self, seconds: float, fn: Callable[..., None],
                *args: Any, overhead: bool = True) -> None:
        fn(*args)

    # ------------------------------------------------------------------
    # the worker pool

    def run_user(self, work: Callable[[], Any],
                 done: Callable[[Any], None]) -> None:
        """Queue ``work`` for a worker, which posts ``done(result)`` back.
        A job beyond the workers' number starts one, so none waits behind
        a running microthread: the pool grows to the most runs this site
        ever had at once (``max_parallel + 1`` without replication)."""
        if self._stopping.is_set():
            return  # a stopped site's reactor is only draining its queue
        self._user_runs += 1
        if self._user_runs > len(self._workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"sdvm-exec-{self._name}",
                                      daemon=True)
            self._workers.append(worker)
            self.workers_started += 1
            worker.start()
        self._jobs.put((work, done))

    def _worker_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            work, done = job
            self.post(self._user_ran, done, work())

    def _user_ran(self, done: Callable[[Any], None], result: Any) -> None:
        self._user_runs -= 1
        done(result)

    def _stop_workers(self) -> None:
        """End the pool, and wait briefly so a process that builds many
        clusters does not pile up idle threads (a worker stuck in user code
        is abandoned; it is a daemon)."""
        workers, self._workers = self._workers, []
        for _ in workers:
            self._jobs.put(None)
        deadline = time.monotonic() + 0.5
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    def transport_send(self, dst_physical: str, data: bytes,
                       msg: Optional[Any] = None) -> bool:
        return self.transport.send(dst_physical, data)

    def local_physical(self) -> str:
        return self.transport.local_address()

    def shutdown(self) -> None:
        """Stop transport, reactor, timer and worker pool — however the
        site goes down (stop, sign-off or crash).  The pool stops once the
        reactor has handled its last item: on the reactor itself, or once
        it has been joined."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.transport.close()
        self._queue.put(None)
        self._timer_wakeup.set()
        if not self.on_reactor():
            self._reactor.join(timeout=2.0)
        self._stop_workers()
