"""Live processing manager + blocking execution context.

Microthreads run on a small pool of persistent worker threads; every
interaction with manager state happens via the site's reactor.  One
execution costs two thread hand-offs — the reactor queues the job for a
worker, the worker posts the completion back — plus one blocking round
trip per operation whose answer only the reactor can compute (a
global-memory read, file I/O).  Side effects are buffered and dispatched
at completion on the reactor (same semantics as the sim kernel);
addresses come from an atomic counter and a ``malloc`` posts its
adoption, so neither waits.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import MemoryFault, ProgramError, SDVMError
from repro.common.ids import FileHandle, GlobalAddress, ManagerId
from repro.core.context import Effect, ExecutionContext
from repro.core.frames import Microframe
from repro.core.threads import CompiledMicrothread
from repro.site.manager_base import Manager
from repro.trace.causal import exec_node

#: how long a blocking context operation may wait for the cluster
OP_TIMEOUT = 10.0


class LiveExecutionContext(ExecutionContext):
    """Blocking context used by worker threads under the live kernel."""

    def __init__(self, frame: Microframe, site,  # noqa: ANN001
                 thread_table: Dict[str, Tuple[int, int]]) -> None:
        super().__init__(frame, thread_table, site.site_id,
                         site.kernel.now, seed=site.config.seed)
        self._site = site
        self.effects: list = []
        self.wait_time = 0.0
        #: blocking reactor round trips this execution made (folded into
        #: the manager's ``ctx_round_trips`` at completion, on the reactor)
        self.round_trips = 0

    def _emit(self, effect: Effect) -> None:
        self.effects.append(effect)

    # -- blocking plumbing ------------------------------------------------
    def _await(self, starter: Callable[[Callable[..., None]], None]) -> Any:
        """Run ``starter(cb)`` on the reactor; block until cb fires."""
        done = threading.Event()
        box: list = [None, None]

        def cb(value: Any = None, error: Optional[Exception] = None) -> None:
            box[0] = value
            box[1] = error
            done.set()

        self.round_trips += 1
        started = self._site.kernel.now
        self._site.kernel.post(starter, cb)
        if not done.wait(OP_TIMEOUT):
            raise MemoryFault("context operation timed out")
        self.wait_time += self._site.kernel.now - started
        if box[1] is not None:
            raise box[1]
        return box[0]

    # -- primitives --------------------------------------------------------
    # Only what the reactor must compute blocks (``_await``): reads and
    # file I/O.  Allocation does not — the address counter is atomic, and
    # the reactor adopts a new object before anything can ask for it.
    def _op_alloc_frame_address(self) -> GlobalAddress:
        return self._site.attraction_memory.alloc_address()

    def _op_malloc(self, value: Any) -> GlobalAddress:
        memory = self._site.attraction_memory
        address = memory.alloc_address()
        self._site.kernel.post(memory.adopt_new_object, address, value)
        return address

    def _op_read(self, address: GlobalAddress) -> Any:
        return self._await(
            lambda cb: self._site.attraction_memory.live_read(address, cb))

    def _op_file_open(self, path: str, mode: str) -> FileHandle:
        return self._await(
            lambda cb: self._site.io_manager.live_open(path, mode, cb))

    def _op_file_read(self, handle: FileHandle, size: int) -> bytes:
        return self._await(
            lambda cb: self._site.io_manager.live_read(handle, size, cb))

    def _op_file_write(self, handle: FileHandle, data: bytes) -> int:
        return self._await(
            lambda cb: self._site.io_manager.live_write(handle, data, cb))

    def _op_file_seek(self, handle: FileHandle, offset: int) -> None:
        self._await(
            lambda cb: self._site.io_manager.live_seek(handle, offset, cb))

    def _op_file_close(self, handle: FileHandle) -> None:
        self._await(
            lambda cb: self._site.io_manager.live_close(handle, cb))


class LiveProcessingManager(Manager):
    manager_id = ManagerId.PROCESSING

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self.in_flight = 0
        self.waiting = 0  # parity with the sim manager's interface
        self._outstanding_requests = 0
        self.work_done = 0.0
        #: jobs for the worker pool; ``None`` tells one worker to exit
        self._jobs: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        #: persistent workers, started on demand up to ``max_parallel + 1``
        #: (the overcommit slot) and stopped with the kernel — whichever
        #: way the site goes down: stop, sign-off or crash
        self._workers: List[threading.Thread] = []
        self.kernel.at_shutdown(self._stop_workers)

    @property
    def max_parallel(self) -> int:
        return self.site.site_config.max_parallel

    # ------------------------------------------------------------------
    def kick(self) -> None:
        if self.site.paused:
            return
        while (self.in_flight + self._outstanding_requests
               < self.max_parallel):
            self._outstanding_requests += 1
            self.site.scheduling_manager.pm_request_work()

    def can_overcommit(self) -> bool:
        return self.in_flight < self.max_parallel + 1

    def on_start(self) -> None:
        self.kick()

    def receive_work(self, frame: Microframe,
                     compiled: CompiledMicrothread,
                     requested: bool = True) -> None:
        if requested:
            self._outstanding_requests = max(
                0, self._outstanding_requests - 1)
        if not self.site.program_manager.is_active(frame.program):
            self.stats.inc("stale_work_dropped")
            self.kick()
            return
        self.in_flight += 1
        info = self.site.program_manager.get(frame.program)
        ctx = LiveExecutionContext(frame, self.site, info.thread_table())
        epoch = self.site.epoch
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "exec_begin",
                    frame.frame_id.pack(), compiled.name,
                    frame.cause_node, frame.cause_origin)
        # every worker serves one job at a time, so a job beyond their
        # number would wait behind a running microthread: grow the pool
        # (not on a stopped site, whose reactor is only draining its queue)
        if (len(self._workers) < min(self.in_flight, self.max_parallel + 1)
                and self.site.running):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"sdvm-exec-{self.local_id}", daemon=True)
            self._workers.append(worker)
            self.stats.inc("workers_started")
            worker.start()
        self._jobs.put((frame, compiled, ctx, epoch))

    # -- worker threads -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            frame, compiled, ctx, epoch = job
            error: Optional[str] = None
            try:
                compiled.entry(ctx, *ctx._args)
            except Exception:  # noqa: BLE001 — user code
                error = traceback.format_exc(limit=3)
            self.kernel.post(self._complete, frame, ctx, epoch, error)

    def _stop_workers(self) -> None:
        """Kernel shutdown hook: end the pool, and wait briefly so a
        process that builds many clusters does not pile up idle threads
        (a worker stuck in user code is abandoned; it is a daemon)."""
        workers, self._workers = self._workers, []
        for _ in workers:
            self._jobs.put(None)
        deadline = time.monotonic() + 0.5
        current = threading.current_thread()
        for worker in workers:
            if worker is not current:
                worker.join(max(0.0, deadline - time.monotonic()))

    # -- back on the reactor --------------------------------------------------
    def _complete(self, frame: Microframe, ctx: LiveExecutionContext,
                  epoch: int, error: Optional[str]) -> None:
        tr = self.tracer
        if ctx.round_trips:
            self.stats.add("ctx_round_trips", ctx.round_trips)
        if error is not None:
            self.stats.inc("microthread_errors")
            self.log("microthread raised:\n%s", error)
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "exec_end",
                        frame.frame_id.pack(), 0.0)
            self._finish_slot()
            self.site.program_manager.local_exit(
                frame.program, None, failed=True, failure=error)
            return
        if epoch != self.site.epoch:
            self.stats.inc("stale_epoch_discarded")
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "exec_end",
                        frame.frame_id.pack(), 0.0)
            self._finish_slot()
            return
        site = self.site
        prev_node, prev_origin = site.cause_node, site.cause_origin
        if tr is not None:
            # completion runs on the reactor, so the same single-threaded
            # set/restore discipline as the sim manager applies
            site.cause_node = exec_node(frame.frame_id.pack())
            site.cause_origin = (frame.cause_origin
                                 if frame.cause_origin >= 0 else self.local_id)
        try:
            self.site.dispatch_effects(frame, ctx.effects)
            frame.consume()
            self.stats.inc("executions")
            self.stats.add("work_units", ctx.charged_work)
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "exec_end",
                        frame.frame_id.pack(), ctx.charged_work)
            self.work_done += ctx.charged_work
            self.site.program_manager.record_execution(frame.program,
                                                       ctx.charged_work)
            self._finish_slot()
        finally:
            if tr is not None:
                site.cause_node, site.cause_origin = prev_node, prev_origin

    def _finish_slot(self) -> None:
        self.in_flight = max(0, self.in_flight - 1)
        if not self.site.running:
            return
        self.site.crash_manager.maybe_ack_drained()
        self.kick()

    def current_load(self) -> int:
        return self.in_flight

    def status(self) -> dict:
        base = super().status()
        base["in_flight"] = self.in_flight
        return base
