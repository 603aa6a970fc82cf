"""Execution context for the simulation kernel: a restartable execution.

A sim microthread runs at one instant of virtual time, so it cannot
block on a reply.  Instead every primitive operation (a frame address, a
``malloc``, a memory read, the five file calls) goes through :meth:`_op`,
which asks the *same* manager call the live kernel's blocking context
uses (``AttractionMemory.live_read``, ``IOManager.live_open`` …) and
appends the answer to ``oplog``.  When the answer does not come at once —
the request is a message on its way to another site — the run is
abandoned (:class:`Suspended`) and the processing manager repeats it from
``args_snapshot`` once the reply has been logged: every earlier operation
is then answered from the log, so it returns what it returned before and
does nothing a second time (no second allocation, no second file write),
and the run goes one operation further.  An execution with *k* remote
operations runs *k + 1* times in host time and once in virtual time; its
wait is the flight of its messages.

The same log is what a silent-data-corruption shadow replays: a context
built with ``live=False`` answers only from the log, observes the
primary's clock, site id and RNG seed, touches no cluster state, and
fails if the microthread asks for more than was recorded.  A finished
execution's :meth:`~SimExecutionContext.record` is everything such a
replay needs, in wire types — the payload of ``REPLICATE`` — and
:meth:`~SimExecutionContext.shadow` builds the replay from it on a site
that holds nothing else of the execution.
Side effects are buffered and dispatched at the execution's simulated
completion (§3.2: extract -> calculate -> create frames -> send results).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common import errors
from repro.common.errors import ProgramError, SDVMError, SerializationError
from repro.common.ids import FileHandle, GlobalAddress
from repro.core.context import Effect, ExecutionContext
from repro.core.frames import Microframe
from repro.serde import wire_copy


def _snapshot(args: List[Any]) -> List[Any]:
    """A copy of an argument list that shares nothing a microthread can
    change in place: what the frame would hold had it crossed the wire
    (scalars and addresses shared, containers rebuilt), and a deep copy
    for values that never could."""
    try:
        return wire_copy(args)
    except SerializationError:
        return copy.deepcopy(args)


class Suspended(BaseException):
    """Raised out of a microthread whose operation awaits a reply.  Not
    an ``Exception``: user code that guards an operation with ``except
    Exception`` must not swallow it."""


class _Failed:
    """A logged operation that raised (unknown address, stale handle): a
    repeat raises the same error at the same place."""

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error

    def to_wire(self) -> Tuple[str, str]:
        return type(self.error).__name__, str(self.error)

    @classmethod
    def from_wire(cls, name: str, text: str) -> "_Failed":
        kind = getattr(errors, name, None)
        if not (isinstance(kind, type) and issubclass(kind, SDVMError)):
            kind = SDVMError
        return cls(kind(text))


class SimExecutionContext(ExecutionContext):
    """One run of one execution.  ``prior`` is the run it repeats (log,
    snapshot, clock and flags are shared); ``live=False`` makes it a
    replay that may not go past the end of the log."""

    def __init__(self, frame: Microframe, site,  # noqa: ANN001
                 thread_table: Dict[str, Tuple[int, int]],
                 entry: Callable[..., Any],
                 prior: Optional["SimExecutionContext"] = None,
                 live: bool = True) -> None:
        super().__init__(frame, thread_table, site.site_id,
                         site.kernel.now if prior is None else prior.now,
                         seed=site.config.seed)
        self._site = site
        self._entry = entry
        self.effects: List[Effect] = []
        self._cursor = 0
        self._live = live
        #: set by the processing manager: called (with this context) when
        #: the reply an abandoned run was waiting for has been logged
        self.on_reply: Optional[Callable[["SimExecutionContext"], None]] = None
        #: when this run was abandoned (None: it was not)
        self._suspended_at: Optional[float] = None
        #: the chaos engine flipped a bit in this run's effects (ground
        #: truth for the invariant audit; set at completion)
        self.sdc_tainted = False
        if prior is None:
            #: primitive-op results in call order
            self.oplog: List[Any] = []
            #: the arguments as they were before any run touched them
            #: (microthreads mutate mutable ones — the primes pipeline
            #: threads one state dict through its collect chain); a replay
            #: runs once and has nothing to go back to
            self.args_snapshot: List[Any] = (_snapshot(self._args) if live
                                             else self._args)
            #: seconds spent suspended on remote memory / files
            self.wait_time = 0.0
            #: picked for duplicate execution (SDC defense)
            self.replicated = False
        else:
            self.oplog = prior.oplog
            self.args_snapshot = prior.args_snapshot
            self._args = _snapshot(prior.args_snapshot)
            self.wait_time = prior.wait_time
            self.replicated = prior.replicated

    @property
    def failed_op(self) -> bool:
        """The newest logged operation is an error (a dead site's
        silence, an unknown address) the next run will raise."""
        return bool(self.oplog) and type(self.oplog[-1]) is _Failed

    def run(self) -> None:
        """Call the microthread; raises what it raises, or
        :class:`Suspended` — also when a bare ``except`` in it swallowed
        that: a run that was abandoned has no result."""
        self._entry(self, *self._args)
        if self._suspended_at is not None:
            raise Suspended

    def again(self, live: bool = True) -> "SimExecutionContext":
        """The context of this execution's next run — or, with
        ``live=False``, of a shadow's replay of it."""
        return SimExecutionContext(self._frame, self._site,
                                   self._thread_table, self._entry,
                                   prior=self, live=live)

    def record(self) -> Dict[str, Any]:
        """What another site needs to repeat this finished execution, in
        wire types: the ``REPLICATE`` payload.  A log entry travels as
        ``(value,)``, one that raised as ``(error class, text)``."""
        frame = self._frame
        return {
            "frame": frame.frame_id,
            "program": frame.program,
            "thread": frame.thread_id,
            "targets": frame.targets,
            "args": self.args_snapshot,
            "oplog": [entry.to_wire() if type(entry) is _Failed else (entry,)
                      for entry in self.oplog],
            "now": self._now,
            "work": self._charged,
        }

    @classmethod
    def shadow(cls, record: Dict[str, Any], primary: int, site,  # noqa: ANN001
               thread_table: Dict[str, Tuple[int, int]],
               entry: Callable[..., Any]) -> "SimExecutionContext":
        """The replay of site ``primary``'s :meth:`record` on ``site``."""
        args = record["args"]
        frame = Microframe(record["frame"], record["thread"],
                           record["program"], len(args), record["targets"])
        for slot, value in enumerate(args):
            frame.apply_parameter(slot, value)
        replay = cls(frame, site, thread_table, entry, live=False)
        replay._site_id = primary
        replay._now = record["now"]
        replay.oplog = [logged[0] if len(logged) == 1
                        else _Failed.from_wire(*logged)
                        for logged in record["oplog"]]
        return replay

    # ------------------------------------------------------------------
    def _emit(self, effect: Effect) -> None:
        self.effects.append(effect)

    def _op(self, ask: Callable[..., None], *args: Any) -> Any:
        """Answer one primitive: from the log, or by ``ask(*args, cb)``."""
        if self._suspended_at is not None:
            raise Suspended  # swallowed once; the run stays abandoned
        index = self._cursor
        self._cursor = index + 1
        log = self.oplog
        if index == len(log):
            if not self._live:
                raise ProgramError(
                    "shadow execution diverged: more primitive ops than "
                    "the primary recorded")
            ask(*args, self._answer)
            if index == len(log):
                # not answered here and now: it is a message in flight
                self._suspended_at = self._site.kernel.now
                raise Suspended
        result = log[index]
        if type(result) is _Failed:
            raise result.error
        return result

    def _answer(self, value: Any = None,
                error: Optional[Exception] = None) -> None:
        self.oplog.append(value if error is None else _Failed(error))
        if self._suspended_at is not None:
            self.wait_time += self._site.kernel.now - self._suspended_at
            self.on_reply(self)

    # -- primitives: the live kernel's calls, one log ----------------------
    def _new_address(self, cb) -> None:  # noqa: ANN001
        cb(self._site.attraction_memory.alloc_address())

    def _new_object(self, value: Any, cb) -> None:  # noqa: ANN001
        cb(self._site.attraction_memory.alloc_object(value))

    def _op_alloc_frame_address(self) -> GlobalAddress:
        return self._op(self._new_address)

    def _op_malloc(self, value: Any) -> GlobalAddress:
        return self._op(self._new_object, value)

    def _op_read(self, address: GlobalAddress) -> Any:
        return self._op(self._site.attraction_memory.live_read, address)

    def _op_file_open(self, path: str, mode: str) -> FileHandle:
        return self._op(self._site.io_manager.live_open, path, mode)

    def _op_file_read(self, handle: FileHandle, size: int) -> bytes:
        return self._op(self._site.io_manager.live_read, handle, size)

    def _op_file_write(self, handle: FileHandle, data: bytes) -> int:
        return self._op(self._site.io_manager.live_write, handle, data)

    def _op_file_seek(self, handle: FileHandle, offset: int) -> None:
        self._op(self._site.io_manager.live_seek, handle, offset)

    def _op_file_close(self, handle: FileHandle) -> None:
        self._op(self._site.io_manager.live_close, handle)
