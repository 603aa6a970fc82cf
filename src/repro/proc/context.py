"""The execution context — the SDVM's instruction set for microthreads.

Paper §4 (processing manager): "Microthreads can e. g. send results to other
microframes, create new microframes, access data in the global memory, or
input/output data.  This is done using special instructions provided by the
SDVM which represent the only interface between the program running on the
SDVM and the SDVM itself."

One context instance is one run of one microframe execution, under both
kernels.  Side effects are buffered as :class:`Effect` records and
dispatched when the execution completes (§3.2's "send the results" step).
Every *primitive operation* — a frame address, a ``malloc``, a memory
read, the five file calls — goes through :meth:`_op`, which asks a
manager call (``AttractionMemory.live_read``, ``IOManager.live_open`` …)
and appends the answer to ``oplog``.  When the answer does not come at
once the run is abandoned (:class:`Suspended`) and the processing manager
repeats it from ``args_snapshot`` once the reply has been logged: every
earlier operation is then answered from the log, so it returns what it
returned before and does nothing a second time (no second allocation, no
second file write), and the run goes one operation further.  An execution
with *k* waits runs *k + 1* times in host time and once in virtual time.

What waits depends only on the thread a run is on.  Under the sim kernel
user code runs on the site's one thread, so an operation asks at once and
waits only when its answer is a message in flight.  A live worker thread
may not touch manager state: a read or file call leaves its request on
the context (:attr:`request`) for the reactor to issue, and always waits.
Addresses and ``malloc`` never wait — the address counter is atomic, and
a worker posts the adoption of a new object to the reactor.

The same log is what a silent-data-corruption shadow replays: a context
built with ``live=False`` answers only from the log, observes the
primary's clock, site id and RNG seed, touches no cluster state, and
fails if the microthread asks for more than was recorded.  A finished
execution's :meth:`~ExecutionContext.record` is everything such a replay
needs, in wire types — the payload of ``REPLICATE`` — and
:meth:`~ExecutionContext.shadow` builds the replay from it on a site that
holds nothing else of the execution.
"""

from __future__ import annotations

import copy
import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import errors
from repro.common.errors import ProgramError, SDVMError, SerializationError
from repro.common.ids import FileHandle, GlobalAddress
from repro.core.frames import Microframe
from repro.serde import wire_copy


class EffectKind(enum.Enum):
    """Side effects a microthread execution can produce (§3.2 steps 3–4)."""

    CREATE_FRAME = "create_frame"
    SEND_RESULT = "send_result"
    MEM_WRITE = "mem_write"
    OUTPUT = "output"
    EXIT_PROGRAM = "exit_program"
    INPUT_REQUEST = "input_request"


@dataclass(slots=True)
class Effect:
    kind: EffectKind
    data: Dict[str, Any] = field(default_factory=dict)


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


class ExecutionContext:
    """One run of one execution: the user API (everything without a
    leading underscore) over a log of primitive-operation answers.
    ``prior`` is the run it repeats (log, snapshot, clock and flags are
    shared); ``live=False`` makes it a replay that may not go past the end
    of the log."""

    def __init__(self, frame: Microframe, site,  # noqa: ANN001
                 thread_table: Dict[str, Tuple[int, int]],
                 entry: Callable[..., Any],
                 prior: Optional["ExecutionContext"] = None,
                 live: bool = True) -> None:
        self._frame = frame
        #: thread name -> (thread_id, nparams), from the program manager
        self._thread_table = thread_table
        self._site = site
        self._site_id = site.site_id
        self._now = site.kernel.now if prior is None else prior.now
        self._entry = entry
        self._charged = 0.0
        self._exited = False
        #: per-execution deterministic RNG seed (frame id + site seed);
        #: the Random itself is built lazily — seeding a Mersenne Twister
        #: costs microseconds and most microthreads never draw from it
        self._rng_seed = (frame.frame_id.pack() << 8) ^ site.config.seed
        self._rng: Optional[random.Random] = None
        self.effects: List[Effect] = []
        self._cursor = 0
        self._live = live
        #: set by the processing manager: called (with this context) when
        #: the reply an abandoned run was waiting for has been logged
        self.on_reply: Optional[Callable[["ExecutionContext"], None]] = None
        #: ``(ask, args)`` a run on a worker thread left for the reactor
        self.request: Optional[Tuple[Callable[..., None], tuple]] = None
        #: when this run was abandoned (None: it was not)
        self._suspended_at: Optional[float] = None
        #: the chaos engine flipped a bit in this run's effects (ground
        #: truth for the invariant audit; set at completion)
        self.sdc_tainted = False
        if prior is None:
            self._args: List[Any] = frame.arguments()
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
    def rng(self) -> random.Random:
        """Per-execution deterministic RNG (same seed → same draws)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    # ------------------------------------------------------------------
    # introspection

    @property
    def frame_id(self) -> GlobalAddress:
        """Address of the microframe being consumed."""
        return self._frame.frame_id

    @property
    def program(self) -> int:
        return self._frame.program

    @property
    def site(self) -> int:
        """Logical id of the executing site."""
        return self._site_id

    @property
    def now(self) -> float:
        """Time at execution start (simulated or wall-clock)."""
        return self._now

    def get_parameter(self, index: int) -> Any:
        """Extract parameter ``index`` from the microframe (§3.2 step 1)."""
        args = self._args
        if not 0 <= index < len(args):
            raise ProgramError(
                f"parameter index {index} out of range 0..{len(args) - 1}")
        return args[index]

    @property
    def parameters(self) -> List[Any]:
        return list(self._args)

    def targets(self) -> List[Tuple[GlobalAddress, int]]:
        """This frame's stored result-target addresses (Fig. 2)."""
        return list(self._frame.targets)

    # ------------------------------------------------------------------
    # dataflow: frames and results

    def resolve_thread(self, thread: "str | int") -> Tuple[int, int]:
        """Map a microthread name (or id) to (thread_id, nparams)."""
        if isinstance(thread, int):
            for tid, nparams in self._thread_table.values():
                if tid == thread:
                    return tid, nparams
            raise ProgramError(f"unknown microthread id {thread}")
        entry = self._thread_table.get(thread)
        if entry is None:
            raise ProgramError(
                f"unknown microthread {thread!r}; known: "
                f"{sorted(self._thread_table)}")
        return entry

    def create_frame(self, thread: "str | int",
                     targets: Sequence[Tuple[GlobalAddress, int]] = (),
                     priority: float = 0.0, critical: bool = False,
                     nparams: Optional[int] = None) -> GlobalAddress:
        """Allocate a new microframe for ``thread`` (§3.2 step 3).

        Returns the frame's global address immediately — "every microframe
        should be allocated as soon as possible, because its global address
        is known not before its allocation" (§3.2).  The frame itself is
        registered with the local attraction memory when the effect is
        dispatched.
        """
        if self._exited:
            raise ProgramError("create_frame after exit_program")
        thread_id, default_nparams = self.resolve_thread(thread)
        count = default_nparams if nparams is None else nparams
        if count < 0:
            raise ProgramError(
                f"microthread {thread!r} is variadic; pass nparams= to "
                f"create_frame")
        address = self._op(self._new_address, anywhere=True)
        self.effects.append(Effect(EffectKind.CREATE_FRAME, {
            "address": address,
            "thread_id": thread_id,
            "nparams": count,
            "targets": [(a, s) for a, s in targets],
            "priority": priority,
            "critical": critical,
        }))
        return address

    def send_result(self, address: GlobalAddress, slot: int,
                    value: Any) -> None:
        """Apply ``value`` to parameter ``slot`` of the frame at ``address``
        (§3.2 step 4)."""
        self.effects.append(Effect(EffectKind.SEND_RESULT, {
            "address": address, "slot": slot, "value": value,
        }))

    def send_to_targets(self, value: Any) -> None:
        """Send ``value`` to every (address, slot) stored in this frame."""
        for address, slot in self._frame.targets:
            self.send_result(address, slot, value)

    # ------------------------------------------------------------------
    # global memory (attraction memory)

    def malloc(self, value: Any = None) -> GlobalAddress:
        """Allocate a global memory object, initially holding ``value``.

        "If an SDVM application requests a certain amount of memory for its
        own purposes, this memory will be allocated in the attraction
        memory" (§4).  Allocation is local and never waits.
        """
        return self._op(self._new_object, value, anywhere=True)

    def read(self, address: GlobalAddress) -> Any:
        """Read a global memory object (may wait for its migration)."""
        return self._op(self._site.attraction_memory.live_read, address)

    def write(self, address: GlobalAddress, value: Any) -> None:
        """Overwrite a global memory object."""
        self.effects.append(Effect(EffectKind.MEM_WRITE, {
            "address": address, "value": value,
        }))

    # ------------------------------------------------------------------
    # I/O

    def output(self, *values: Any) -> None:
        """Emit console output, routed to the program's frontend (§4)."""
        text = " ".join(str(v) for v in values)
        self.effects.append(Effect(EffectKind.OUTPUT, {"text": text}))

    def request_input(self, prompt: str, target: GlobalAddress,
                      slot: int) -> None:
        """Ask the frontend for input; the reply arrives as a parameter of
        the frame at ``target`` — input is dataflow like everything else."""
        self.effects.append(Effect(EffectKind.INPUT_REQUEST, {
            "prompt": prompt, "address": target, "slot": slot,
        }))

    def open_file(self, path: str, mode: str = "r") -> FileHandle:
        """Open a cluster-global file; the handle works from any site (§4)."""
        return self._op(self._site.io_manager.live_open, path, mode)

    def file_read(self, handle: FileHandle, size: int = -1,
                  offset: int = -1) -> bytes:
        """Read from a global file; ``offset`` >= 0 seeks first (the cursor
        is shared cluster-wide through the handle's owning site)."""
        if offset >= 0:
            self.file_seek(handle, offset)
        return self._op(self._site.io_manager.live_read, handle, size)

    def file_seek(self, handle: FileHandle, offset: int) -> None:
        if offset < 0:
            raise ProgramError("file offset must be >= 0")
        self._op(self._site.io_manager.live_seek, handle, offset)

    def file_write(self, handle: FileHandle, data: bytes) -> int:
        return self._op(self._site.io_manager.live_write, handle, data)

    def file_close(self, handle: FileHandle) -> None:
        self._op(self._site.io_manager.live_close, handle)

    # ------------------------------------------------------------------
    # control

    def charge(self, work_units: float) -> None:
        """Declare computational work done (drives the sim cost model).

        Under the live kernel real time passes anyway and this is a no-op
        beyond accounting; under the sim kernel it is the *only* source of
        compute time, so applications must charge honestly.
        """
        if work_units < 0:
            raise ProgramError("cannot charge negative work")
        self._charged += work_units

    @property
    def charged_work(self) -> float:
        return self._charged

    def exit_program(self, result: Any = None) -> None:
        """Terminate the whole program; ``result`` reaches the frontend."""
        self._exited = True
        self.effects.append(Effect(EffectKind.EXIT_PROGRAM,
                                   {"result": result}))

    # ------------------------------------------------------------------
    # runs, replays and records

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

    def issue_request(self) -> None:
        """Make the request a run on a worker thread left (on the
        reactor, once the run is counted as waiting)."""
        request, self.request = self.request, None
        if request is not None:
            ask, args = request
            try:
                ask(*args, self._answer)
            except Exception as error:  # noqa: BLE001
                # bad arguments (data no file or wire can take): the next
                # run raises the error at the operation, as the sim does
                self._answer(None, error)

    def again(self, live: bool = True) -> "ExecutionContext":
        """The context of this execution's next run — or, with
        ``live=False``, of a shadow's replay of it."""
        return ExecutionContext(self._frame, self._site, self._thread_table,
                                self._entry, prior=self, live=live)

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
               entry: Callable[..., Any]) -> "ExecutionContext":
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
    # primitives: one log under both kernels

    def _op(self, ask: Callable[..., None], *args: Any,
            anywhere: bool = False) -> Any:
        """Answer one primitive: from the log, or by ``ask(*args, cb)`` —
        here and now if this thread may touch manager state or ``ask`` is
        callable ``anywhere``, else by the reactor once this run is
        abandoned."""
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
            kernel = self._site.kernel
            if anywhere or kernel.on_reactor():
                ask(*args, self._answer)
            else:
                self.request = (ask, args)
            if index == len(log):
                # not answered here and now: a message in flight, or a
                # request only the reactor may make
                self._suspended_at = kernel.now
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

    def _new_address(self, cb) -> None:  # noqa: ANN001
        cb(self._site.attraction_memory.alloc_address())

    def _new_object(self, value: Any, cb) -> None:  # noqa: ANN001
        memory = self._site.attraction_memory
        kernel = self._site.kernel
        if kernel.on_reactor():
            cb(memory.alloc_object(value))
            return
        # a worker takes the address itself and posts the adoption: the
        # reactor's FIFO queue runs it before this run's own requests
        address = memory.alloc_address()
        kernel.post(memory.adopt_new_object, address, value)
        cb(address)
