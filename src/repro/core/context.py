"""The execution context — the SDVM's instruction set for microthreads.

Paper §4 (processing manager): "Microthreads can e. g. send results to other
microframes, create new microframes, access data in the global memory, or
input/output data.  This is done using special instructions provided by the
SDVM which represent the only interface between the program running on the
SDVM and the SDVM itself."

One context instance is created per microframe execution.  The *user API*
(everything without a leading underscore) is identical under both kernels;
kernels differ in how primitive operations resolve:

Both buffer side effects as :class:`Effect` records and dispatch them
when the execution completes (§3.2's "send the results" step), and both
answer a primitive through the same manager call (``live_read``,
``live_open`` …) — what differs is how an execution waits for an answer
that has to come from another site:

* the **live kernel** blocks its worker thread on the round trip;
* the **sim kernel** cannot block (a microthread runs at one instant of
  virtual time), so it abandons the run and repeats it from the
  arguments' snapshot once the reply has landed, with every earlier
  answer replayed from a log (:mod:`repro.proc.sim_context`).

Subclasses implement the ``_op_*`` primitives.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ProgramError
from repro.common.ids import FileHandle, GlobalAddress
from repro.core.frames import Microframe


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


class ExecutionContext:
    """Base context: user-facing API + effect plumbing."""

    def __init__(self, frame: Microframe,
                 thread_table: Dict[str, Tuple[int, int]],
                 site_id: int, now: float, seed: int = 0) -> None:
        self._frame = frame
        #: the microthread's arguments; a kernel that re-runs an execution
        #: replaces them with a fresh copy
        self._args: List[Any] = frame.arguments()
        #: thread name -> (thread_id, nparams), from the program manager
        self._thread_table = thread_table
        self._site_id = site_id
        self._now = now
        self._charged = 0.0
        self._exited = False
        #: per-execution deterministic RNG seed (frame id + site seed);
        #: the Random itself is built lazily — seeding a Mersenne Twister
        #: costs microseconds and most microthreads never draw from it
        self._rng_seed = (frame.frame_id.pack() << 8) ^ seed
        self._rng: Optional[random.Random] = None

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
        address = self._op_alloc_frame_address()
        self._emit(Effect(EffectKind.CREATE_FRAME, {
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
        self._emit(Effect(EffectKind.SEND_RESULT, {
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
        memory" (§4).  Allocation is local and synchronous.
        """
        return self._op_malloc(value)

    def read(self, address: GlobalAddress) -> Any:
        """Read a global memory object (may charge migration latency)."""
        return self._op_read(address)

    def write(self, address: GlobalAddress, value: Any) -> None:
        """Overwrite a global memory object."""
        self._emit(Effect(EffectKind.MEM_WRITE, {
            "address": address, "value": value,
        }))

    # ------------------------------------------------------------------
    # I/O

    def output(self, *values: Any) -> None:
        """Emit console output, routed to the program's frontend (§4)."""
        text = " ".join(str(v) for v in values)
        self._emit(Effect(EffectKind.OUTPUT, {"text": text}))

    def request_input(self, prompt: str, target: GlobalAddress,
                      slot: int) -> None:
        """Ask the frontend for input; the reply arrives as a parameter of
        the frame at ``target`` — input is dataflow like everything else."""
        self._emit(Effect(EffectKind.INPUT_REQUEST, {
            "prompt": prompt, "address": target, "slot": slot,
        }))

    def open_file(self, path: str, mode: str = "r") -> FileHandle:
        """Open a cluster-global file; the handle works from any site (§4)."""
        return self._op_file_open(path, mode)

    def file_read(self, handle: FileHandle, size: int = -1,
                  offset: int = -1) -> bytes:
        """Read from a global file; ``offset`` >= 0 seeks first (the cursor
        is shared cluster-wide through the handle's owning site)."""
        if offset >= 0:
            self._op_file_seek(handle, offset)
        return self._op_file_read(handle, size)

    def file_seek(self, handle: FileHandle, offset: int) -> None:
        if offset < 0:
            raise ProgramError("file offset must be >= 0")
        self._op_file_seek(handle, offset)

    def file_write(self, handle: FileHandle, data: bytes) -> int:
        return self._op_file_write(handle, data)

    def file_close(self, handle: FileHandle) -> None:
        self._op_file_close(handle)

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
        self._emit(Effect(EffectKind.EXIT_PROGRAM, {"result": result}))

    # ------------------------------------------------------------------
    # primitives supplied by the kernel-specific subclass

    def _emit(self, effect: Effect) -> None:
        raise NotImplementedError

    def _op_alloc_frame_address(self) -> GlobalAddress:
        raise NotImplementedError

    def _op_malloc(self, value: Any) -> GlobalAddress:
        raise NotImplementedError

    def _op_read(self, address: GlobalAddress) -> Any:
        raise NotImplementedError

    def _op_file_open(self, path: str, mode: str) -> FileHandle:
        raise NotImplementedError

    def _op_file_read(self, handle: FileHandle, size: int) -> bytes:
        raise NotImplementedError

    def _op_file_seek(self, handle: FileHandle, offset: int) -> None:
        raise NotImplementedError

    def _op_file_write(self, handle: FileHandle, data: bytes) -> int:
        raise NotImplementedError

    def _op_file_close(self, handle: FileHandle) -> None:
        raise NotImplementedError
