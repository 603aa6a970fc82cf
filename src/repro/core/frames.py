"""Microframes — the dataflow half of the SDVM's model of computation.

Paper §3.1: "The start arguments are stored in a data container called
microframe.  They contain space for the expected parameters, a pointer to
the owning microthread, and addresses to microframes where the results of
the microthread have to be applied to. ... As soon as a microframe has all
its parameters, it becomes executable."

Frames are a special kind of global data (§4) and migrate through the
attraction memory, so they must round-trip through the wire codec
(:meth:`Microframe.to_wire` / :meth:`Microframe.from_wire`).
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import FrameStateError, SerializationError
from repro.common.ids import GlobalAddress


class _Missing:
    """Sentinel for an unfilled parameter slot (never leaks to user code)."""

    __slots__ = ()
    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _Missing()


class FrameState(enum.Enum):
    """Lifecycle of a microframe (paper Fig. 5, "career of microframes")."""

    INCOMPLETE = "incomplete"    # waiting for parameters in attraction memory
    EXECUTABLE = "executable"    # all parameters present, queued for code fetch
    READY = "ready"              # code pointer obtained, queued for execution
    CONSUMED = "consumed"        # executed; the frame has "vanished"


class Microframe:
    """One microframe.  Mutable only through :meth:`apply_parameter`."""

    __slots__ = (
        "frame_id", "thread_id", "program", "params", "missing_count",
        "targets", "priority", "critical", "state", "created_at",
        "cause_node",
    )

    def __init__(self, frame_id: GlobalAddress, thread_id: int, program: int,
                 nparams: int,
                 targets: Sequence[Tuple[GlobalAddress, int]] = (),
                 priority: float = 0.0, critical: bool = False,
                 created_at: float = 0.0) -> None:
        if nparams < 0:
            raise FrameStateError(f"nparams must be >= 0, got {nparams}")
        self.frame_id = frame_id
        self.thread_id = thread_id
        self.program = program
        self.params: List[Any] = [MISSING] * nparams
        self.missing_count = nparams
        #: default destinations for this thread's result (Fig. 2: "target
        #: addresses"), as (frame address, parameter slot) pairs
        self.targets: List[Tuple[GlobalAddress, int]] = list(targets)
        #: scheduling hints (§3.3) — larger priority runs earlier under the
        #: 'priority' local policy; ``critical`` marks the CDAG critical path
        self.priority = priority
        self.critical = critical
        self.state = FrameState.INCOMPLETE if nparams else FrameState.EXECUTABLE
        self.created_at = created_at
        #: causal stamp (tracing only): packed node id of the event that made
        #: this frame executable on the *current* site.  Deliberately not
        #: serialized — a migrating frame is re-stamped on arrival from the
        #: delivering message's context.
        self.cause_node = -1

    # ------------------------------------------------------------------
    @property
    def nparams(self) -> int:
        return len(self.params)

    @property
    def executable(self) -> bool:
        return self.missing_count == 0 and self.state != FrameState.CONSUMED

    def apply_parameter(self, slot: int, value: Any) -> bool:
        """Fill one slot; returns True if this made the frame executable.

        Double-filling a slot is a protocol error (each parameter has
        exactly one producer — §3.2's allocation rule guarantees this).
        """
        if self.state in (FrameState.CONSUMED,):
            raise FrameStateError(
                f"{self.frame_id}: parameter applied to consumed frame")
        if not 0 <= slot < len(self.params):
            raise FrameStateError(
                f"{self.frame_id}: slot {slot} out of range 0..{len(self.params)-1}")
        if self.params[slot] is not MISSING:
            raise FrameStateError(
                f"{self.frame_id}: slot {slot} already filled")
        self.params[slot] = value
        self.missing_count -= 1
        if self.missing_count == 0:
            self.state = FrameState.EXECUTABLE
            return True
        return False

    def arguments(self) -> List[Any]:
        """The parameter values, once complete."""
        if self.missing_count:
            raise FrameStateError(
                f"{self.frame_id}: arguments read with "
                f"{self.missing_count} parameters missing")
        return list(self.params)

    def consume(self) -> None:
        """Mark executed — "the microframe is consumed and thus vanishes"."""
        if self.state == FrameState.CONSUMED:
            raise FrameStateError(f"{self.frame_id}: consumed twice")
        if self.missing_count:
            raise FrameStateError(
                f"{self.frame_id}: consumed while incomplete")
        self.state = FrameState.CONSUMED

    # ------------------------------------------------------------------
    # wire representation (frames migrate between sites)

    def to_wire(self, params: Optional[List[Any]] = None) -> list:
        """The frame on the wire, positionally: ``[id, thread, program, n,
        filled, targets, priority, critical, created_at]``, where ``filled``
        holds (slot, value) pairs for the filled slots only.  Frames fill
        checkpoint shards and steal replies, so repeating nine keys in
        every one would cost more bytes than the fields themselves.
        ``params`` stands in for the slots (a running execution's frame is
        cut with the arguments it started from)."""
        return [self.frame_id, self.thread_id, self.program, len(self.params),
                [(i, v) for i, v in enumerate(
                    self.params if params is None else params)
                 if v is not MISSING],
                [(addr, slot) for addr, slot in self.targets],
                self.priority, self.critical, self.created_at]

    @classmethod
    def from_wire(cls, data: list) -> "Microframe":
        if type(data) is not list:
            raise SerializationError(
                f"malformed microframe on wire: {type(data).__name__}")
        try:
            (frame_id, thread_id, program, nparams, filled, targets,
             priority, critical, created_at) = data
            frame = cls(frame_id, thread_id, program, nparams,
                        targets=[(addr, slot) for addr, slot in targets],
                        priority=priority, critical=critical,
                        created_at=created_at)
            for slot, value in filled:
                frame.apply_parameter(slot, value)
        except (TypeError, ValueError, FrameStateError) as exc:
            raise SerializationError(f"malformed microframe on wire: {exc}") from exc
        return frame

    def __repr__(self) -> str:
        return (f"Microframe({self.frame_id} thread={self.thread_id} "
                f"{len(self.params) - self.missing_count}/{len(self.params)} "
                f"{self.state.value})")
