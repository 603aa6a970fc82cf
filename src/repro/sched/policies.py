"""Queue disciplines for the scheduling manager.

The paper (§4): "a LIFO-strategy is used for the replying to help requests
to hide the communication latencies.  To avoid starving of microframes, a
FIFO-strategy is used momentarily for the local scheduling."  Both are
policy knobs here (``SchedulingConfig``) so the bench in
``benchmarks/bench_help_policies.py`` can cross them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.common.errors import SchedulingError
from repro.core.frames import Microframe


class FrameQueue(deque):
    """A deque of microframes that counts its hinted frames.

    ``critical`` is the number of critical-path frames queued, ``hinted``
    the number that are critical or carry a positive priority.  A frame's
    hints never change once it is built, so the counts follow from the
    mutators alone and the scheduler's hint checks cost O(1) instead of a
    walk of the queue.  Only the mutators overridden here keep the counts
    exact; the others (``insert``, ``remove``, ``extendleft``, item
    assignment) must not be used on a frame queue.
    """

    __slots__ = ("critical", "hinted")

    def __init__(self, frames: Iterable[Microframe] = ()) -> None:
        super().__init__()
        self.critical = self.hinted = 0
        self.extend(frames)

    def _count(self, frame: Microframe, delta: int) -> None:
        if frame.critical:
            self.critical += delta
            self.hinted += delta
        elif frame.priority > 0.0:
            self.hinted += delta

    def append(self, frame: Microframe) -> None:
        super().append(frame)
        self._count(frame, 1)

    def appendleft(self, frame: Microframe) -> None:
        super().appendleft(frame)
        self._count(frame, 1)

    def extend(self, frames: Iterable[Microframe]) -> None:
        for frame in frames:
            self.append(frame)

    def pop(self) -> Microframe:
        frame = super().pop()
        self._count(frame, -1)
        return frame

    def popleft(self) -> Microframe:
        frame = super().popleft()
        self._count(frame, -1)
        return frame

    def __delitem__(self, index: int) -> None:
        self._count(self[index], -1)
        super().__delitem__(index)

    def clear(self) -> None:
        super().clear()
        self.critical = self.hinted = 0


def pop_frame(queue: FrameQueue, policy: str,
              use_hints: bool) -> Microframe:
    """Take the next frame for *local* consumption.

    ``priority`` policy (and ``use_hints`` under any policy) prefers frames
    the CDAG marked critical / high priority (§3.3 scheduling hints).
    """
    if not queue:
        raise SchedulingError("pop from empty frame queue")
    if policy == "priority" or (use_hints and queue.hinted):
        best_index = 0
        best_key = _hint_key(queue[0])
        for index in range(1, len(queue)):
            key = _hint_key(queue[index])
            if key > best_key:
                best_key = key
                best_index = index
        frame = queue[best_index]
        del queue[best_index]
        return frame
    if policy == "lifo":
        return queue.pop()
    if policy == "fifo":
        return queue.popleft()
    raise SchedulingError(f"unknown local policy {policy!r}")


def take_for_help(queue: FrameQueue, policy: str) -> Microframe:
    """Take a frame to give away on a help request (LIFO per the paper)."""
    if not queue:
        raise SchedulingError("take_for_help from empty queue")
    if policy == "lifo":
        return queue.pop()
    if policy == "fifo":
        return queue.popleft()
    raise SchedulingError(f"unknown help reply policy {policy!r}")


def take_batch_for_help(queue: FrameQueue, policy: str,
                        count: int) -> list:
    """Take up to ``count`` frames to give away in one batched HELP_REPLY
    (steal-half: the caller sizes ``count`` from its spare depth)."""
    if count < 1:
        raise SchedulingError("take_batch_for_help needs count >= 1")
    out = []
    while queue and len(out) < count:
        out.append(take_for_help(queue, policy))
    return out


def take_push_batch(queue: FrameQueue, policy: str,
                    count: int) -> list:
    """Take up to ``count`` *non-critical* frames for a proactive push.

    Critical-path frames stay local: the hints machinery pulls them
    through the fast path here, and shipping them would put the program's
    spine behind a network hop.
    """
    if count < 1:
        raise SchedulingError("take_push_batch needs count >= 1")
    taken: list = []
    kept: list = []
    while queue and len(taken) < count:
        frame = take_for_help(queue, policy)
        if frame.critical:
            kept.append(frame)
        else:
            taken.append(frame)
    if policy == "lifo":
        queue.extend(reversed(kept))
    else:
        for frame in reversed(kept):
            queue.appendleft(frame)
    return taken


#: Knuth multiplicative-hash constant for replicate selection
_REPLICATE_HASH = 2654435761


def replicate_chosen(frame_key: int, frac: float) -> bool:
    """Decide whether one microthread execution is replicated (the
    silent-data-corruption defense, ``SchedulingConfig.replicate_frac``).

    Selection is a deterministic hash of the frame's packed address, not
    an RNG draw: the same frame makes the same choice on every site,
    every retry, and every replay — and ``frac=0.0`` consumes zero
    randomness, keeping replication-off runs bit-identical.
    """
    if frac <= 0.0:
        return False
    if frac >= 1.0:
        return True
    hashed = (frame_key * _REPLICATE_HASH) & 0xFFFFFFFF
    return hashed < frac * 4294967296.0


def _hint_key(frame: Microframe) -> tuple:
    # critical-path frames first, then higher priority, then older frames
    return (1 if frame.critical else 0, frame.priority, -frame.created_at)
