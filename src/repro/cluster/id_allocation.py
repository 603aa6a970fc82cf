"""Logical site id allocation strategies.

Paper §4 discusses three concepts for creating unique logical ids:

1. **central** — "a central contact site can be created, which will then
   always be asked for new ids" (with the noted central-point-of-failure
   drawback);
2. **contingent** — "provide several site id servers, which are given a
   contingent of free ids during their own sign on procedure";
3. **modulo** — "define a fixed number of site id servers and let them emit
   any multiple of their own id (like a modulo function)".

Each allocator answers two questions for its local cluster manager: *can I
assign an id right now?* and *which id?*  A site that cannot allocate
locally forwards the sign-on to one that can.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.errors import ClusterError

#: residue-class stride for the modulo strategy — the "fixed number of site
#: id servers" the paper mentions
MODULO_STRIDE = 64
#: size of the id block handed to each contingent server (read when a
#: cluster manager builds its allocator)
CONTINGENT_SIZE = 4


class IdAllocator(abc.ABC):
    """Strategy interface used by the cluster manager."""

    @abc.abstractmethod
    def can_allocate(self) -> bool:
        """True if this site can hand out an id without asking anybody."""

    @abc.abstractmethod
    def allocate(self) -> int:
        """Produce a fresh logical id.  Raises ClusterError if exhausted."""

    def bootstrap_id(self) -> int:
        """Id taken by the very first site of a cluster."""
        return 0

    def note_seen(self, logical: int) -> None:
        """Observe an id in use somewhere (keeps allocators ahead of it)."""


class CentralAllocator(IdAllocator):
    """Only the contact site (logical id 0) allocates; monotone counter."""

    def __init__(self, local_id: Optional[int] = None) -> None:
        self._local_id = local_id
        self._next = 1

    def set_local_id(self, local_id: int) -> None:
        self._local_id = local_id

    def can_allocate(self) -> bool:
        return self._local_id == 0

    def allocate(self) -> int:
        if not self.can_allocate():
            raise ClusterError(
                "central strategy: only site 0 allocates logical ids")
        value = self._next
        self._next += 1
        return value

    def note_seen(self, logical: int) -> None:
        if logical >= self._next:
            self._next = logical + 1


class ContingentAllocator(IdAllocator):
    """Every site holds a block of free ids granted at its own sign-on."""

    def __init__(self, block_size: int = CONTINGENT_SIZE) -> None:
        if block_size < 1:
            raise ClusterError("contingent block size must be >= 1")
        self.block_size = block_size
        self._low = 0
        self._high = 0  # exclusive; empty until a block is granted

    # the site that bootstraps the cluster owns the id space and grants
    # blocks; it keeps a cursor of the next unallocated block
    def init_as_root(self) -> None:
        self._low, self._high = 1, 1 + self.block_size
        self._grant_cursor = 1 + self.block_size

    def grant_block(self) -> tuple:
        """(root only) carve a fresh block for a signing-on site."""
        if not hasattr(self, "_grant_cursor"):
            raise ClusterError("grant_block on a non-root contingent allocator")
        low = self._grant_cursor
        self._grant_cursor += self.block_size
        return (low, low + self.block_size)

    def receive_block(self, low: int, high: int) -> None:
        if high <= low:
            raise ClusterError(f"empty id block [{low}, {high})")
        self._low, self._high = low, high

    def can_allocate(self) -> bool:
        return self._low < self._high

    def allocate(self) -> int:
        if not self.can_allocate():
            raise ClusterError("contingent exhausted; request a new block")
        value = self._low
        self._low += 1
        return value

    @property
    def remaining(self) -> int:
        return max(0, self._high - self._low)


class ModuloAllocator(IdAllocator):
    """Site ``s`` emits ids ``s + k * MODULO_STRIDE`` for k = 1, 2, ...

    Uniqueness holds as long as every allocating site has a distinct id
    below the stride — which the paper's "fixed number of site id servers"
    assumption guarantees.
    """

    def __init__(self, local_id: Optional[int] = None) -> None:
        self._local_id = local_id
        self._k = 0

    def set_local_id(self, local_id: int) -> None:
        self._local_id = local_id

    def can_allocate(self) -> bool:
        return (self._local_id is not None
                and 0 <= self._local_id < MODULO_STRIDE)

    def allocate(self) -> int:
        if not self.can_allocate():
            raise ClusterError(
                f"site {self._local_id} is not an id server "
                f"(ids >= stride {MODULO_STRIDE} cannot emit)")
        self._k += 1
        return self._local_id + self._k * MODULO_STRIDE

    def note_seen(self, logical: int) -> None:
        if (self._local_id is not None
                and logical % MODULO_STRIDE
                == self._local_id % MODULO_STRIDE):
            k = (logical - self._local_id) // MODULO_STRIDE
            if k > self._k:
                self._k = k


def make_allocator(strategy: str) -> IdAllocator:
    if strategy == "central":
        return CentralAllocator()
    if strategy == "contingent":
        return ContingentAllocator(CONTINGENT_SIZE)
    if strategy == "modulo":
        return ModuloAllocator()
    raise ClusterError(f"unknown id allocation strategy {strategy!r}")
