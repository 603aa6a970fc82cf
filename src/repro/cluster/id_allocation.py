"""Logical site id allocation strategies.

Paper §4 discusses three concepts for creating unique logical ids:

1. **central** — "a central contact site can be created, which will then
   always be asked for new ids" (with the noted central-point-of-failure
   drawback);
2. **contingent** — "provide several site id servers, which are given a
   contingent of free ids during their own sign on procedure";
3. **modulo** — "define a fixed number of site id servers and let them emit
   any multiple of their own id (like a modulo function)".

The whole decision lives here.  The cluster manager asks its allocator
four things and never which strategy it holds: :meth:`~IdAllocator.adopt`
the site's own id (and the block its SIGN_ON_ACK carried),
:meth:`~IdAllocator.allocate` an id for a joiner (None: forward the
sign-on), :meth:`~IdAllocator.server` to forward it to, and
:meth:`~IdAllocator.grant` the block a joiner's SIGN_ON_ACK carries.  The
very first site of a cluster takes id 0.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.common.errors import ClusterError

#: residue-class stride for the modulo strategy — the "fixed number of site
#: id servers" the paper mentions
MODULO_STRIDE = 64
#: size of the id block handed to each contingent server (read when a
#: cluster manager builds its allocator)
CONTINGENT_SIZE = 4


class IdAllocator(abc.ABC):
    """Strategy interface used by the cluster manager."""

    #: this site's own id, once adopted
    _local_id: Optional[int] = None

    def adopt(self, local_id: int, block: Optional[Sequence] = None) -> None:
        """Take this site's own id: 0 at bootstrap, else the one its
        SIGN_ON_ACK names, with the id block ``(low, high)`` it granted."""
        self._local_id = local_id

    @abc.abstractmethod
    def allocate(self) -> Optional[int]:
        """A fresh logical id, or None: forward the sign-on to
        :meth:`server`."""

    def server(self, alive_ids: Sequence[int]) -> int:
        """Where a site that cannot allocate forwards a sign-on, given the
        sorted ids of its alive peers: the root."""
        return 0

    def grant(self) -> Optional[tuple]:
        """The id block a served joiner's SIGN_ON_ACK carries, if any."""
        return None

    def note_seen(self, logical: int) -> None:
        """Observe an id in use somewhere (keeps allocators ahead of it)."""


class CentralAllocator(IdAllocator):
    """Only the contact site (logical id 0) allocates; monotone counter."""

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> Optional[int]:
        if self._local_id != 0:
            return None
        value = self._next
        self._next += 1
        return value

    def note_seen(self, logical: int) -> None:
        if logical >= self._next:
            self._next = logical + 1


class ContingentAllocator(IdAllocator):
    """Every site holds a block of free ids granted at its own sign-on.

    The root (id 0) owns the id space: it carves a block for itself and
    one for every joiner it serves, and carves itself a fresh block when
    its own runs out.  Any other site forwards to the root once its block
    is spent.
    """

    def __init__(self, block_size: int = CONTINGENT_SIZE) -> None:
        self.block_size = block_size
        self._low = 0
        self._high = 0  # exclusive; empty until a block is adopted
        #: (root only) the first id no block holds yet
        self._cursor: Optional[int] = None

    def adopt(self, local_id: int, block: Optional[Sequence] = None) -> None:
        super().adopt(local_id)
        if local_id == 0:
            self._cursor = 1
            block = self._carve()
        if block:
            low, high = block
            if high <= low:
                raise ClusterError(f"empty id block [{low}, {high})")
            self._low, self._high = low, high

    def _carve(self) -> tuple:
        low = self._cursor
        self._cursor += self.block_size
        return (low, self._cursor)

    def allocate(self) -> Optional[int]:
        if self._low >= self._high:
            if self._cursor is None:
                return None
            self._low, self._high = self._carve()
        value = self._low
        self._low += 1
        return value

    def grant(self) -> Optional[tuple]:
        return None if self._cursor is None else self._carve()


class ModuloAllocator(IdAllocator):
    """Site ``s`` emits ids ``s + k * MODULO_STRIDE`` for k = 1, 2, ...

    Uniqueness holds as long as every allocating site has a distinct id
    below the stride — which the paper's "fixed number of site id servers"
    assumption guarantees.  A site at or above the stride forwards to the
    lowest alive server.
    """

    def __init__(self) -> None:
        self._k = 0

    def allocate(self) -> Optional[int]:
        if self._local_id is None or self._local_id >= MODULO_STRIDE:
            return None
        self._k += 1
        return self._local_id + self._k * MODULO_STRIDE

    def server(self, alive_ids: Sequence[int]) -> int:
        if alive_ids and alive_ids[0] < MODULO_STRIDE:
            return alive_ids[0]
        return 0

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
