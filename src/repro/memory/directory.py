"""Consistent-hash shard map: the directory of *orphaned* addresses.

A :class:`GlobalAddress` names its homesite, and the homesite (or the
heir that inherited it) is the address's directory for as long as it is
alive — :meth:`ClusterManager.dir_site_for` looks there first and sends
nothing to find it.  This ring is the fallback for an address whose
homesite crashed with no heir: the orphan hashes onto a ring of virtual
points, and the site owning the first point at or after the address hash
is the *directory shard* the cluster asks "who owns this object right
now?".  Consistent hashing keeps that mapping stable under membership
churn: adding or removing one site remaps only the keys whose ring
successor changed (~1/n of them), so rebalancing the orphans after a
join or a further crash is proportional to the churn, never to the
cluster.

Hashing uses crc32 over packed integers — NOT Python's ``hash()``, whose
per-process salting would give every site a different ring.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, insort
from typing import Iterable, List, Optional, Set, Tuple

from repro.common.ids import GlobalAddress

#: virtual points per site on the ring — enough to keep shard shares
#: within a few percent of fair up to ~1024 sites while membership
#: updates stay cheap (VNODES inserts/removes per change)
VNODES = 16

_KEY = struct.Struct(">q")
_POINT = struct.Struct(">qi")


def _key_hash(packed: int) -> int:
    return zlib.crc32(_KEY.pack(packed))


def _site_point(site: int, vnode: int) -> int:
    return zlib.crc32(_POINT.pack(site, vnode))


#: ring points are pure functions of (site, vnode), and every site's
#: ShardMap computes the same ones — memoize per process so an n-site
#: join wave costs n·VNODES hashes, not n²·VNODES
_POINT_CACHE: dict = {}


def _site_points(site: int) -> Tuple[int, ...]:
    points = _POINT_CACHE.get(site)
    if points is None:
        points = tuple(_site_point(site, vnode) for vnode in range(VNODES))
        _POINT_CACHE[site] = points
    return points


class ShardMap:
    """A consistent-hash ring over the alive cluster membership.

    Ring maintenance is batched: :meth:`add_site` only queues the site,
    and the sorted ring is (re)built lazily at the next lookup.  A join
    wave of n sites with no interleaved lookups therefore costs one
    O(n·VNODES·log) sort instead of n·VNODES insorts into an
    ever-growing list (O(n²·VNODES) memmoves — the profiled top cost of
    1024-site cluster formation).  Steady-state churn (one join between
    lookups) keeps the old insort path, which is cheaper than a rebuild.
    """

    __slots__ = ("_ring", "_members", "_pending")

    def __init__(self, sites: Iterable[int] = ()) -> None:
        #: sorted ring of (point hash, site id); ties break on site id,
        #: which is deterministic across every site's view
        self._ring: List[Tuple[int, int]] = []
        self._members: Set[int] = set()
        #: members queued by add_site but not yet folded into the ring
        self._pending: Set[int] = set()
        for site in sites:
            self.add_site(site)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, site: int) -> bool:
        return site in self._members

    def members(self) -> Set[int]:
        return set(self._members)

    def add_site(self, site: int) -> None:
        if site in self._members:
            return
        self._members.add(site)
        self._pending.add(site)

    def remove_site(self, site: int) -> None:
        if site not in self._members:
            return
        self._members.discard(site)
        if site in self._pending:
            self._pending.discard(site)
        else:
            self._ring = [point for point in self._ring if point[1] != site]

    def _flush_pending(self) -> None:
        pending = self._pending
        self._pending = set()
        if len(pending) <= 2:
            # steady-state churn: a couple of insorts beat a full sort
            for site in pending:
                for point in _site_points(site):
                    insort(self._ring, (point, site))
            return
        self._ring.extend((point, site) for site in sorted(pending)
                          for point in _site_points(site))
        self._ring.sort()

    def shard_for(self, addr: GlobalAddress) -> Optional[int]:
        return self.shard_for_packed(addr.pack())

    def shard_for_packed(self, packed: int) -> Optional[int]:
        if self._pending:
            self._flush_pending()
        ring = self._ring
        if not ring:
            return None
        index = bisect_left(ring, (_key_hash(packed), -1))
        if index >= len(ring):
            index = 0  # wrap past the highest point
        return ring[index][1]
