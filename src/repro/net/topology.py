"""Cluster network topologies.

"any network topology between them is supported" (paper abstract) — the
simulated network routes over an explicit weighted graph, so stars, rings,
switched LANs, and WAN-coupled sub-clusters all work.  Internal nodes
(switches, routers) use negative ids; site attachment points are the
non-negative physical addresses.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.common.errors import ConfigError


class Topology:
    """An undirected weighted graph with cached all-pairs path latency."""

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, float]] = {}
        self._cache: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})
        self._cache.clear()

    def add_link(self, a: int, b: int, latency: float) -> None:
        """Add (or update) a bidirectional link with one-way ``latency``."""
        if latency < 0:
            raise ConfigError(f"link latency must be >= 0, got {latency}")
        if a == b:
            raise ConfigError("self-links are not allowed")
        self._adj.setdefault(a, {})[b] = latency
        self._adj.setdefault(b, {})[a] = latency
        self._cache.clear()

    # ------------------------------------------------------------------
    def nodes(self) -> Iterable[int]:
        return self._adj.keys()

    def path_latency(self, src: int, dst: int) -> float:
        """One-way latency along the cheapest path, or ``inf`` if unreachable."""
        if src == dst:
            return 0.0
        cached = self._cache.get(src)
        if cached is None:
            cached = self._dijkstra(src)
            self._cache[src] = cached
        return cached.get(dst, float("inf"))

    def _dijkstra(self, src: int) -> Dict[int, float]:
        dist: Dict[int, float] = {src: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for neigh, weight in self._adj.get(node, {}).items():
                nd = d + weight
                if nd < dist.get(neigh, float("inf")):
                    dist[neigh] = nd
                    heapq.heappush(heap, (nd, neigh))
        return dist

    # ------------------------------------------------------------------
    # factories

    @classmethod
    def full_mesh(cls, n: int, latency: float = 120e-6) -> "Topology":
        """Every site directly connected to every other (default LAN model)."""
        topo = cls()
        for i in range(n):
            topo.add_node(i)
        for i in range(n):
            for j in range(i + 1, n):
                topo.add_link(i, j, latency)
        return topo

    @classmethod
    def switched_lan(cls, n: int, latency: float = 60e-6) -> "Topology":
        """Sites hang off one switch (node -1); pairwise latency 2x link."""
        topo = cls()
        topo.add_node(-1)
        for i in range(n):
            topo.add_link(i, -1, latency)
        return topo

    @classmethod
    def star(cls, n: int, latency: float = 120e-6) -> "Topology":
        """Site 0 is the hub; all traffic between leaves crosses it."""
        if n < 1:
            raise ConfigError("star needs at least one site")
        topo = cls()
        topo.add_node(0)
        for i in range(1, n):
            topo.add_link(0, i, latency)
        return topo

    @classmethod
    def ring(cls, n: int, latency: float = 120e-6) -> "Topology":
        if n < 2:
            raise ConfigError("ring needs at least two sites")
        topo = cls()
        for i in range(n):
            topo.add_link(i, (i + 1) % n, latency)
        return topo

    @classmethod
    def line(cls, n: int, latency: float = 120e-6) -> "Topology":
        if n < 1:
            raise ConfigError("line needs at least one site")
        topo = cls()
        topo.add_node(0)
        for i in range(1, n):
            topo.add_link(i - 1, i, latency)
        return topo

    @classmethod
    def wan_coupled(cls, left: int, right: int,
                    lan_latency: float = 60e-6,
                    wan_latency: float = 20e-3) -> "Topology":
        """Two switched LANs joined by a slow WAN link (the paper's
        "clusters with separated sites like the internet", §2.1)."""
        topo = cls()
        topo.add_node(-1)
        topo.add_node(-2)
        for i in range(left):
            topo.add_link(i, -1, lan_latency)
        for i in range(left, left + right):
            topo.add_link(i, -2, lan_latency)
        topo.add_link(-1, -2, wan_latency)
        return topo
