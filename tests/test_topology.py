"""Tests for network topologies and routing latency."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.net.topology import Topology


class TestFactories:
    def test_full_mesh_direct(self):
        topo = Topology.full_mesh(4, latency=1e-3)
        assert topo.path_latency(0, 3) == pytest.approx(1e-3)

    def test_switched_lan_two_hops(self):
        topo = Topology.switched_lan(4, latency=1e-3)
        assert topo.path_latency(0, 3) == pytest.approx(2e-3)

    def test_star_routes_through_hub(self):
        topo = Topology.star(5, latency=1e-3)
        assert topo.path_latency(1, 4) == pytest.approx(2e-3)
        assert topo.path_latency(0, 4) == pytest.approx(1e-3)

    def test_ring_shortest_way_around(self):
        topo = Topology.ring(6, latency=1.0)
        assert topo.path_latency(0, 1) == pytest.approx(1.0)
        assert topo.path_latency(0, 3) == pytest.approx(3.0)
        assert topo.path_latency(0, 5) == pytest.approx(1.0)

    def test_line_additive(self):
        topo = Topology.line(5, latency=1.0)
        assert topo.path_latency(0, 4) == pytest.approx(4.0)

    def test_wan_coupled_asymmetry(self):
        topo = Topology.wan_coupled(2, 2, lan_latency=1e-4,
                                    wan_latency=1e-2)
        local = topo.path_latency(0, 1)
        remote = topo.path_latency(0, 2)
        assert local == pytest.approx(2e-4)
        assert remote == pytest.approx(2e-4 + 1e-2)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            Topology.ring(1)
        with pytest.raises(ConfigError):
            Topology.star(0)


class TestMutation:
    def test_self_latency_zero(self):
        topo = Topology.full_mesh(3)
        assert topo.path_latency(1, 1) == 0.0

    def test_unreachable_is_inf(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        assert topo.path_latency(0, 1) == float("inf")

    def test_cache_invalidated_on_new_link(self):
        topo = Topology.line(3, latency=1.0)
        assert topo.path_latency(0, 2) == pytest.approx(2.0)
        topo.add_link(0, 2, 0.5)
        assert topo.path_latency(0, 2) == pytest.approx(0.5)

    def test_negative_latency_rejected(self):
        topo = Topology()
        with pytest.raises(ConfigError):
            topo.add_link(0, 1, -1.0)

    def test_self_link_rejected(self):
        topo = Topology()
        with pytest.raises(ConfigError):
            topo.add_link(0, 0, 1.0)


def test_against_networkx_reference():
    """Cross-check Dijkstra against networkx on a random graph."""
    import networkx as nx
    import random

    rng = random.Random(42)
    topo = Topology()
    graph = nx.Graph()
    nodes = list(range(12))
    for node in nodes:
        topo.add_node(node)
        graph.add_node(node)
    for _ in range(30):
        a, b = rng.sample(nodes, 2)
        w = rng.uniform(0.1, 2.0)
        topo.add_link(a, b, w)
        graph.add_edge(a, b, weight=w)
    for src in nodes:
        lengths = nx.single_source_dijkstra_path_length(graph, src)
        for dst in nodes:
            expected = lengths.get(dst, float("inf"))
            assert topo.path_latency(src, dst) == pytest.approx(expected)
