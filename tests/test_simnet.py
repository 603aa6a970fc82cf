"""Tests for the simulated network and its transport cost models."""

from __future__ import annotations

import pytest

from repro.common.config import NetworkConfig
from repro.common.errors import AddressError
from repro.net.simnet import SimNetwork
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def make_net(sim, **kwargs):
    return SimNetwork(sim, NetworkConfig(**kwargs))


class TestDelivery:
    def test_basic_delivery(self, sim):
        net = make_net(sim)
        got = []
        net.attach(0, got.append)
        net.attach(1, got.append)
        assert net.send(0, 1, b"hello")
        sim.run()
        assert got == [b"hello"]

    def test_delivery_delay_includes_size(self, sim):
        net = make_net(sim, latency=1e-3, bandwidth=1e6,
                       transport="ttcp", ttcp_transaction_cost=0.0)
        arrivals = []
        net.attach(0, lambda d: None)
        net.attach(1, lambda d: arrivals.append(sim.now))
        net.send(0, 1, b"x" * 1000)  # 1 ms serialization at 1 MB/s
        sim.run()
        assert arrivals[0] == pytest.approx(2e-3)

    def test_fifo_between_pair(self, sim):
        net = make_net(sim)
        got = []
        net.attach(0, lambda d: None)
        net.attach(1, got.append)
        for i in range(5):
            net.send(0, 1, bytes([i]))
        sim.run()
        assert got == [bytes([i]) for i in range(5)]

    def test_send_to_detached_swallowed(self, sim):
        net = make_net(sim)
        net.attach(0, lambda d: None)
        net.attach(1, lambda d: pytest.fail("should not deliver"))
        net.detach(1)
        assert net.send(0, 1, b"x")  # sender cannot tell
        sim.run()
        assert net.stats.get("dropped_dead_dst").count == 1

    def test_double_attach_rejected(self, sim):
        net = make_net(sim)
        net.attach(0, lambda d: None)
        with pytest.raises(AddressError):
            net.attach(0, lambda d: None)

    def test_negative_address_rejected(self, sim):
        net = make_net(sim)
        with pytest.raises(AddressError):
            net.attach(-1, lambda d: None)


class TestTransportModels:
    def test_tcp_handshake_overhead(self, sim):
        tcp = make_net(sim, transport="tcp", tcp_handshake_cost=1e-3,
                       tcp_connection_reuse=0.0)
        ttcp = make_net(sim, transport="ttcp", ttcp_transaction_cost=0.0)
        assert (tcp.transit_delay(0, 1, 100)
                > ttcp.transit_delay(0, 1, 100))

    def test_connection_reuse_amortizes(self, sim):
        cold = make_net(sim, transport="tcp", tcp_connection_reuse=0.0)
        warm = make_net(sim, transport="tcp", tcp_connection_reuse=0.9)
        assert warm.transit_delay(0, 1, 100) < cold.transit_delay(0, 1, 100)

    def test_udp_loses_messages(self):
        sim = Simulator(seed=1)
        net = make_net(sim, transport="udp", udp_loss_rate=0.5,
                       udp_reorder_rate=0.0)
        got = []
        net.attach(0, lambda d: None)
        net.attach(1, got.append)
        for i in range(200):
            net.send(0, 1, bytes([i % 256]))
        sim.run()
        lost = net.stats.get("udp_lost").count
        assert 60 < lost < 140  # ~50% of 200
        assert len(got) == 200 - lost

    def test_udp_reorders_messages(self):
        sim = Simulator(seed=2)
        net = make_net(sim, transport="udp", udp_loss_rate=0.0,
                       udp_reorder_rate=0.5)
        got = []
        net.attach(0, lambda d: None)
        net.attach(1, got.append)
        for i in range(100):
            net.send(0, 1, bytes([i]))
        sim.run()
        assert len(got) == 100
        assert got != sorted(got)  # out of order
        assert net.stats.get("udp_reordered").count > 20

    def test_tcp_never_loses_or_reorders(self):
        sim = Simulator(seed=3)
        net = make_net(sim, transport="tcp")
        got = []
        net.attach(0, lambda d: None)
        net.attach(1, got.append)
        for i in range(100):
            net.send(0, 1, bytes([i]))
        sim.run()
        assert got == [bytes([i]) for i in range(100)]


class TestTopologyRouting:
    def test_unroutable_returns_false(self, sim):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        net = SimNetwork(sim, NetworkConfig(), topo)
        net.attach(0, lambda d: None)
        net.attach(1, lambda d: None)
        assert not net.send(0, 1, b"x")

    def test_wan_slower_than_lan(self, sim):
        topo = Topology.wan_coupled(2, 2)
        net = SimNetwork(sim, NetworkConfig(), topo)
        assert net.transit_delay(0, 2, 10) > net.transit_delay(0, 1, 10)

    def test_late_joiner_gets_anchored(self, sim):
        topo = Topology.full_mesh(2)
        net = SimNetwork(sim, NetworkConfig(), topo)
        net.attach(0, lambda d: None)
        net.attach(1, lambda d: None)
        got = []
        net.attach(7, got.append)  # address not in original topology
        assert net.send(0, 7, b"hi")
        sim.run()
        assert got == [b"hi"]
