"""Load reports go out on news or at the refresh rate, not on a clock.

One *reporter* site has its load figure pinned by the test, so every
LOAD_REPORT it sends is caused by the rule under test and not by a
program's queue moving.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import build_treesum_program, treesum_expected
from repro.bench import bench_config
from repro.bench.harness import run_primes, run_treesum
from repro.chaos import journal_fingerprint
from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage
from repro.site.simcluster import SimCluster

INTERVAL = 1e-3
STALENESS = 2e-2
REFRESH = STALENESS / 2
#: a report's way over the simulated wire, with room to spare
WIRE = 1e-3


def gossip_config():
    base = bench_config()
    return base.with_(scheduling=replace(
        base.scheduling, gossip_interval=INTERVAL,
        gossip_staleness=STALENESS))


class Reporter:
    """Site 0 of a formed cluster, with a pinned figure and a send log."""

    def __init__(self, nsites: int) -> None:
        self.cluster = SimCluster(nsites=nsites, config=gossip_config())
        self.sim = self.cluster.sim
        while any(len(s.cluster_manager.sites) < nsites
                  for s in self.cluster.sites):
            self.run(1e-3)
        self.site = self.cluster.sites[0]
        self.peers = self.cluster.sites[1:]
        self.figure = (1.0, 0.0)
        self.site.site_manager.current_load = lambda: self.figure[0]
        self.site.scheduling_manager.stealable_depth = (
            lambda: int(self.figure[1]))
        # the tick reports only while a program is active
        self.site.program_manager.has_active_programs = lambda: True
        #: (time, peer, payload) of every LOAD_REPORT the reporter sent
        self.reports = []
        mm = self.site.message_manager
        send = mm.send

        def logged_send(msg):
            if msg.type == MsgType.LOAD_REPORT:
                self.reports.append((self.sim.now, msg.dst_site,
                                     msg.payload))
            return send(msg)
        mm.send = logged_send

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def settle(self) -> None:
        """Run until every peer holds the current figure."""
        self.run(len(self.peers) * INTERVAL + WIRE)
        assert all(self.view(peer) == self.figure for peer in self.peers)
        self.reports.clear()

    def view(self, peer):
        record = peer.cluster_manager.sites[self.site.site_id]
        return (record.load, record.queue)

    def reports_to(self, peer):
        return [row for row in self.reports if row[1] == peer.site_id]


class TestNewsOrRefresh:
    def test_steady_site_sends_at_the_refresh_rate(self):
        rep = Reporter(nsites=4)
        rep.settle()
        window = 20 * REFRESH
        rep.run(window)
        for peer in rep.peers:
            count = len(rep.reports_to(peer))
            # a fixed-rate heartbeat would have sent window / INTERVAL
            assert window / REFRESH - 1 <= count <= window / REFRESH + 1
        stats = rep.site.scheduling_manager.stats
        assert stats.get("gossip_suppressed").total > (
            5 * stats.get("gossip_sent").count)

    def test_change_reaches_every_peer_within_the_fanout_rotation(self):
        rep = Reporter(nsites=8)
        rep.settle()
        rep.figure = (3.0, 2.0)
        fanout = rep.cluster.config.cluster.gossip_fanout
        rep.run(INTERVAL + WIRE)
        assert sum(rep.view(p) == rep.figure for p in rep.peers) >= fanout
        rounds = -(-len(rep.peers) // fanout)
        rep.run((rounds - 1) * INTERVAL)
        assert all(rep.view(p) == rep.figure for p in rep.peers)
        # and nobody was told twice
        assert len(rep.reports) == len(rep.peers)

    def test_figure_piggybacked_between_ticks_is_reported_over(self):
        """f1 gossiped, f2 rides on ordinary traffic, back to f1 by the
        next tick: a record of LOAD_REPORTs alone would see no news."""
        rep = Reporter(nsites=4)
        rep.settle()
        rep.run(INTERVAL / 2)  # between two ticks
        f1, peer = rep.figure, rep.peers[0]
        rep.figure = (5.0, 4.0)
        rep.site.message_manager.send(SDMessage(
            type=MsgType.HEARTBEAT,
            src_site=rep.site.site_id, src_manager=ManagerId.CLUSTER,
            dst_site=peer.site_id, dst_manager=ManagerId.CLUSTER,
            payload={"load": 5.0, "queue": 4.0}))
        rep.figure = f1
        held = set()
        for _ in range(40):
            rep.run((INTERVAL + WIRE) / 20)
            held.add(rep.view(peer))
        assert (5.0, 4.0) in held
        assert rep.view(peer) == f1
        assert [row[1] for row in rep.reports] == [peer.site_id]

    def test_push_receipt_is_reported_over(self):
        """A pusher raises its own record of the target (note_pushed), so
        the target must tell it the real figure again."""
        rep = Reporter(nsites=4)
        rep.settle()
        pusher = rep.peers[1]
        pusher.cluster_manager.note_pushed(rep.site.site_id, 2)
        pusher.message_manager.send(SDMessage(
            type=MsgType.FRAME_TRANSFER,
            src_site=pusher.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=rep.site.site_id,
            dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"frames": []}))
        assert rep.view(pusher) != rep.figure
        rep.run(2 * WIRE + INTERVAL)
        assert rep.view(pusher) == rep.figure
        assert [row[1] for row in rep.reports] == [pusher.site_id]

    def test_dropped_report_heals_within_half_the_staleness(self):
        class DropLink:
            """What a chaos LinkFault with drop=1 does to one link."""
            corrupts_wire = False

            def __init__(self, src, dst):
                self.link = (src, dst)

            def filter_send(self, src, dst):
                return [] if (src, dst) == self.link else None

        rep = Reporter(nsites=4)
        rep.settle()
        old, victim = rep.figure, rep.peers[2]
        network = rep.cluster.network
        network.chaos = DropLink(int(rep.site.kernel.local_physical()),
                                 int(victim.kernel.local_physical()))
        rep.figure = (2.0, 1.0)
        rep.run(len(rep.peers) * INTERVAL + WIRE)
        network.chaos = None
        assert network.stats.get("chaos_dropped").count == 1
        assert rep.view(victim) == old
        # the reporter believes the victim was told: nothing but the
        # refresh will tell it again
        rep.run(REFRESH / 2)
        assert rep.view(victim) == old
        rep.run(REFRESH / 2 + INTERVAL + WIRE)
        assert rep.view(victim) == rep.figure

    def test_reports_with_rumors_are_never_suppressed(self):
        rep = Reporter(nsites=20)  # past the 16-peer sample window
        rep.settle()
        cm = rep.site.cluster_manager
        fanout = rep.cluster.config.cluster.gossip_fanout
        ticks = 40
        for _ in range(ticks):
            # keep one rumor fresh; reports to its subject carry none
            cm.note_load(5, 6.0, queue=6.0)
            rep.run(INTERVAL)
        relayed = [row for row in rep.reports if "hot" in row[2]]
        assert len(relayed) >= (ticks - 1) * (fanout - 1)
        assert all(row[1] != 5 for row in relayed)


class TestToldRecord:
    def test_record_is_bounded_by_traffic_not_membership(self):
        """On 64 sites every entry is younger than the refresh horizon
        while the program runs, and the record drains once it is over."""
        base = bench_config()
        config = base.with_(scheduling=replace(
            base.scheduling, gossip_interval=1e-2, gossip_staleness=5e-2))
        cluster = SimCluster(nsites=64, config=config)
        horizon = 5e-2 / 2 + 1e-2  # refresh, plus one tick between prunes
        sizes = []

        def sample():
            now = cluster.sim.now
            for site in cluster.sites:
                told = site.message_manager._told
                assert all(now - at <= horizon
                           for _l, _q, at in told.values())
                sizes.append(len(told))
            if not handle.done:
                cluster.sim.schedule(5e-3, sample)

        handle = cluster.submit(build_treesum_program(),
                                args=(1024, 16000.0))
        cluster.sim.schedule(0.1, sample)
        cluster.run(progress_timeout=600.0)
        assert handle.result == treesum_expected(1024)
        # a plain per-peer dict fills up to all 63 peers on every site:
        # the gossip ring alone gets round in 21 ticks
        assert sizes and sum(sizes) / len(sizes) < 63 / 3
        cluster.sim.run(until=cluster.sim.now + 2 * horizon)
        assert not any(site.message_manager._told
                       for site in cluster.sites)

    def test_gossip_off_keeps_no_record(self):
        config = bench_config()
        config = config.with_(scheduling=replace(config.scheduling,
                                                 gossip_interval=0.0))
        _duration, cluster = run_primes(10, 4, 4, 400.0, 4000.0,
                                        config=config)
        assert cluster.total_stats().get("sent").count > 0
        assert not any(site.message_manager._told
                       for site in cluster.sites)

    def test_departed_peer_is_forgotten(self):
        rep = Reporter(nsites=4)
        rep.settle()
        gone = rep.peers[0].site_id
        mm = rep.site.message_manager
        assert mm.peer_holds(gone, *rep.figure)
        rep.site.cluster_manager.mark_dead(gone, left=False)
        assert not mm.peer_holds(gone, *rep.figure)


def test_same_seed_twice_is_bit_identical():
    def once():
        duration, cluster = run_primes(25, 6, 8, 400.0, 4000.0,
                                       config=bench_config(trace=True))
        stats = cluster.total_stats()
        return (journal_fingerprint(cluster.tracer), duration,
                stats.get("gossip_sent").count,
                stats.get("gossip_suppressed").total)

    first = once()
    assert first == once()
    assert first[3] > 0


def test_suppression_rate_is_reported():
    _duration, cluster = run_treesum(64, 16000.0, 4)
    report = cluster.cluster_report()
    sent = report.derived["gossip_sent"]
    suppressed = report.derived["gossip_suppressed"]
    assert suppressed > 0
    assert report.derived["gossip_suppression_rate"] == pytest.approx(
        suppressed / (sent + suppressed))
    assert "gossip_suppression_rate" in report.render()
