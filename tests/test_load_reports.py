"""Load reports follow conversations.

A site corrects the stealable-queue figure of the peers it has lately sent
a message to, and of nobody else, and only when the figure changed.  One
*reporter* site has its figure pinned by the test, so every LOAD_REPORT it
sends is caused by the rule under test and not by a program's queue
moving.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.apps import (build_primes_program, build_treesum_program,
                        first_n_primes, treesum_expected)
from repro.bench import bench_config
from repro.bench.harness import run_primes, run_treesum
from repro.chaos import journal_fingerprint
from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage
from repro.sched.manager import GOSSIP_FANOUT, SchedulingManager
from repro.site.simcluster import SimCluster

INTERVAL = 1e-3
STALENESS = 2e-2
#: a conversation closes this long after the last message
CONVERSATION = STALENESS / 2
#: a report's way over the simulated wire, with room to spare
WIRE = 1e-3


def gossip_config():
    base = bench_config()
    return base.with_(scheduling=replace(
        base.scheduling, gossip_interval=INTERVAL,
        gossip_staleness=STALENESS))


def flush_instants(until: float, start: float = 0.0):
    """The instants a periodic tick started at ``start`` would have fired
    at: ``start + INTERVAL``, then ``INTERVAL`` added up one at a time."""
    at, instants = start + INTERVAL, []
    while at <= until:
        instants.append(at)
        at += INTERVAL
    return instants


def scheduler_events(sim):
    """Record every event the sim runs on behalf of a scheduling
    manager (the gossip flush, the help retry)."""
    seen = []

    def hook(event):
        if isinstance(getattr(event.fn, "__self__", None),
                      SchedulingManager):
            seen.append((event.time, event.fn.__name__))
    sim.trace_hook = hook
    return seen


class Reporter:
    """Site 0 of a formed cluster (it started at 0.0), with a pinned
    figure, a send log, and no conversation open."""

    def __init__(self, nsites: int) -> None:
        self.cluster = SimCluster(nsites=nsites, config=gossip_config())
        self.sim = self.cluster.sim
        while any(len(s.cluster_manager.sites) < nsites
                  for s in self.cluster.sites):
            self.run(1e-3)
        self.site = self.cluster.sites[0]
        self.peers = self.cluster.sites[1:]
        self.figure = (1, 0)
        self.site.site_manager.current_load = lambda: self.figure[0]
        self.site.scheduling_manager.stealable_depth = (
            lambda: self.figure[1])
        # the tick reports only while a program is active
        self.site.program_manager.has_active_programs = lambda: True
        #: (time, peer) of every LOAD_REPORT the reporter sent
        self.reports = []
        self.mm = self.site.message_manager
        send = self.mm.send

        def logged_send(msg):
            if msg.type == MsgType.LOAD_REPORT:
                self.reports.append((self.sim.now, msg.dst_site))
            return send(msg)
        self.mm.send = logged_send
        # the join wave was a conversation with everyone: let it close
        self.run(CONVERSATION + 2 * INTERVAL)
        assert self.all_expired() and not self.reports

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def set_figure(self, load: int, queue: int) -> None:
        """Pin a new figure and arm a flush, as a real queue change does."""
        self.figure = (load, queue)
        self.site.scheduling_manager.arm_gossip()

    def all_expired(self) -> bool:
        """No conversation is open: whatever the record still holds is
        older than a conversation and is pruned, not corrected."""
        now = self.sim.now
        return all(now - at > CONVERSATION
                   for _q, at in self.mm._told.values())

    def talk_to(self, *peers) -> None:
        """Ordinary traffic: any message opens a conversation."""
        for peer in peers:
            self.mm.send(SDMessage(
                type=MsgType.HEARTBEAT,
                src_site=self.site.site_id, src_manager=ManagerId.CLUSTER,
                dst_site=peer.site_id, dst_manager=ManagerId.CLUSTER))

    def view(self, peer):
        record = peer.cluster_manager.sites[self.site.site_id]
        return (record.load, record.queue)

    def reported_to(self):
        return [peer for _at, peer in self.reports]


class TestConversationScope:
    def test_a_stranger_never_gets_a_report(self):
        rep = Reporter(nsites=4)
        partner = rep.peers[0]
        rep.talk_to(partner)
        for queue in (3, 0, 5, 1):
            rep.set_figure(queue + 1, queue)
            rep.run(2 * INTERVAL)
        assert len(rep.reports) == 4
        assert set(rep.reported_to()) == {partner.site_id}

    def test_partners_are_corrected_once_oldest_first_under_the_cap(self):
        rep = Reporter(nsites=8)
        rep.talk_to(*rep.peers)
        rep.set_figure(3, 2)
        fanout = GOSSIP_FANOUT
        rep.run(INTERVAL + WIRE)
        assert sum(rep.view(p) == rep.figure for p in rep.peers) >= fanout
        rounds = -(-len(rep.peers) // fanout)
        rep.run((rounds - 1) * INTERVAL)
        assert all(rep.view(p) == rep.figure for p in rep.peers)
        # longest-silent first, at most the fanout per flush...
        assert rep.reported_to() == [p.site_id for p in rep.peers]
        ticks = [at for at, _peer in rep.reports]
        assert all(ticks.count(at) <= fanout for at in ticks)
        # ...and nobody is corrected twice for one change
        rep.run(CONVERSATION)
        assert len(rep.reports) == len(rep.peers)

    def test_a_load_only_change_sends_nothing(self):
        rep = Reporter(nsites=4)
        rep.talk_to(*rep.peers)
        rep.set_figure(7, rep.figure[1])
        rep.run(5 * INTERVAL)
        assert rep.reports == []

    def test_figure_piggybacked_between_ticks_is_reported_over(self):
        """f1 told, f2 rides on ordinary traffic, back to f1 by the next
        flush instant (a tick of the old clock): a record of LOAD_REPORTs
        alone would see no news."""
        rep = Reporter(nsites=4)
        peer = rep.peers[0]
        rep.talk_to(peer)
        rep.run(INTERVAL / 2)  # between two flush instants
        f1 = rep.figure
        rep.set_figure(5, 4)
        rep.talk_to(peer)
        rep.set_figure(*f1)
        held = set()
        for _ in range(40):
            rep.run((INTERVAL + WIRE) / 20)
            held.add(rep.view(peer))
        assert (5, 4) in held
        assert rep.view(peer) == f1
        assert rep.reported_to() == [peer.site_id]

    def test_a_refused_thief_hears_the_victims_next_queue_change(self):
        """The CANT_HELP is a message like any other: it subscribes the
        thief, and only the thief, to the victim's next queue change."""
        rep = Reporter(nsites=4)
        thief, bystanders = rep.peers[0], rep.peers[1:]
        sm = thief.scheduling_manager
        rep.run(STALENESS)  # the thief knows nothing fresh: it probes
        for p in bystanders:  # the thief may only pick the reporter
            sm._cooldown[p.site_id] = float("inf")
        sm._send_help()
        rep.run(2 * WIRE)
        victim = rep.site.site_id
        assert sm.stats.get("cant_help_received").count == 1
        assert victim in sm._cooldown
        assert rep.reports == []
        rep.set_figure(4, 3)
        rep.run(INTERVAL + WIRE)
        assert rep.reported_to() == [thief.site_id]
        assert rep.view(thief) == rep.figure
        # first-hand news of work takes the victim off cooldown
        assert victim not in sm._cooldown

    def test_conversation_ends_half_the_staleness_after_the_last_message(
            self):
        rep = Reporter(nsites=4)
        peer = rep.peers[0]
        rep.talk_to(peer)
        rep.run(CONVERSATION - 2 * INTERVAL)
        rep.set_figure(2, 1)
        rep.run(2 * INTERVAL)
        assert rep.reported_to() == [peer.site_id]
        # the correction was a message too: the conversation goes on
        rep.run(CONVERSATION - 3 * INTERVAL)
        rep.set_figure(3, 2)
        rep.run(2 * INTERVAL)
        assert rep.reported_to() == [peer.site_id] * 2
        # silence closes it
        rep.run(CONVERSATION + INTERVAL)
        assert rep.all_expired()
        rep.set_figure(4, 3)
        rep.run(5 * INTERVAL)
        assert len(rep.reports) == 2


class TestInvalidation:
    @staticmethod
    def push_from(pusher, rep):
        pusher.cluster_manager.note_pushed(rep.site.site_id, 2)
        pusher.message_manager.send(SDMessage(
            type=MsgType.FRAME_TRANSFER,
            src_site=pusher.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=rep.site.site_id,
            dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"frames": []}))

    def test_push_receipt_marks_the_pushers_figure_unknown(self):
        """A pusher raises its own record of the target (note_pushed), so
        the target must tell it the real figure again."""
        rep = Reporter(nsites=4)
        pusher = rep.peers[1]
        rep.talk_to(pusher)
        rep.run(WIRE)
        self.push_from(pusher, rep)
        assert rep.view(pusher) != rep.figure
        rep.run(2 * WIRE + INTERVAL)
        assert rep.view(pusher) == rep.figure
        assert rep.reported_to() == [pusher.site_id]

    def test_push_from_a_stranger_opens_no_conversation(self):
        rep = Reporter(nsites=4)
        self.push_from(rep.peers[1], rep)
        rep.run(2 * WIRE + 3 * INTERVAL)
        # the receipt marked an expired entry; the flush it armed pruned it
        assert rep.reports == [] and not rep.mm._told

    def test_rollback_marks_every_partner_and_no_stranger(self):
        rep = Reporter(nsites=6)
        partners = rep.peers[:2]
        rep.talk_to(*partners)
        before = dict(rep.mm._told)
        rep.site.scheduling_manager.reset_for_recovery()
        assert list(rep.mm._told) == list(before)
        assert all(rep.mm._told[p][1] == before[p][1] for p in before)
        rep.run(INTERVAL + WIRE)
        assert rep.reported_to() == [p.site_id for p in partners]

    def test_departure_drops_the_entry(self):
        rep = Reporter(nsites=4)
        rep.talk_to(*rep.peers)
        gone = rep.peers[0].site_id
        rep.site.cluster_manager.mark_dead(gone, left=False)
        assert gone not in rep.mm._told
        rep.set_figure(2, 1)
        rep.run(3 * INTERVAL)
        assert gone not in rep.reported_to()

    def test_dropped_correction_misleads_for_at_most_the_staleness(self):
        class DropLink:
            """What a chaos LinkFault with drop=1 does to one link."""
            corrupts_wire = False

            def __init__(self, src, dst):
                self.link = (src, dst)

            def filter_send(self, src, dst):
                return [] if (src, dst) == self.link else None

        rep = Reporter(nsites=4)
        victim = rep.peers[2]
        old = (4, 3)
        rep.set_figure(*old)
        rep.talk_to(victim)
        told_at = rep.sim.now
        rep.run(WIRE)
        record = victim.cluster_manager.sites[rep.site.site_id]
        network = rep.cluster.network
        network.chaos = DropLink(int(rep.site.kernel.local_physical()),
                                 int(victim.kernel.local_physical()))
        rep.set_figure(1, 0)
        rep.run(3 * INTERVAL)
        network.chaos = None
        assert network.stats.get("chaos_dropped").count == 1
        # the reporter believes the victim was told, and nothing re-sends
        # an unchanged figure: the victim goes on seeing work here...
        rep.run(told_at + STALENESS - INTERVAL - rep.sim.now)
        assert len(rep.reports) == 1
        assert rep.view(victim) == old
        assert record in victim.cluster_manager.hot_peers()
        # ...until its own staleness horizon expires the figure
        rep.run(2 * INTERVAL + WIRE)
        assert record not in victim.cluster_manager.hot_peers()


class TestFiguresRideInTheEnvelope:
    """The load figures travel once, in the envelope: no payload that used
    to repeat them still does, and what a receiver records of the sender
    is what the envelope said."""

    KINDS = frozenset({MsgType.LOAD_REPORT, MsgType.HEARTBEAT,
                       MsgType.CANT_HELP, MsgType.HELP_REQUEST,
                       MsgType.HELP_REPLY})

    def test_no_payload_repeats_the_envelope(self):
        base = gossip_config()
        # no proactive push: it raises the pusher's record of its target,
        # which would blur what the envelope alone set
        config = base.with_(
            scheduling=replace(base.scheduling, push_enabled=False),
            cluster=replace(base.cluster, heartbeats_enabled=True,
                            heartbeat_interval=2e-3, heartbeat_timeout=1.0))
        cluster = SimCluster(nsites=4, config=config)
        seen = Counter()
        for site in cluster.sites:
            self._watch(site, seen)
        handle = cluster.submit(build_primes_program(),
                                args=(25, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(25)
        assert set(seen) == self.KINDS

    def _watch(self, site, seen) -> None:
        mm = site.message_manager
        dispatch = mm._dispatch_inner

        def checked(msg):
            dispatch(msg)
            if (msg.type not in self.KINDS or site.stopped
                    or msg.src_site == site.site_id):
                return
            assert not {"load", "queue"} & set(msg.payload), msg
            record = site.cluster_manager.sites[msg.src_site]
            assert (record.load, record.queue, record.load_at) == (
                msg.src_load, msg.src_queue, site.kernel.now), msg
            assert type(record.load) is int and type(record.queue) is int
            seen[msg.type] += 1
        mm._dispatch_inner = checked


class TestToldRecord:
    def test_record_is_bounded_by_traffic_not_membership(self):
        """On 64 sites the record spans at most one conversation of a
        site's own traffic while the program runs; once it is over every
        entry expires and no flush stays pending."""
        base = bench_config()
        config = base.with_(scheduling=replace(
            base.scheduling, gossip_interval=1e-2, gossip_staleness=5e-2))
        cluster = SimCluster(nsites=64, config=config)
        conversation = 5e-2 / 2
        sizes = []

        def sample():
            for site in cluster.sites:
                sent = [at for _q, at in
                        site.message_manager._told.values()]
                assert not sent or max(sent) - min(sent) <= conversation
                sizes.append(len(sent))
            if not handle.done:
                cluster.sim.schedule(5e-3, sample)

        handle = cluster.submit(build_treesum_program(),
                                args=(1024, 16000.0))
        cluster.sim.schedule(0.1, sample)
        cluster.run(progress_timeout=600.0)
        assert handle.result == treesum_expected(1024)
        assert sizes and sum(sizes) / len(sizes) < 63 / 3
        cluster.sim.run(until=cluster.sim.now + 2 * conversation)
        now = cluster.sim.now
        for site in cluster.sites:
            assert all(now - at > conversation
                       for _q, at in site.message_manager._told.values())
            assert site.scheduling_manager._flush_timer is None

    def test_gossip_off_keeps_no_record(self):
        """...and, with no record, never schedules a flush."""
        config = bench_config()
        config = config.with_(scheduling=replace(config.scheduling,
                                                 gossip_interval=0.0))
        cluster = SimCluster(nsites=4, config=config)
        seen = scheduler_events(cluster.sim)
        handle = cluster.submit(build_primes_program(),
                                args=(10, 4, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(10)
        stats = cluster.total_stats()
        assert stats.get("sent").count > 0
        assert stats.get("gossip_sent").count == 0
        assert stats.get("gossip_flushes").count == 0
        assert seen and "_gossip_flush" not in {name for _at, name in seen}
        assert not any(site.message_manager._told
                       for site in cluster.sites)


class TestFlushInstants:
    """A flush is pending only while a partner may hold a wrong figure,
    and it fires on the instants a periodic tick would have used, so a
    report goes out exactly when the tick would have sent it."""

    def test_an_idle_cluster_with_open_conversations_runs_no_scheduler_event(
            self):
        cluster = SimCluster(nsites=8, config=gossip_config())
        sim = cluster.sim
        while any(len(s.cluster_manager.sites) < 8 for s in cluster.sites):
            sim.run(until=sim.now + 1e-3)
        sim.run(until=sim.now + 2 * INTERVAL)  # the last join settles
        for site in cluster.sites:
            for peer in cluster.sites:
                if peer is not site:
                    site.message_manager.send(SDMessage(
                        type=MsgType.HEARTBEAT,
                        src_site=site.site_id, src_manager=ManagerId.CLUSTER,
                        dst_site=peer.site_id,
                        dst_manager=ManagerId.CLUSTER))
        assert all(len(site.message_manager._told) == 7
                   for site in cluster.sites)
        seen = scheduler_events(sim)
        sim.run(until=sim.now + 1.0)
        assert seen == []

    def test_every_wrong_figure_has_a_flush_pending(self):
        """Between any two events of a real run, a site with no flush
        pending holds no partner's figure that differs from its queue:
        every way a figure goes wrong arms one."""
        cluster = SimCluster(nsites=6, config=gossip_config())
        checked = []

        def audit(_event):
            for site in cluster.sites:
                sched = site.scheduling_manager
                if not site.running or sched._flush_timer is not None:
                    continue
                depth = sched.stealable_depth()
                told = site.message_manager._told
                assert all(q == depth for q, _at in told.values()), (
                    site.site_id, depth, told)
                checked.append(len(told))
        cluster.sim.trace_hook = audit
        handle = cluster.submit(build_primes_program(),
                                args=(25, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(25)
        assert sum(checked) > 0
        assert cluster.total_stats().get("gossip_sent").count > 0

    def test_reports_go_out_on_the_tick_instants(self):
        rep = Reporter(nsites=4)
        rep.talk_to(*rep.peers)
        expected = []
        for k, wait in enumerate((0.37, 1.91, 0.05, 2.6)):
            rep.run(wait * INTERVAL)
            changed_at = rep.sim.now
            rep.set_figure(k + 2, k + 1)
            first = next(at for at in flush_instants(changed_at + INTERVAL)
                         if at > changed_at)
            expected += [first] * len(rep.peers)
            rep.run(INTERVAL)
        assert [at for at, _peer in rep.reports] == expected

    def test_a_flush_capped_by_the_fanout_comes_back_at_the_next_instant(
            self):
        rep = Reporter(nsites=8)
        rep.talk_to(*rep.peers)
        stats = rep.site.scheduling_manager.stats
        before = stats.get("gossip_flushes").count
        changed_at = rep.sim.now
        rep.set_figure(3, 2)
        rep.run(6 * INTERVAL)
        instants = [at for at in flush_instants(rep.sim.now)
                    if at > changed_at]
        assert [at for at, _peer in rep.reports] == (
            [instants[0]] * GOSSIP_FANOUT + [instants[1]] * GOSSIP_FANOUT
            + [instants[2]] * (len(rep.peers) - 2 * GOSSIP_FANOUT))
        # and nothing after the last partner was corrected
        assert stats.get("gossip_flushes").count - before == 3

    def test_a_change_made_while_paused_is_reported_after_the_unpause(self):
        rep = Reporter(nsites=4)
        peer = rep.peers[0]
        rep.talk_to(peer)
        rep.site.paused = True
        rep.set_figure(2, 1)
        rep.run(3.4 * INTERVAL)
        assert rep.reports == []
        resumed_at = rep.sim.now
        rep.site.paused = False
        rep.run(2 * INTERVAL)
        first = next(at for at in flush_instants(rep.sim.now)
                     if at > resumed_at)
        assert rep.reports == [(first, peer.site_id)]
        assert rep.view(peer) == rep.figure


def test_same_seed_twice_is_bit_identical():
    def once():
        duration, cluster = run_primes(25, 6, 8, 400.0, 4000.0,
                                       config=bench_config(trace=True))
        stats = cluster.total_stats()
        return (journal_fingerprint(cluster.tracer), duration,
                stats.get("gossip_sent").count)

    first = once()
    assert first == once()
    assert first[2] > 0


def test_the_trade_is_on_the_report():
    _duration, cluster = run_treesum(64, 16000.0, 4)
    report = cluster.cluster_report()
    stats = cluster.total_stats()
    assert report.derived["load_reports_per_exec"] == pytest.approx(
        stats.get("gossip_sent").count / stats.get("executions").count)
    assert report.derived["help_refusal_rate"] == pytest.approx(
        stats.get("cant_help_received").count
        / stats.get("help_sent").count)
    assert 0 < report.derived["help_refusal_rate"] < 1
    assert "gossip_suppressed" not in report.derived
    rendered = report.render()
    assert "load_reports_per_exec" in rendered
    assert "help_refusal_rate" in rendered
