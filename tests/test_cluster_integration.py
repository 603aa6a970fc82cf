"""Integration tests for cluster membership: sign-on, gossip, id strategies."""

from __future__ import annotations

import functools

import pytest

from repro.bench.harness import bench_config
from repro.cluster import id_allocation
from repro.cluster.records import SiteRecord
from repro.common.config import ClusterConfig, SDVMConfig, SiteConfig
from repro.core.program import ProgramBuilder
from repro.messages import MsgType, SDMessage
from repro.serde import Encoded
from repro.site.simcluster import SimCluster


def build(nsites, **cluster_kwargs):
    config = SDVMConfig(cluster=ClusterConfig(**cluster_kwargs))
    cluster = SimCluster(nsites=nsites, config=config)
    cluster.sim.run(until=1.0)
    return cluster


class TestSignOn:
    def test_all_sites_get_unique_ids(self):
        cluster = build(6)
        ids = [s.site_id for s in cluster.sites]
        assert -1 not in ids
        assert len(set(ids)) == 6

    def test_bootstrap_site_is_zero(self):
        cluster = build(3)
        assert cluster.sites[0].site_id == 0

    def test_joiners_know_whole_cluster(self):
        cluster = build(5)
        # the last joiner got the full site list in its SIGN_ON_ACK
        last = cluster.sites[-1]
        assert len(last.cluster_manager.sites) == 5

    def test_existing_sites_learn_joiners_via_gossip(self):
        cluster = build(5)
        for site in cluster.sites:
            assert len(site.cluster_manager.sites) == 5

    def test_records_carry_site_properties(self):
        config = SDVMConfig()
        cluster = SimCluster(
            site_configs=[
                SiteConfig(name="alpha", speed=2.0, platform="px"),
                SiteConfig(name="beta", speed=0.5, platform="py"),
            ],
            config=config)
        cluster.sim.run(until=1.0)
        beta_seen_by_alpha = cluster.sites[0].cluster_manager.sites[
            cluster.sites[1].site_id]
        assert beta_seen_by_alpha.name == "beta"
        assert beta_seen_by_alpha.speed == 0.5
        assert beta_seen_by_alpha.platform == "py"

    def test_record_wire_form_round_trips_without_figures(self):
        """One positional wire form at every cluster size; the load
        figures stay home — the receiver sets them from envelopes."""
        from repro.cluster.records import SiteRecord
        record = SiteRecord(logical=5, physical="sim://5", platform="px",
                            speed=2.0, name="e", code_distribution=True,
                            reliable=False, load=7, queue=3, load_at=1.5,
                            alive=False, left=True, heir=2)
        wire = record.to_wire()
        # flags: left (2) | code distribution (4); not alive, not reliable
        assert type(wire) is Encoded
        assert wire == (5, "sim://5", "px", 2.0, "e", 6, 2)
        back = SiteRecord.from_wire(wire)
        assert (back.load, back.queue, back.load_at) == (0, 0, -1.0)
        back.load, back.queue, back.load_at = 7, 3, 1.5
        assert back == record

    def test_a_record_is_encoded_once_per_change(self):
        """The wire form is handed out again until a wire field changes;
        the figures kept at home do not count as a change."""
        from repro.cluster.records import SiteRecord
        from repro.serde import dumps
        record = SiteRecord(logical=3, physical="sim://3")
        wire = record.to_wire()
        record.load, record.queue, record.last_seen = 4, 2, 9.0
        assert record.to_wire() is wire
        record.alive, record.heir = False, 1
        dead = record.to_wire()
        assert dead is not wire and dead.wire != wire.wire
        assert dead.wire == dumps(tuple(dead)) and dead[5] & 1 == 0
        # a record learned from a shared wire form hands that form on
        assert SiteRecord.from_wire(dead).to_wire() is dead

    def test_formation_encodes_each_record_once_per_change(self, monkeypatch):
        """The guard against a per-peer re-encode: while 64 sites form,
        no record object builds the same wire form twice, and a record
        passed on in process is not encoded again."""
        from repro.cluster.records import SiteRecord
        encodes = {}
        keep = []
        to_wire = SiteRecord.to_wire

        def counted(record):
            before = record._wire
            wire = to_wire(record)
            if wire is not before:
                keep.append(record)  # no id is reused while we count
                key = (id(record), tuple(wire))
                encodes[key] = encodes.get(key, 0) + 1
            return wire

        monkeypatch.setattr(SiteRecord, "to_wire", counted)
        cluster = SimCluster(nsites=64, config=SDVMConfig())
        while not all(len(site.cluster_manager.sites) == 64
                      for site in cluster.sites):
            assert cluster.sim.step()
        assert max(encodes.values()) == 1
        # each record is encoded where it was made, then shared
        assert len(encodes) <= 2 * 64


class TestIdStrategies:
    @pytest.mark.parametrize("strategy", ["central", "contingent", "modulo"])
    def test_unique_ids(self, strategy):
        cluster = build(8, id_allocation=strategy)
        ids = [s.site_id for s in cluster.sites]
        assert -1 not in ids
        assert len(set(ids)) == 8

    def test_spent_contingent_server_forwards_to_root(self, monkeypatch):
        # tiny blocks: a non-root site serves the sign-ons its block holds
        # and forwards the rest to the root, which carves itself a fresh
        # block when its own runs out; no message asks for a block
        monkeypatch.setattr(id_allocation, "CONTINGENT_SIZE", 2)
        config = SDVMConfig(cluster=ClusterConfig(id_allocation="contingent"))
        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.5)
        root, server = cluster.sites
        sent = []
        for site in (root, server):
            send = site.message_manager.send

            def spy(msg, send=send):
                sent.append(msg.type.name)
                return send(msg)
            site.message_manager.send = spy
        joiners = [cluster.add_site(via_index=1) for _ in range(4)]
        cluster.sim.run(until=1.5)
        assert all(joiner.running for joiner in joiners)

        def count(site, name):
            return site.cluster_manager.stats.get(name).count
        assert count(server, "sign_ons_served") == 2  # its block [3, 5)
        assert count(server, "sign_ons_forwarded") == 2
        assert count(root, "sign_ons_served") == 3  # site 1, then 2 and 7
        # the root holds [1, 3) and granted [3, 5) to site 1 and [5, 7) to
        # the first forwarded joiner; its second forward spends the root's
        # block, so it carves [7, 9)
        assert sorted(s.site_id for s in cluster.sites) == [0, 1, 2, 3, 4, 7]
        assert not [name for name in sent if "ID_BLOCK" in name]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def join_wave(strategy):
        """E7's join wave: 23 sites sign on to a one-site cluster, one
        every 0.2 ms, each through a contact point the sim RNG draws among
        the sites built so far.  Returns (running, ids, forwarded,
        formation), the last the virtual seconds from the wave's start
        until every site runs, to the millisecond."""
        config = bench_config(cluster=ClusterConfig(id_allocation=strategy))
        cluster = SimCluster(nsites=1, config=config)
        cluster.sim.run(until=0.01)
        rng = cluster.sim.rng
        for i in range(1, 24):
            via = rng.randrange(len(cluster.sites))
            cluster.add_site(SiteConfig(name=f"s{i}"),
                             at=cluster.sim.now + i * 2e-4, via_index=via)
        while (not all(site.running for site in cluster.sites)
               and cluster.sim.now < 2.0):
            cluster.sim.run(until=cluster.sim.now + 1e-3)
        formation = cluster.sim.now - 0.01
        cluster.sim.run(until=2.0)
        return ([site.running for site in cluster.sites],
                [site.site_id for site in cluster.sites],
                cluster.total_stats().get("sign_ons_forwarded").count,
                formation)

    @pytest.mark.parametrize("strategy", ["central", "contingent", "modulo"])
    def test_join_wave_through_random_contacts(self, strategy):
        running, ids, forwarded, _formation = self.join_wave(strategy)
        assert len(running) == 24 and all(running)
        assert -1 not in ids and len(set(ids)) == 24
        if strategy == "contingent":
            # id servers spread the allocation: fewer sign-ons travel on
            assert forwarded < self.join_wave("central")[2]

    @pytest.mark.parametrize("strategy", ["central", "contingent", "modulo"])
    def test_contact_still_signing_on_serves_the_joiner_once_it_runs(
            self, strategy):
        """A SIGN_ON that reaches a site still signing on is held and
        served when that site's own ACK lands.  Dropped, it cost the
        joiner a 0.25 s retry, and the wave formed in 255 ms."""
        running, _ids, _forwarded, formation = self.join_wave(strategy)
        assert all(running)
        assert formation <= 0.05

    def test_modulo_ids_in_residue_classes(self):
        cluster = build(5, id_allocation="modulo")
        from repro.cluster.id_allocation import MODULO_STRIDE
        for site in cluster.sites[1:]:
            assert site.site_id % MODULO_STRIDE == 0  # all allocated by site 0


class TestDynamicJoin:
    def test_late_join_via_any_site(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.5)
        newcomer = cluster.add_site(via_index=2)
        cluster.sim.run(until=1.0)
        assert newcomer.site_id not in (-1,)
        assert newcomer.running
        # everyone heard about it
        for site in cluster.sites[:3]:
            assert newcomer.site_id in site.cluster_manager.sites


class TestLookups:
    def test_physical_of_dead_site_none(self):
        cluster = build(3)
        manager = cluster.sites[0].cluster_manager
        victim = cluster.sites[2].site_id
        manager.mark_dead(victim)
        assert manager.physical_of(victim) is None

    def test_effective_site_follows_heirs(self):
        cluster = build(4)
        manager = cluster.sites[0].cluster_manager
        a = cluster.sites[1].site_id
        b = cluster.sites[2].site_id
        c = cluster.sites[3].site_id
        manager.sites[a].alive = False
        manager.sites[a].heir = b
        manager.sites[b].alive = False
        manager.sites[b].heir = c
        assert manager.effective_site(a) == c

    def test_effective_site_cycle_safe(self):
        cluster = build(3)
        manager = cluster.sites[0].cluster_manager
        a = cluster.sites[1].site_id
        b = cluster.sites[2].site_id
        manager.sites[a].alive = False
        manager.sites[a].heir = b
        manager.sites[b].alive = False
        manager.sites[b].heir = a
        assert manager.effective_site(a) in (a, b)  # terminates

    def test_pick_help_target_prefers_queue_depth(self):
        cluster = build(4)
        manager = cluster.sites[0].cluster_manager
        for site in cluster.sites[1:]:
            manager.note_load(site.site_id, 0.0, queue=0.0)
        deep = cluster.sites[2].site_id
        manager.note_load(deep, 1.0, queue=5.0)
        picks = {manager.pick_help_target() for _ in range(10)}
        assert picks == {deep}

    def test_pick_help_target_probes_unknown_before_fresh_busy(self):
        # a fresh record with no known stealable queue is a worse bet than
        # an unprobed peer, so the stale ones get the random probe first
        cluster = build(4)
        manager = cluster.sites[0].cluster_manager
        busy = cluster.sites[2].site_id
        manager.note_load(busy, 50.0)
        others = {cluster.sites[1].site_id, cluster.sites[3].site_id}
        picks = {manager.pick_help_target() for _ in range(20)}
        assert picks <= others and picks

    def test_pick_help_target_prefers_load_when_all_fresh(self):
        cluster = build(4)
        manager = cluster.sites[0].cluster_manager
        for site in cluster.sites[1:]:
            manager.note_load(site.site_id, 0.0, queue=0.0)
        busy = cluster.sites[2].site_id
        manager.note_load(busy, 50.0, queue=0.0)
        picks = {manager.pick_help_target() for _ in range(10)}
        assert picks == {busy}

    def test_pick_help_target_excludes(self):
        cluster = build(2)
        manager = cluster.sites[0].cluster_manager
        other = cluster.sites[1].site_id
        assert manager.pick_help_target(exclude={other}) is None


class TestGossipedDeath:
    def test_death_in_cluster_info_is_merged_once(self, monkeypatch):
        """A CLUSTER_INFO naming a known, alive peer as left (with an heir)
        merges into the known record and retires the peer from every
        membership cache; the same news again changes nothing."""
        cluster = build(3)
        site, sender, peer = cluster.sites
        manager = site.cluster_manager
        gone, heir = peer.site_id, sender.site_id
        manager.note_load(gone, 5, queue=5)
        assert gone in manager._hot_peers
        departed, merges = [], []
        manager.on_site_departed.append(departed.append)
        merge = SiteRecord.merge_newer

        def counted(record, other):
            merges.append(record.logical)
            merge(record, other)
        monkeypatch.setattr(SiteRecord, "merge_newer", counted)
        news = SiteRecord.from_wire(tuple(manager.sites[gone].to_wire()))
        news.alive, news.left, news.heir = False, True, heir
        wire = tuple(news.to_wire())

        def deliver():
            sender.message_manager.send(SDMessage(
                type=MsgType.CLUSTER_INFO, src_site=heir,
                dst_site=site.site_id, payload={"sites": [wire]}))
            cluster.sim.run(until=cluster.sim.now + 0.01)

        deliver()
        record = manager.sites[gone]
        assert merges == [gone]
        assert (record.alive, record.left, record.heir) == (False, True, heir)
        assert gone not in manager.sorted_alive_ids()
        assert departed == [gone]
        assert gone not in manager._hot_peers
        deliver()
        assert merges == [gone]
        assert departed == [gone]
        assert manager.sites[gone] is record
        assert tuple(record.to_wire()) == wire


def slow_fanout_program():
    """``n`` workers charging ``units`` each (6e5 units = 0.6 s)."""
    prog = ProgramBuilder("slowfan")

    @prog.microthread(creates=("worker", "collect"))
    def main(ctx, n, units):
        collector = ctx.create_frame("collect", nparams=n)
        for i in range(n):
            w = ctx.create_frame("worker", targets=[(collector, i)])
            ctx.send_result(w, 0, units)

    @prog.microthread
    def worker(ctx, units):
        ctx.charge(units)
        ctx.send_to_targets(1)

    @prog.microthread
    def collect(ctx, *values):
        ctx.exit_program(sum(values))

    return prog.build()


class TestHeartbeats:
    def test_a_leaver_that_drains_past_the_timeout_suspects_no_one(self):
        """Once SIGN_OFF is out, every peer drops the leaver from its
        watch set and stops writing to it.  A leaver that kept judging
        them while it drained, settled and forwarded heard nothing for
        longer than the timeout and declared the live cluster crashed."""
        config = SDVMConfig(trace=True, cluster=ClusterConfig(
            heartbeats_enabled=True, heartbeat_interval=0.05,
            heartbeat_timeout=0.25))
        cluster = SimCluster(nsites=3, config=config)
        # every worker computes 0.6 s, longer than the heartbeat timeout
        handle = cluster.submit(slow_fanout_program(), args=(6, 6e5))
        cluster.sim.run(until=0.3)
        leaver = cluster.sites[2]
        assert leaver.processing_manager.in_flight > 0
        leaver.sign_off()
        cluster.sim.run(until=0.3 + 0.25 + 2 * 0.05)
        assert not leaver.stopped  # still draining
        cluster.run(raise_on_failure=False)
        assert leaver.stopped and not handle.failed
        assert handle.result == 6
        assert [site.cluster_manager.stats.get("crashes_detected").count
                for site in cluster.sites] == [0, 0, 0]
        assert cluster.tracer.kinds().get("site_dead", 0) == 0

    def test_crash_detected_via_heartbeat_timeout(self):
        config = SDVMConfig(cluster=ClusterConfig(
            heartbeats_enabled=True, heartbeat_interval=0.05,
            heartbeat_timeout=0.2))
        cluster = SimCluster(nsites=3, config=config)
        cluster.sim.run(until=0.5)
        victim = cluster.sites[2]
        victim_id = victim.site_id
        victim.crash()
        cluster.sim.run(until=2.0)
        record = cluster.sites[0].cluster_manager.sites[victim_id]
        assert not record.alive
        assert not record.left  # crash, not orderly departure

    def test_fanout_ring_shift_grants_grace_to_new_watchees(self):
        """Scaling-era regression: beyond ``PICK_SAMPLE`` alive peers only
        the ``HEARTBEAT_RING`` ring predecessors heartbeat to each site.
        A death shifts the ring, handing nearby watchers a peer they have
        *never* heard from; before the watch-since grace window such a
        peer was declared dead at the very next liveness check, cascading
        false crashes around the ring (observed at 256 sites: one real
        crash snowballed into 69 recoveries)."""
        config = SDVMConfig(cluster=ClusterConfig(
            heartbeats_enabled=True, heartbeat_interval=0.05,
            heartbeat_timeout=0.2))
        # 18 peers, 17 once site 5 is gone: the ring applies throughout
        cluster = SimCluster(nsites=19, config=config)
        cluster.sim.run(until=0.5)
        watcher = cluster.sites[6].cluster_manager
        assert len(watcher.alive_peers()) > watcher.PICK_SAMPLE + 1
        assert watcher.HEARTBEAT_RING == 3
        assert [r.logical for r in watcher._watched_records()] == [5, 4, 3]
        # site 5 dies: watcher 6's watch set shifts {5, 4, 3} -> {4, 3, 2}
        cluster.sites[5].crash()
        watcher.mark_dead(5)
        assert [r.logical for r in watcher._watched_records()] == [4, 3, 2]
        # simulate a cold pair: 2 has never sent anything to 6
        watcher.sites[2].last_seen = 0.0
        watcher._check_liveness()
        assert watcher.sites[2].alive, (
            "silence predating the watch is not evidence of a crash")
        # silence *since the watch started* must still detect for real
        watcher._watch_since[2] = 0.0
        watcher._check_liveness()
        assert not watcher.sites[2].alive
