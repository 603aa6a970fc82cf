"""Integration tests for cluster membership: sign-on, gossip, id strategies."""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, SDVMConfig, SiteConfig
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
        assert wire == [5, "sim://5", "px", 2.0, "e", 6, 2]
        back = SiteRecord.from_wire(wire)
        assert (back.load, back.queue, back.load_at) == (0, 0, -1.0)
        back.load, back.queue, back.load_at = 7, 3, 1.5
        assert back == record


class TestIdStrategies:
    @pytest.mark.parametrize("strategy", ["central", "contingent", "modulo"])
    def test_unique_ids(self, strategy):
        cluster = build(8, id_allocation=strategy)
        ids = [s.site_id for s in cluster.sites]
        assert -1 not in ids
        assert len(set(ids)) == 8

    def test_contingent_block_exhaustion_triggers_refill(self):
        # tiny blocks force ID_BLOCK_REQUEST round trips
        cluster = build(9, id_allocation="contingent", contingent_size=2)
        ids = [s.site_id for s in cluster.sites]
        assert -1 not in ids
        assert len(set(ids)) == 9

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
        manager.mark_dead(victim, left=False)
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


class TestHeartbeats:
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
        """Scaling-era regression: with ``heartbeat_fanout`` only the k
        ring predecessors heartbeat to each site.  A death shifts the
        ring, handing nearby watchers a peer they have *never* heard
        from; before the watch-since grace window such a peer was
        declared dead at the very next liveness check, cascading false
        crashes around the ring (observed at 256 sites: one real crash
        snowballed into 69 recoveries)."""
        config = SDVMConfig(cluster=ClusterConfig(
            heartbeats_enabled=True, heartbeat_interval=0.05,
            heartbeat_timeout=0.2, heartbeat_fanout=2))
        cluster = SimCluster(nsites=12, config=config)
        cluster.sim.run(until=0.5)
        watcher = cluster.sites[6].cluster_manager
        # site 5 dies: watcher 6's watch set shifts {5, 4} -> {4, 3}
        cluster.sites[5].crash()
        watcher.mark_dead(5, left=False)
        # simulate a cold pair: 3 has never sent anything to 6
        watcher.sites[3].last_seen = 0.0
        watcher._check_liveness()
        assert watcher.sites[3].alive, (
            "silence predating the watch is not evidence of a crash")
        # silence *since the watch started* must still detect for real
        watcher._watch_since[3] = 0.0
        watcher._check_liveness()
        assert not watcher.sites[3].alive
