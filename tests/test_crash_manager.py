"""Focused tests for the crash manager: checkpoint waves, coordinator
selection, rollback mechanics, and epoch fencing.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    SchedulingConfig,
    SDVMConfig,
)
from repro.apps import build_primes_program, first_n_primes
from repro.site.simcluster import SimCluster


def config(ckpt_interval=0.1, heartbeats=True):
    return SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        cluster=ClusterConfig(heartbeats_enabled=heartbeats,
                              heartbeat_interval=0.03,
                              heartbeat_timeout=0.12),
        checkpoint=CheckpointConfig(enabled=True, interval=ckpt_interval),
    )


class TestCheckpointWaves:
    def test_coordinator_is_lowest_alive(self):
        cluster = SimCluster(nsites=3, config=config())
        cluster.sim.run(until=0.5)
        assert cluster.sites[0].crash_manager.is_coordinator()
        assert not cluster.sites[1].crash_manager.is_coordinator()
        cluster.sites[0].crash()
        cluster.sim.run(until=1.0)
        assert cluster.sites[1].crash_manager.is_coordinator()

    def test_no_waves_without_programs(self):
        cluster = SimCluster(nsites=2, config=config())
        cluster.sim.run(until=1.0)
        assert cluster.sites[0].crash_manager.committed_wave == -1

    def test_waves_commit_during_program(self):
        cluster = SimCluster(nsites=3, config=config())
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        coordinator = cluster.sites[0].crash_manager
        assert coordinator.committed_wave >= 1
        # the committed snapshot covers every alive site
        assert len(coordinator.committed) == 3

    def test_sites_resume_after_commit(self):
        cluster = SimCluster(nsites=2, config=config())
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        assert not any(site.paused for site in cluster.sites)

    def test_checkpoint_overhead_scales_with_interval(self):
        durations = {}
        for interval in (0.05, 1.0):
            cluster = SimCluster(nsites=2, config=config(interval))
            handle = cluster.submit(build_primes_program(),
                                    args=(40, 6, 400.0, 4000.0))
            cluster.run(progress_timeout=120.0)
            durations[interval] = handle.duration
        assert durations[0.05] > durations[1.0]


class TestWaveAbort:
    """Regression: a participant dying between CHECKPOINT_ACK and
    CHECKPOINT_STATE used to wedge the wave forever — ``_states_pending``
    never drained, so no commit arrived and every paused site stayed
    paused.  The coordinator now aborts the in-flight wave and fences the
    stale traffic with the bumped wave id."""

    def _mid_wave_cluster(self):
        """A joined 3-site cluster with a wave stuck in the state phase."""
        cluster = SimCluster(nsites=3, config=config())
        cluster.sim.run(until=0.5)
        coordinator = cluster.sites[0]
        cm = coordinator.crash_manager
        assert cm.is_coordinator()
        cm.start_checkpoint()
        wave = cm._wave
        alive = [r.logical for r in
                 coordinator.cluster_manager.sites.values() if r.alive]
        for logical in alive:
            cm._on_ack(wave, logical)
        assert not cm._acks_pending
        assert cm._states_pending  # snapshot phase still outstanding
        return cluster, cm, wave

    def test_participant_death_aborts_wave_and_resumes(self):
        cluster, cm, wave = self._mid_wave_cluster()
        victim = cluster.sites[2]
        victim_logical = victim.site_id
        victim.crash()
        cluster.sites[0].cluster_manager.mark_dead(victim_logical,
                                                   left=False)
        assert cm.stats.get("waves_aborted").count == 1
        assert not cm._acks_pending and not cm._states_pending
        # a stale CHECKPOINT_STATE from the aborted wave is fenced out
        cm._on_state(wave, victim_logical, {"stale": True})
        assert cm.committed_wave == -1
        assert cm._collected == {}
        # without a committed checkpoint there is no recovery wave, so the
        # abort path itself must unpause the survivors
        cluster.sim.run(until=1.0)
        survivors = [s for s in cluster.sites if s.running]
        assert survivors and all(not s.paused for s in survivors)
        observed = sum(
            s.crash_manager.stats.get("waves_aborted_observed").count
            for s in survivors)
        assert observed == len(survivors)
        # the abort-resume broadcast must not masquerade as a commit
        assert all(s.crash_manager.stats.get("waves_committed").count == 0
                   for s in survivors)

    def test_abort_is_noop_without_inflight_wave(self):
        cluster = SimCluster(nsites=3, config=config())
        cluster.sim.run(until=0.5)
        cm = cluster.sites[0].crash_manager
        assert not cm._abort_wave("nothing in flight")
        assert cm.stats.get("waves_aborted").count == 0

    def test_next_wave_commits_after_abort(self):
        cluster, cm, _wave = self._mid_wave_cluster()
        coordinator = cluster.sites[0]
        victim = cluster.sites[2]
        victim.crash()
        coordinator.cluster_manager.mark_dead(victim.site_id, left=False)
        cm.start_checkpoint()
        wave2 = cm._wave
        alive = [r.logical for r in
                 coordinator.cluster_manager.sites.values() if r.alive]
        assert victim.site_id not in alive
        for logical in alive:
            cm._on_ack(wave2, logical)
        for logical in alive:
            cm._on_state(wave2, logical, {"site": logical})
        assert cm.committed_wave == wave2
        assert set(cm.committed) == set(alive)
        assert cm.stats.get("checkpoints_committed").count == 1


class TestRecovery:
    def test_epoch_increments_on_recovery(self):
        cluster = SimCluster(nsites=3, config=config())
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 800.0, 8000.0))
        cluster.crash_site(2, at=0.5)
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        assert cluster.sites[0].epoch >= 1

    def test_multiple_crashes_survived(self):
        cluster = SimCluster(nsites=4, config=config())
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 2000.0, 20000.0))
        cluster.crash_site(3, at=0.5)
        cluster.crash_site(2, at=1.1)
        cluster.run(progress_timeout=180.0)
        assert handle.result == first_n_primes(40)
        assert cluster.sites[0].crash_manager.stats.get(
            "recoveries").count >= 2

    def test_crash_of_non_coordinator_site_detected_by_all(self):
        cluster = SimCluster(nsites=3, config=config())
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 800.0, 8000.0))
        victim_index = 1

        def victim_logical():
            return cluster.sites[victim_index].site_id

        cluster.sim.run(until=0.4)
        logical = victim_logical()
        cluster.sites[victim_index].crash()
        cluster.run(progress_timeout=180.0)
        assert handle.result == first_n_primes(40)
        survivors = [cluster.sites[0], cluster.sites[2]]
        for site in survivors:
            assert not site.cluster_manager.sites[logical].alive

    def test_result_exact_despite_rollback_reexecution(self):
        """Rollback re-executes work (at-least-once); the dataflow model
        still yields the exact prime list, not duplicates."""
        cluster = SimCluster(nsites=4, config=config(ckpt_interval=0.2))
        handle = cluster.submit(build_primes_program(),
                                args=(60, 8, 400.0, 4000.0))
        cluster.crash_site(3, at=1.0)
        cluster.run(progress_timeout=180.0)
        result = handle.result
        assert result == first_n_primes(60)
        assert len(result) == len(set(result))


class TestHardening:
    """Regressions for the crash-recovery hardening sweep (found and
    pinned down by the chaos fuzzer; the corpus plans in
    ``tests/chaos_corpus/`` replay the same bugs end to end)."""

    def test_second_crash_during_recovery_is_queued_and_drained(self):
        """S1: a crash detected while a recovery is in flight used to
        start an overlapping recovery that clobbered the first one's
        state distribution.  It must be queued and handled serially."""
        cluster = SimCluster(nsites=4, config=config(ckpt_interval=0.1))
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 2000.0, 20000.0))
        # both failures land inside one liveness check tick, so the
        # second is observed while the first recovery is still running
        cluster.crash_site(3, at=0.5)
        cluster.crash_site(2, at=0.5001)
        cluster.run(progress_timeout=180.0)
        assert handle.result == first_n_primes(40)
        cm = cluster.sites[0].crash_manager
        assert cm.stats.get("crashes_queued").count >= 1
        assert cm.stats.get("recoveries").count >= 2
        assert not cm._recovering and not cm._crash_queue

    def test_coordinator_crash_successor_recovers_from_replica(self):
        """S2: when the checkpoint coordinator itself dies, the successor
        used to find no committed snapshot and declare the program lost.
        Snapshot replication gives it the state to roll back from."""
        cluster = SimCluster(nsites=3, config=config(ckpt_interval=0.1))
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 800.0, 8000.0),
                                site_index=1)
        cluster.sim.run(until=0.45)
        assert cluster.sites[0].crash_manager.committed_wave >= 1
        cluster.sites[0].crash()
        cluster.run(progress_timeout=180.0)
        assert handle.result == first_n_primes(40)
        successor = cluster.sites[1].crash_manager
        assert successor.stats.get("replicas_adopted").count >= 1
        assert successor.stats.get("recoveries_completed").count >= 1

    def test_duplicate_state_after_commit_does_not_recommit(self):
        """A re-delivered CHECKPOINT_STATE must not re-enter the commit
        path (the chaos duplicate_delivery plan caught a double commit
        of the same wave)."""
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        cm = cluster.sites[0].crash_manager
        assert cm.committed_wave >= 1
        committed_before = cm.stats.get("checkpoints_committed").count
        wave_before = cm.committed_wave
        cm._on_state(cm._wave, cluster.sites[1].site_id, {"dup": True})
        assert cm.stats.get("checkpoints_committed").count == committed_before
        assert cm.committed_wave == wave_before

    @pytest.mark.parametrize("owner", [0, 1],
                             ids=["local-coordinator", "remote-coordinator"])
    def test_committed_shard_is_a_copy_of_live_parameters(self, owner):
        """Frame parameters are live application values.  The
        coordinator's own shard never crosses the codec, so it must be
        copied by hand; a remote shard is copied when the message encodes,
        before this handler returns."""
        from repro.common.ids import GlobalAddress
        from repro.core.frames import Microframe
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        coordinator, site = cluster.sites[0], cluster.sites[owner]
        live = {"results": [1]}
        frame = Microframe(GlobalAddress(site.site_id, 4242), thread_id=0,
                           program=1, nparams=2)
        frame.params[0] = live
        site.attraction_memory.frames[frame.frame_id] = frame
        cm = coordinator.crash_manager
        cm._wave = 7
        cm._states_pending = {site.site_id}
        cm._collected = {}
        site.crash_manager._on_snapshot_request(7, coordinator.site_id)
        live["results"].append(2)
        cluster.sim.run(until=0.3)
        assert cm.committed_wave == 7
        (shard_frame,) = [f for f in cm.committed[site.site_id]["frames"]
                          if f["id"] == frame.frame_id]
        assert [list(pair) for pair in shard_frame["filled"]] == [
            [0, {"results": [1]}]]

    def test_duplicate_ack_after_drain_is_ignored(self):
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        cm = cluster.sites[0].crash_manager
        assert cm.committed_wave >= 1
        states_before = set(cm._states_pending)
        cm._on_ack(cm._wave, cluster.sites[1].site_id)
        assert set(cm._states_pending) == states_before

    def test_stale_replica_from_old_coordinator_is_ignored(self):
        """After succession the old coordinator's lower-numbered replicas
        must not roll the successor's committed snapshot backwards."""
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        backup = cluster.sites[1].crash_manager
        assert backup.committed_wave >= 1
        wave_before = backup.committed_wave
        src = backup.committed_src
        backup._on_replica(wave_before - 1, [[0, {"stale": True}]], src)
        assert backup.committed_wave == wave_before
        assert backup.stats.get("stale_replicas_ignored").count >= 1
