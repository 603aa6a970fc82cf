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
from repro.common.errors import SerializationError
from repro.common.ids import GlobalAddress
from repro.core.frames import Microframe
from repro.crash.manager import CrashManager
from repro.messages import MsgType, SDMessage
from repro.serde import dumps, loads
from repro.serde.codec import MAX_DECODE_DEPTH
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
        cm._on_state(wave, victim_logical, dumps({"stale": True}))
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
            cm._on_state(wave2, logical, dumps({"site": logical}))
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
        cm._on_state(cm._wave, cluster.sites[1].site_id,
                     dumps({"dup": True}))
        assert cm.stats.get("checkpoints_committed").count == committed_before
        assert cm.committed_wave == wave_before

    @pytest.mark.parametrize("owner", [0, 1],
                             ids=["local-coordinator", "remote-coordinator"])
    def test_committed_shard_is_a_copy_of_live_parameters(self, owner):
        """Frame parameters are live application values.  Serialising the
        shard in ``_on_snapshot_request`` is the by-value cut, for the
        coordinator's own shard and a remote one alike."""
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
        shard = loads(cm.committed[site.site_id])
        (shard_frame,) = [f for f in shard["frames"]
                          if f["id"] == frame.frame_id]
        assert [list(pair) for pair in shard_frame["filled"]] == [
            [0, {"results": [1]}]]

    def test_local_adoption_does_not_alias_the_committed_shard(self):
        """The coordinator adopts its own shard (and a dead site's) without
        a wire in between.  What it restores must share nothing with
        ``committed``: a microthread that mutates a restored value in
        place would otherwise rewrite the last good checkpoint, and the
        next recovery from the same wave would distribute post-checkpoint
        state."""
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        site = cluster.sites[0]
        cm, memory = site.crash_manager, site.attraction_memory
        addr = memory.alloc_object({"results": [1]})
        cm._wave = 7
        cm._states_pending = {site.site_id}
        cm._collected = {}
        cm._on_snapshot_request(7, site.site_id)
        assert cm.committed_wave == 7
        blob = cm.committed[site.site_id]
        memory.reset_program_state()
        cm._send_recover(site.site_id, MsgType.RECOVER_STATE,
                         {"state": blob, "epoch": site.epoch,
                          "shard": site.site_id})
        memory.objects[addr]["results"].append(99)
        committed = loads(cm.committed[site.site_id])
        assert [value for at, value, _version in committed["objects"]
                if at == addr] == [{"results": [1]}]

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
        backup._on_replica(wave_before - 1, [[0, dumps({"stale": True})]], src)
        assert backup.committed_wave == wave_before
        assert backup.stats.get("stale_replicas_ignored").count >= 1


class TestShardBlobs:
    """A shard is serialised once, where it is cut, and is opaque bytes
    until a site adopts it."""

    def test_serialised_once_and_byte_equal_on_every_keeper(
            self, monkeypatch):
        states = []
        on_state = CrashManager._on_state

        def counted(cm, wave, src, blob):
            states.append(src)
            on_state(cm, wave, src, blob)

        monkeypatch.setattr(CrashManager, "_on_state", counted)
        cfg = config(heartbeats=False).with_(
            checkpoint=CheckpointConfig(enabled=True, interval=0.1,
                                        replicas=2))
        cluster = SimCluster(nsites=8, config=cfg)
        handle = cluster.submit(build_primes_program(),
                                args=(60, 8, 800.0, 8000.0))
        cluster.run(progress_timeout=60.0)
        cluster.sim.run(until=cluster.sim.now + 0.1)  # the last replicas
        assert handle.result == first_n_primes(60)
        stats = cluster.total_stats()
        waves = stats.get("checkpoints_committed").count
        assert waves >= 2
        assert stats.get("shards_serialized").count == len(states) == 8 * waves
        assert stats.get("replicas_adopted").count == 2 * waves
        coordinator = cluster.sites[0].crash_manager
        assert sorted(coordinator.committed) == list(range(8))
        assert all(type(b) is bytes for b in coordinator.committed.values())
        for backup in (cluster.sites[1], cluster.sites[2]):
            assert backup.crash_manager.committed_wave == \
                coordinator.committed_wave
            assert backup.crash_manager.committed == coordinator.committed
        # shipped per wave: seven remote shards, then all eight per replica
        shipped = stats.get("snapshot_bytes")
        assert shipped.count == (7 + 2) * waves
        assert shipped.total > 2 * waves * min(
            map(len, coordinator.committed.values()))
        derived = cluster.cluster_report().derived
        assert derived["snapshot_bytes_per_wave"] == shipped.total / waves
        assert 0.0 < derived["snapshot_bytes_frac"] < 1.0

    def test_unreadable_recover_state_is_counted_acked_and_not_adopted(self):
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        whole = dumps({"objects": [(GlobalAddress(0, 7), "kept", 3)],
                       "frames": [], "dir": [], "pending": [],
                       "programs": []})
        hostile = [whole[:-9],              # damaged in flight: truncated
                   b"\xff\x00not a value",  # no codec tag
                   dumps([1, 2, 3]),        # parses, but is no state
                   {"objects": []}]         # the retired dict shape
        acks = []
        for shard, blob in enumerate(hostile):
            a.message_manager.request(
                a.crash_manager._msg(b.site_id, MsgType.RECOVER_STATE,
                           {"state": blob, "epoch": b.epoch,
                            "shard": shard}),
                on_reply=acks.append, timeout=0.05)
        cluster.sim.run(until=0.4)
        assert [m.type for m in acks] == [MsgType.RECOVER_ACK] * len(hostile)
        cm = b.crash_manager
        assert cm.stats.get("malformed_shards").count == len(hostile)
        assert not b.attraction_memory.objects
        assert sum("malformed RECOVER_STATE" in line
                   for line in b.log_lines) == len(hostile)
        # the same site still adopts a shard it can read
        a.message_manager.request(
            a.crash_manager._msg(b.site_id, MsgType.RECOVER_STATE,
                       {"state": whole, "epoch": b.epoch, "shard": 9}),
            on_reply=acks.append, timeout=0.05)
        cluster.sim.run(until=0.6)
        assert b.attraction_memory.objects == {GlobalAddress(0, 7): "kept"}

    def test_malformed_replica_keeps_the_one_already_held(self):
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        coordinator, backup = cluster.sites[0], cluster.sites[1]
        cm = backup.crash_manager
        coordinator.crash_manager.on_stop()  # no further waves
        cluster.sim.run(until=0.45)
        held, wave = dict(cm.committed), cm.committed_wave
        assert wave >= 1
        for shards in ([[0, {"frames": []}]],        # the retired dict shape
                       [[0, held[0]], [1, "text"]],  # one bad shard of two
                       [[0, held[0]], "junk"],       # not a pair
                       7):                           # not a list
            coordinator.message_manager.send(coordinator.crash_manager._msg(
                backup.site_id, MsgType.CHECKPOINT_REPLICA,
                {"wave": wave + 5, "shards": shards}))
        cluster.sim.run(until=0.5)
        assert cm.stats.get("malformed_shards").count == 4
        assert (cm.committed_wave, cm.committed) == (wave, held)

    def test_shard_nesting_does_not_count_against_the_envelope(self):
        """A shard is parsed on its own, so a value may nest as deep inside
        one as it may anywhere else; as a subtree of the envelope it lost
        five levels to the containers around it."""
        depth = MAX_DECODE_DEPTH - 5
        deep = []
        for _ in range(depth):
            deep = [deep]
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        coordinator, remote = cluster.sites
        addr = remote.attraction_memory.alloc_object(deep)
        tree = remote.attraction_memory.export_checkpoint()
        with pytest.raises(SerializationError):
            SDMessage.decode(remote.crash_manager._msg(
                coordinator.site_id, MsgType.CHECKPOINT_STATE,
                {"wave": 1, "state": tree, "site": 1}).encode())
        cm = coordinator.crash_manager
        cm.start_checkpoint()
        cluster.sim.run(until=0.3)
        assert cm.committed_wave == 1
        remote.attraction_memory.reset_program_state()
        cm._send_recover(remote.site_id, MsgType.RECOVER_STATE,
                         {"state": cm.committed[remote.site_id],
                          "epoch": remote.epoch, "shard": remote.site_id})
        cluster.sim.run(until=0.4)
        assert remote.attraction_memory.objects[addr] == deep
        assert remote.crash_manager.stats.get("malformed_shards").count == 0
