"""Focused tests for the crash manager: checkpoint waves, coordinator
selection, rollback mechanics, and epoch fencing.
"""

from __future__ import annotations

import zlib

import pytest

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    SchedulingConfig,
    SDVMConfig,
    SiteConfig,
)
from repro.apps import build_primes_program, first_n_primes
from repro.common.errors import SerializationError
from repro.common.ids import GlobalAddress
from repro.core.frames import MISSING, Microframe
from repro.crash import manager as crash_manager
from repro.crash.manager import CrashManager, pack_shard, unpack_shard
from repro.memory.manager import AttractionMemory
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


def ctrl(mtype, src, **payload):
    """Crash control from site ``src``, as its ``_on_<type>`` gets it."""
    return SDMessage(type=mtype, src_site=src, dst_site=-1, payload=payload)


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
            cm._on_checkpoint_ack(ctrl(MsgType.CHECKPOINT_ACK, logical,
                                       wave=wave))
        assert not cm._acks_pending
        assert cm._states_pending  # snapshot phase still outstanding
        return cluster, cm, wave

    def test_participant_death_aborts_wave_and_resumes(self):
        cluster, cm, wave = self._mid_wave_cluster()
        victim = cluster.sites[2]
        victim_logical = victim.site_id
        victim.crash()
        cluster.sites[0].cluster_manager.mark_dead(victim_logical)
        assert cm.stats.get("wave_abort").count == 1
        assert not cm._acks_pending and not cm._states_pending
        # a stale CHECKPOINT_STATE from the aborted wave is fenced out
        cm._on_checkpoint_state(ctrl(
            MsgType.CHECKPOINT_STATE, victim_logical, wave=wave,
            state=dumps({"stale": True})))
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
        assert cm.stats.get("wave_abort").count == 0

    def test_next_wave_commits_after_abort(self):
        cluster, cm, _wave = self._mid_wave_cluster()
        coordinator = cluster.sites[0]
        victim = cluster.sites[2]
        victim.crash()
        coordinator.cluster_manager.mark_dead(victim.site_id)
        cm.start_checkpoint()
        wave2 = cm._wave
        alive = [r.logical for r in
                 coordinator.cluster_manager.sites.values() if r.alive]
        assert victim.site_id not in alive
        for logical in alive:
            cm._on_checkpoint_ack(ctrl(MsgType.CHECKPOINT_ACK, logical,
                                       wave=wave2))
        for logical in alive:
            cm._on_checkpoint_state(ctrl(
                MsgType.CHECKPOINT_STATE, logical, wave=wave2,
                state=dumps({"site": logical})))
        assert cm.committed_wave == wave2
        assert set(cm.committed) == set(alive)
        assert cm.stats.get("wave_commit").count == 1


class TestCutWithoutDrain:
    """A wave pauses a site without draining it: an execution running at
    the cut is recorded as its frame, with the arguments it started from,
    and its effects wait for the wave's COMMIT."""

    def test_a_running_collect_is_cut_as_its_frame_and_rerun_once(self):
        # slow CPUs: collect's 20 work units take 20 ms, a wave about 3 ms
        cluster = SimCluster(
            nsites=3, site_configs=[SiteConfig(speed=1e-3)] * 3,
            config=config(ckpt_interval=1000.0,
                          heartbeats=False).with_(trace=True))
        handle = cluster.submit(build_primes_program(),
                                args=(12, 2, 1.0, 1.0))
        # step until a collect has run (its state dict mutated in place)
        # and computes
        while True:
            assert cluster.sim.step()
            running = [(site, frame, args) for site in cluster.sites
                       for frame, (args, _epoch)
                       in site.processing_manager._uncommitted.items()
                       if isinstance(args[0], dict)
                       and frame.params[0] != args[0]]
            if running:
                break
        (site, frame, args), = running
        before = args[0]["next_candidate"]
        assert frame.params[0]["next_candidate"] == before + 1
        coordinator = cluster.sites[0].crash_manager
        coordinator.start_checkpoint()
        wave = coordinator._wave
        while coordinator.committed_wave < wave:
            assert cluster.sim.step()
        committed_at = cluster.sim.now
        shard = unpack_shard(coordinator.committed[site.site_id])
        cut, = [f for f in map(Microframe.from_wire, shard["frames"])
                if f.frame_id == frame.frame_id]
        assert cut.params[0] == args[0]  # as it started, not as it is now
        assert cut.params[0]["next_candidate"] == before

        def ends():
            return [e.ts for e in cluster.tracer.select(kind="exec_end")
                    if e.fields[0] == frame.frame_id.pack()]
        # the wave committed while the collect still computed
        while not ends():
            assert cluster.sim.step()
        assert ends()[0] > committed_at
        # roll back to that wave: the cut frame runs once more
        crashed_at = cluster.sim.now
        victim = [s for s in cluster.sites[1:] if s is not site][-1]
        victim.crash()
        cluster.sites[0].cluster_manager.mark_dead(victim.site_id)
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(12)
        runs = [e for e in cluster.tracer.select(kind="exec_begin")
                if e.fields[0] == frame.frame_id.pack()
                and e.ts > crashed_at]
        assert len(runs) == 1


    def test_ownership_does_not_cross_an_open_wave(self):
        """A MEM_READ reaching the owner while its wave is open is served
        only once the wave has ended: the object is cut where it is."""
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        addr = a.attraction_memory.alloc_object("v")
        a.crash_manager._on_pause(1, a.site_id)
        read = []
        b.attraction_memory.live_read(
            addr, lambda value=None, error=None: read.append(value))
        cluster.sim.run(until=0.3)
        assert read == [] and addr in a.attraction_memory.objects
        cut = unpack_shard(pack_shard(
            a.attraction_memory.export_checkpoint()))
        assert [obj[0] for obj in cut["objects"]] == [addr]
        a.crash_manager._on_checkpoint_commit(ctrl(
            MsgType.CHECKPOINT_COMMIT, a.site_id, wave=1))
        cluster.sim.run(until=0.4)
        assert read == ["v"] and addr in b.attraction_memory.objects
        assert addr not in a.attraction_memory.objects


class TestCheckpointCost:
    def test_waves_every_50_ms_cost_treesum_little(self):
        """The checkpoint's cost gate: a wave pauses the cluster only for
        its own round trips, so on 8 sites checkpointing every 0.05 s
        (about 47 waves) the run is within 3 % of the same run without
        checkpoints, and blame puts at most 2 % of site-time in the pause.
        When a wave waited for every running execution to finish, this
        plan ran 39 % longer and paused 28 % of site-time."""
        from repro.apps import build_treesum_program, treesum_expected
        from repro.trace.blame import blame_cluster
        runs = {}
        for enabled in (True, False):
            cluster = SimCluster(nsites=8, config=SDVMConfig(
                trace=True,
                checkpoint=CheckpointConfig(enabled=enabled, interval=0.05)))
            handle = cluster.submit(build_treesum_program(),
                                    args=(512, 20000.0))
            cluster.run(progress_timeout=60.0)
            assert handle.result == treesum_expected(512)
            runs[enabled] = cluster, handle.duration
        cluster, virtual_s = runs[True]
        assert cluster.sites[0].crash_manager.committed_wave >= 20
        assert virtual_s <= 1.03 * runs[False][1]
        blame = blame_cluster(cluster)
        assert (blame.totals["checkpoint-pause"]
                <= 0.02 * blame.cluster_seconds)


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
            "recovery_begin").count >= 2

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

    def test_recover_control_ahead_of_its_epoch_is_not_acked(
            self, monkeypatch):
        """A RECOVER_DONE that overtook its RECOVER_BEGIN withholds the
        ack, so the coordinator's resend comes back once this site has
        entered the epoch; one of the current epoch is acked."""
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        coordinator, site = cluster.sites
        sent = []
        monkeypatch.setattr(site.message_manager, "send", sent.append)

        def done(seq, epoch):
            site.message_manager._dispatch(SDMessage(
                type=MsgType.RECOVER_DONE, src_site=coordinator.site_id,
                dst_site=site.site_id, seq=seq, payload={"epoch": epoch}))

        done(1, site.epoch + 1)
        assert sent == []
        assert site.crash_manager.stats.get("early_recover_done").count == 1
        done(2, site.epoch)
        assert [(m.type, m.reply_to) for m in sent] == [(MsgType.ACK, 2)]

    def test_second_crash_during_recovery_is_queued_and_drained(
            self, monkeypatch):
        """S1: a crash detected while a recovery is in flight used to
        start an overlapping recovery that clobbered the first one's
        state distribution.  It must be queued and handled serially."""
        cluster = SimCluster(nsites=4, config=config(ckpt_interval=0.1))
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 2000.0, 20000.0))
        coordinator, second = cluster.sites[0], cluster.sites[2]
        start = coordinator.crash_manager._start_recovery
        started = []

        def start_then_lose_another(dead):
            start(dead)
            if not started:
                # the second death is observed inside the first recovery,
                # whatever the message sizes make the detector's timing
                started.append(dead)
                second.crash()
                coordinator.cluster_manager.mark_dead(second.site_id)

        monkeypatch.setattr(coordinator.crash_manager, "_start_recovery",
                            start_then_lose_another)
        cluster.crash_site(3, at=0.5)
        cluster.run(progress_timeout=180.0)
        assert started == [cluster.sites[3].site_id]
        assert handle.result == first_n_primes(40)
        cm = cluster.sites[0].crash_manager
        assert cm.stats.get("crashes_queued").count >= 1
        assert cm.stats.get("recovery_begin").count >= 2
        assert not cm.recovering and not cm._crash_queue

    def test_no_survivor_resumes_before_it_adopted_its_shard(
            self, monkeypatch):
        """RECOVER_DONE used to leave one settle delay after the shards,
        acked or not.  With a survivor's RECOVER_STATE dropped twice, the
        small DONE overtook the retried STATE: the survivor (and the
        coordinator) resumed before the survivor held its shard."""
        cluster = SimCluster(nsites=4, config=config(ckpt_interval=0.1))
        handle = cluster.submit(build_primes_program(),
                                args=(40, 6, 2000.0, 20000.0))
        coordinator, lossy = cluster.sites[0], cluster.sites[1]
        send, dropped = coordinator.message_manager.send, []

        def drop_twice(msg):
            if (msg.type is MsgType.RECOVER_STATE
                    and msg.dst_site == lossy.site_id and len(dropped) < 2):
                dropped.append(cluster.sim.now)
                return True  # lost on the wire: no ack comes back
            return send(msg)

        monkeypatch.setattr(coordinator.message_manager, "send", drop_twice)
        events = []
        for site in cluster.sites[:3]:
            def adopt(state, site=site, real=site.attraction_memory.adopt_state):
                events.append((site.site_id, "adopt"))
                return real(state)

            def done(msg, site=site,
                     real=site.crash_manager._on_recover_done):
                was_paused = site.paused
                real(msg)
                if was_paused and not site.paused:
                    events.append((site.site_id, "resume"))

            monkeypatch.setattr(site.attraction_memory, "adopt_state", adopt)
            monkeypatch.setattr(site.crash_manager, "_on_recover_done", done)
        cluster.crash_site(3, at=0.5)
        cluster.run(progress_timeout=180.0)
        assert handle.result == first_n_primes(40)
        assert len(dropped) == 2
        assert coordinator.message_manager.stats.get(
            "resends").count >= 2
        # the first recovery: every survivor adopts, then anyone resumes
        first_resume = events.index(
            next(e for e in events if e[1] == "resume"))
        adopted = {site for site, kind in events[:first_resume]
                   if kind == "adopt"}
        assert adopted == {site.site_id for site in cluster.sites[:3]}

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
        committed_before = cm.stats.get("wave_commit").count
        wave_before = cm.committed_wave
        src = cluster.sites[1].site_id
        cm._on_checkpoint_state(ctrl(MsgType.CHECKPOINT_STATE, src,
                                     wave=cm._wave,
                                     state=dumps({"dup": True})))
        assert cm.stats.get("wave_commit").count == committed_before
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
        shard = unpack_shard(cm.committed[site.site_id])
        (shard_frame,) = [f for f in map(Microframe.from_wire,
                                         shard["frames"])
                          if f.frame_id == frame.frame_id]
        assert [[i, v] for i, v in enumerate(shard_frame.params)
                if v is not MISSING] == [[0, {"results": [1]}]]

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
        committed = unpack_shard(cm.committed[site.site_id])
        assert [value for at, value, _version in committed["objects"]
                if at == addr] == [{"results": [1]}]

    def test_duplicate_ack_after_drain_is_ignored(self):
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        cm = cluster.sites[0].crash_manager
        assert cm.committed_wave >= 1
        states_before = set(cm._states_pending)
        cm._on_checkpoint_ack(ctrl(MsgType.CHECKPOINT_ACK,
                                   cluster.sites[1].site_id, wave=cm._wave))
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
        backup._on_checkpoint_replica(ctrl(
            MsgType.CHECKPOINT_REPLICA, src, wave=wave_before - 1,
            shards=[[0, dumps({"stale": True})]]))
        assert backup.committed_wave == wave_before
        assert backup.stats.get("stale_replicas_ignored").count >= 1


class TestShardBlobs:
    """A shard is serialised once, where it is cut, and is opaque bytes
    until a site adopts it."""

    def test_serialised_once_and_byte_equal_on_every_keeper(
            self, monkeypatch):
        states = []
        on_state = CrashManager._on_checkpoint_state

        def counted(cm, msg):
            states.append(msg.src_site)
            on_state(cm, msg)

        monkeypatch.setattr(CrashManager, "_on_checkpoint_state", counted)
        monkeypatch.setattr(crash_manager, "SNAPSHOT_REPLICAS", 2)
        cfg = config(heartbeats=False).with_(
            checkpoint=CheckpointConfig(enabled=True, interval=0.1))
        cluster = SimCluster(nsites=8, config=cfg)
        handle = cluster.submit(build_primes_program(),
                                args=(60, 8, 800.0, 8000.0))
        cluster.run(progress_timeout=60.0)
        cluster.sim.run(until=cluster.sim.now + 0.1)  # the last replicas
        assert handle.result == first_n_primes(60)
        stats = cluster.total_stats()
        waves = stats.get("wave_commit").count
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

    def test_committed_shard_unpacks_to_the_cut(self, monkeypatch):
        cuts = {}
        export = AttractionMemory.export_checkpoint

        def spy(memory):
            state = export(memory)
            cuts[memory.site.site_id] = loads(dumps(state))
            return state

        monkeypatch.setattr(AttractionMemory, "export_checkpoint", spy)
        cluster = SimCluster(nsites=3, config=config())
        cluster.submit(build_primes_program(), args=(40, 6, 800.0, 8000.0))
        cluster.sim.run(until=0.35)
        cm = cluster.sites[0].crash_manager
        cm.on_stop()  # no further waves: the last cut is the committed one
        cluster.sim.run(until=0.45)
        assert cm.committed_wave >= 1 and sorted(cm.committed) == [0, 1, 2]
        assert any(cuts[site]["frames"] for site in cm.committed)
        for site, blob in cm.committed.items():
            assert unpack_shard(blob) == cuts[site]
            assert len(blob) < len(dumps(cuts[site]))

    def test_flipped_byte_in_a_stored_shard_is_refused_at_adoption(self):
        """zlib's Adler-32 catches a flipped byte anywhere in a packed
        shard; a raw shard has no checksum and adopted the damage."""
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        addr = b.attraction_memory.alloc_object("kept")
        cm = a.crash_manager
        cm.start_checkpoint()
        cluster.sim.run(until=0.3)
        assert cm.committed_wave == 1
        blob = cm.committed[b.site_id]
        for at in range(len(blob)):
            flipped = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
            with pytest.raises(SerializationError):
                unpack_shard(flipped)
        raw = dumps("kept")
        assert loads(raw[:-1] + b"u") == "kepu"
        middle = len(blob) // 2
        damaged = blob[:middle] + bytes([blob[middle] ^ 0x01]) \
            + blob[middle + 1:]
        b.attraction_memory.reset_program_state()
        acks = []
        a.message_manager.request(
            cm._msg(b.site_id, MsgType.RECOVER_STATE,
                    {"state": damaged, "epoch": b.epoch,
                     "shard": b.site_id}),
            on_reply=acks.append, timeout=0.05)
        cluster.sim.run(until=0.4)
        assert [m.type for m in acks] == [MsgType.ACK]
        assert b.crash_manager.stats.get("malformed_shards").count == 1
        assert addr not in b.attraction_memory.objects
        # the undamaged shard of the same wave is adopted
        a.message_manager.request(
            cm._msg(b.site_id, MsgType.RECOVER_STATE,
                    {"state": blob, "epoch": b.epoch, "shard": 9}),
            on_reply=acks.append, timeout=0.05)
        cluster.sim.run(until=0.5)
        assert b.attraction_memory.objects[addr] == "kept"

    def test_packed_size_pins_the_zlib_build(self):
        """Shard sizes move message timings, so the chaos fingerprints
        hold for one zlib build only: a different one fails here first."""
        state = {"objects": [(GlobalAddress(i % 4, i), {"n": i, "s": "x" * i},
                              i % 3) for i in range(64)],
                 "frames": [], "dir": [], "pending": [], "programs": []}
        packed = len(pack_shard(state))
        assert packed == 804, (
            f"zlib {zlib.ZLIB_RUNTIME_VERSION} packs the pinned shard to "
            f"{packed} B; the chaos fingerprints were pinned under zlib "
            f"1.2.13: re-pin them (repro chaos corpus --twice --fingerprints)")

    def test_unreadable_recover_state_is_counted_acked_and_not_adopted(self):
        cluster = SimCluster(nsites=2, config=config(heartbeats=False))
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        whole = pack_shard({"objects": [(GlobalAddress(0, 7), "kept", 3)],
                            "frames": [], "dir": [], "pending": [],
                            "programs": []})
        hostile = [whole[:-9],              # damaged in flight: truncated
                   b"\xff\x00not a value",  # no zlib stream
                   pack_shard([1, 2, 3]),   # unpacks, but is no state
                   dumps({"objects": []}),  # a raw, uncompressed shard
                   {"objects": []}]         # the retired dict shape
        acks = []
        for shard, blob in enumerate(hostile):
            a.message_manager.request(
                a.crash_manager._msg(b.site_id, MsgType.RECOVER_STATE,
                           {"state": blob, "epoch": b.epoch,
                            "shard": shard}),
                on_reply=acks.append, timeout=0.05)
        cluster.sim.run(until=0.4)
        assert [m.type for m in acks] == [MsgType.ACK] * len(hostile)
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
        four levels to the containers around it."""
        depth = MAX_DECODE_DEPTH - 4
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
                {"wave": 1, "state": tree}).encode())
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
