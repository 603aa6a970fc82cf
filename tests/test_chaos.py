"""Tests for the deterministic chaos engine: plan schema, injection
mechanics, invariant auditing, the regression corpus, and the CLI.

The corpus plans under ``tests/chaos_corpus/`` are shrunk repros of real
bugs the fuzzer flushed out; each must keep passing on the fixed code
(and four of them fail on the pre-hardening crash manager — see the
plan files' ``name`` fields for which bug each one pins down).
"""

from __future__ import annotations

import collections
import glob
import io
import json
import os

import pytest

from repro.chaos import (
    ChaosController,
    CorruptFault,
    CrashFault,
    FaultPlan,
    InvariantChecker,
    LinkFault,
    PartitionFault,
    SlowFault,
    journal_fingerprint,
    random_plan,
    run_plan,
    shrink_plan,
    verify_determinism,
)
from repro.cli import main
from repro.common.errors import SDVMError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "chaos_corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

#: journal fingerprints of every replication-off corpus plan: the
#: defense layer must be invisible (bit-for-bit) whenever
#: ``replicate_frac == 0``.  All were re-pinned when checkpoint shards
#: became opaque bytes (PR 22).  PR 23 moved only the plans whose
#: workload touches memory — ``dir_shard_crash`` and ``homesite_crash``
#: now send the MEM_READ + MEM_READ_REPLY of every migration (and the
#: trace kind is ``mem_migrated``), ``memory_partition`` is new — and
#: the eight ``primes`` plans kept theirs: the common path did not move.
#: PR 24 (SDC replays became REPLICATE / VERDICT messages) moved none by
#: itself; three moved with its satellites: ``crash_during_recovery`` and
#: ``lossy_recovery`` were re-timed into the run (crash at 0.3 s instead
#: of 1.0 / 0.8 s, after primes had exited at 0.51 s), and in
#: ``homesite_crash`` the orphans of dead homesite 3 are published to
#: site 0 (lowest alive id above, wrapping) where the deleted hash ring
#: sent one of them to site 2 — every per-type message count is unchanged.
#: All eleven moved when every byte began to say something new: the load
#: figures travel once, as varints in the envelope (14 bytes less per
#: message, none repeated in a payload), a help request carries the
#: thief's record only to a stranger, and a site record is a 7-element
#: list without figures.  Bytes feed transit time, so trajectories shift;
#: ``crash_during_recovery`` was re-timed (crashes at 0.29 s) so its
#: second crash still lands mid-recovery.
#: None moved when the load-report flush stopped ticking.  Two moved when
#: they were re-timed into the run: ``partition_then_heal`` cuts site 2
#: off at 0.2-0.26 s (its cut at 0.8 s fell on an idle cluster, primes
#: having exited at 0.52 s), and ``duplicate_delivery`` duplicates from
#: 0.1 s (its window opened 7 ms before the exit).
#: All eleven moved when any message became a heartbeat: a site skips the
#: HEARTBEAT to a peer it wrote to during the interval, so every chaos
#: trajectory sends fewer messages and shifts.  Two scenario plans were
#: re-timed so their tests see what they were written for:
#: ``memory_partition`` cuts site 2 off at 0.4758-0.5358 s (four
#: ownership replies on the wire again), and ``sdc_replicate_corrupt``
#: mangles at 0.248-0.2675 s (both the REPLICATE and the VERDICT case).
#: ``signoff_leaver_silence`` is new: a leaver that drained past the
#: heartbeat timeout used to declare the live cluster crashed.
#: All twelve moved when frames and program infos went positional on the
#: wire: steal replies and checkpoint shards shrank, and bytes feed transit
#: time.  ``recover_done_overtakes_state`` is new: RECOVER_DONE used to
#: leave before a retried RECOVER_STATE had landed.
#: All thirteen moved when a manager began to record each fact under one
#: name (``Manager.note``): four kinds took the name of the counter the
#: benchmark reads (``help_request`` -> ``help_sent``, ``steal_in`` ->
#: ``steals_in``, ``push_out`` -> ``frames_pushed``, ``mem_migrated`` ->
#: ``migrations_in``), a pushed binary's hit is ``code_binary_hit``, and
#: ``steal_out`` is journaled after its HELP_REPLY left instead of before.
#: With those five kinds mapped back, every plan's sorted journal equals
#: the one before, entry for entry.
#: ``repro chaos corpus --twice --fingerprints`` prints this map as JSON.
PINNED_FINGERPRINTS = {
    "coordinator_crash.json":
        "f0d6cc39aed32bceac3fb69c09bbbd7a53e335551738b16428104441af451ff3",
    "crash_during_recovery.json":
        "018e9df5b731f2e85c9074cbf545f8ffdab5491a5a4ec986f1e58b6e9080c720",
    "crash_during_wave.json":
        "e73698eaf4810bca57f4ba88d185818f0228bbe8b6abe9bda0ae8d163f87c5e8",
    "dir_shard_crash.json":
        "fa77a001d424993df3fc91190683649530845c2b8d18a4c29023ee35fe71e28a",
    "duplicate_delivery.json":
        "40f6da7c428bf27f56915993f1260827077dd265bbfa1fdb41a9d48564457957",
    "homesite_crash.json":
        "20d97c37e8820b3a5b5e3c208e6a297f29db8a6355b5ff7f6a7be3f2fca71812",
    "lossy_recovery.json":
        "cc12897a36c2850b611de6841df2ec056c6152c051ca828e4fcf94a23634395f",
    "memory_partition.json":
        "e9839cc1742c065e3b6bda9597a15b587492937e4583384f31a1069b702028f6",
    "partition_then_heal.json":
        "400d67a79c23d8a83536ea56c97b61b5914ac5c6a8145ce69debad4f536262a3",
    "recover_done_overtakes_state.json":
        "880b48a96f767d9e9ca00dbe4ee9b5def00e4f4d39bea999470c1e30d6eb6468",
    "signoff_leaver_silence.json":
        "b489bdbbe58629b8cbf4e90a7f0d467230afba8d0364048f01c29b42d9a6a489",
    "steal_batch_reorder.json":
        "fd2600c56c2cc22406d4d01ad9352af7613b58fe1561bc6baa4c0ff1cbb6fd5c",
    "wave_stall.json":
        "f1899c4a31c60271029687b0b562a13f8d0e7f28ca83bf9fff43c49d1847042f",
}

_corpus_results = {}


def corpus_result(path):
    """Run one corpus plan at most once per session (results are shared
    between the pass/fingerprint tests, which keeps the suite's corpus
    cost where it was before fingerprint pinning)."""
    if path not in _corpus_results:
        _corpus_results[path] = run_plan(FaultPlan.load(path))
    return _corpus_results[path]


def corpus_plan(name):
    return FaultPlan.load(os.path.join(CORPUS_DIR, f"{name}.json"))


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = random_plan(3)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan

    def test_save_load_roundtrip(self, tmp_path):
        plan = random_plan(4)
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_schema_is_versioned(self):
        blob = json.loads(random_plan(1).to_json())
        assert blob["schema"] == "sdvm-chaos/1"

    def test_generator_is_deterministic(self):
        assert random_plan(9) == random_plan(9)
        assert random_plan(9) != random_plan(10)

    def test_generator_never_kills_submit_site_or_last_survivor(self):
        for seed in range(30):
            plan = random_plan(seed)
            doomed = {f.site for f in plan.faults
                      if f.kind in ("crash", "sign_off")}
            assert plan.submit_site not in doomed
            assert len(doomed) < plan.nsites

    def test_validate_rejects_bad_site(self):
        plan = FaultPlan(nsites=2, faults=[CrashFault(at=1.0, site=5)])
        with pytest.raises(SDVMError):
            plan.validate()

    def test_shrink_finds_minimal_subset(self):
        faults = [CrashFault(at=1.0, site=1),
                  LinkFault(start=0.5, end=0.9, drop=0.5),
                  PartitionFault(start=0.2, end=0.3, group=(2,))]
        plan = FaultPlan(nsites=4, faults=faults)

        def still_fails(candidate):
            # pretend the crash alone reproduces the bug
            return any(f.kind == "crash" for f in candidate.faults)

        shrunk = shrink_plan(plan, still_fails)
        assert shrunk.faults == [CrashFault(at=1.0, site=1)]

    def test_unknown_fault_field_is_rejected_by_name(self):
        """A typo'd field name used to be silently dropped — the plan
        loaded fine and the fault fired with default values."""
        blob = json.loads(random_plan(1).to_json())
        blob["faults"] = [{"kind": "crash", "at": 1.0, "sites": 1}]
        with pytest.raises(SDVMError, match="sites"):
            FaultPlan.from_json(json.dumps(blob))

    def test_window_fault_requires_start_before_end(self):
        blob = json.loads(random_plan(1).to_json())
        blob["faults"] = [{"kind": "link", "start": 0.9, "end": 0.5,
                           "drop": 0.5}]
        with pytest.raises(SDVMError, match="start"):
            FaultPlan.from_json(json.dumps(blob))

    def test_corrupt_fault_mode_is_validated(self):
        blob = json.loads(random_plan(1).to_json())
        blob["faults"] = [{"kind": "corrupt", "start": 0.1, "end": 0.5,
                           "mode": "bogus"}]
        with pytest.raises(SDVMError, match="mode"):
            FaultPlan.from_json(json.dumps(blob))

    def test_replicate_frac_range_is_validated(self):
        with pytest.raises(SDVMError):
            FaultPlan(nsites=2, replicate_frac=1.5).validate()

    @pytest.mark.parametrize("field, value", [
        ("ckpt_interval", 0),  # the wave timer re-armed at zero delay
        ("nsites", 0),
        ("submit_site", 7),    # an IndexError from simcluster.py
        ("horizon", 0),
    ])
    def test_plan_file_that_cannot_run_is_rejected(self, field, value):
        blob = {"schema": "sdvm-chaos/1", "nsites": 3,
                "workload": "primes", "faults": [], field: value}
        with pytest.raises(SDVMError, match=field):
            FaultPlan.from_json(json.dumps(blob))

    def test_corrupt_end_extends_the_drain_horizon(self):
        """A late corruption window must not outlive the audit: the
        drain bound has to cover every fault kind's ``end``."""
        from repro.chaos.fuzz import _last_fault_time
        plan = FaultPlan(nsites=2, faults=[
            CrashFault(at=1.0, site=1),
            CorruptFault(start=2.0, end=5.0, site=0)])
        assert _last_fault_time(plan) == 5.0

    def test_shrinker_preserves_corrupt_fault(self):
        """Shrinking a corruption-induced failure must keep the
        corruption fault (dropping it makes the failure vanish)."""
        plan = FaultPlan(nsites=4, faults=[
            CrashFault(at=1.0, site=1),
            LinkFault(start=0.5, end=0.9, drop=0.5),
            CorruptFault(start=0.3, end=0.8, site=2)])

        def still_fails(candidate):
            return any(f.kind == "corrupt" for f in candidate.faults)

        shrunk = shrink_plan(plan, still_fails)
        assert shrunk.faults == [CorruptFault(start=0.3, end=0.8, site=2)]

    def test_corrupt_generator_extends_the_base_plan(self):
        """``corrupt=False`` plans stay bit-identical per seed; the
        corrupt variant appends one corruption window and arms full
        replication."""
        base = random_plan(5)
        assert base == random_plan(5, corrupt=False)
        corrupt = random_plan(5, corrupt=True)
        extras = [f for f in corrupt.faults if f.kind == "corrupt"]
        assert len(extras) == 1
        assert [f for f in corrupt.faults if f.kind != "corrupt"] \
            == base.faults
        assert 0 <= extras[0].site < corrupt.nsites
        assert corrupt.replicate_frac == 1.0


class TestCorpus:
    def test_corpus_is_committed(self):
        names = {os.path.basename(p) for p in CORPUS}
        assert {"crash_during_wave.json", "crash_during_recovery.json",
                "coordinator_crash.json", "partition_then_heal.json",
                "duplicate_delivery.json", "lossy_recovery.json",
                "steal_batch_reorder.json", "dir_shard_crash.json",
                "homesite_crash.json", "sdc_detected.json",
                "memory_partition.json",
                "sdc_replicate_corrupt.json",
                "signoff_leaver_silence.json",
                "recover_done_overtakes_state.json"} <= names
        # the undefended twin fails by design, so it lives in a
        # subdirectory the corpus glob (and ``chaos corpus``) skip
        assert os.path.exists(os.path.join(
            CORPUS_DIR, "expected_fail", "sdc_undefended.json"))

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
    def test_corpus_plan_passes(self, path):
        result = corpus_result(path)
        assert result.ok, [str(v) for v in result.violations]

    @pytest.mark.parametrize(
        "path",
        [p for p in CORPUS
         if os.path.basename(p) in PINNED_FINGERPRINTS],
        ids=[os.path.basename(p) for p in CORPUS
             if os.path.basename(p) in PINNED_FINGERPRINTS])
    def test_replication_off_fingerprints_are_pinned(self, path):
        """The SDC defense must be bit-invisible when replication is off:
        every pre-replication corpus plan replays to the exact journal
        fingerprint it had before the feature landed."""
        plan = FaultPlan.load(path)
        assert plan.replicate_frac == 0.0
        result = corpus_result(path)
        assert result.fingerprint == PINNED_FINGERPRINTS[
            os.path.basename(path)]

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
    def test_crashes_and_link_windows_hit_a_running_program(self, path):
        """A crash, link window or partition that opens after the program
        has exited recovers (or mangles, or cuts) a cluster with nothing to
        lose — and one that opens in the run's last tenth catches a
        program that is all but done."""
        result = corpus_result(path)
        finished = result.cluster.handles[0].finish_time
        starts = [fault.at if isinstance(fault, CrashFault) else fault.start
                  for fault in result.plan.faults
                  if isinstance(fault, (CrashFault, LinkFault,
                                        PartitionFault))]
        assert all(start < 0.9 * finished for start in starts), (
            starts, finished)

    def test_partition_holds_back_ownership_replies(self):
        """Chaos reaches memory: the window of ``memory_partition`` opens
        with site 2's MEM_READs answered and the replies — each carrying
        an object's ownership — still on the wire.  They land after the
        heal and are adopted; nothing is lost, nothing forks."""
        result = corpus_result(os.path.join(CORPUS_DIR,
                                            "memory_partition.json"))
        plan = corpus_plan("memory_partition")
        window = plan.faults[0]
        held = [e for e in result.cluster.tracer.events
                if e.kind == "migrations_in" and e.site == 2
                and window.end <= e.ts < window.end + 5e-4]
        assert len(held) == 4
        stats = result.cluster.total_stats()
        assert stats.get("migrations_in").count \
            == stats.get("reads_served").count > len(held)

    def test_dropped_ownership_reply_loses_the_object(self):
        """Known gap, committed as an expected failure: a *dropped*
        ownership-carrying MEM_READ_REPLY is not re-sent (the shipper let
        the object go), so the reader's retries end in MemoryFault."""
        path = os.path.join(CORPUS_DIR, "expected_fail",
                            "memory_reply_drop.json")
        with open(path, encoding="utf-8") as fh:
            assert "ROADMAP item 2" in json.load(fh)["reason"]
        result = run_plan(FaultPlan.load(path))
        assert not result.ok
        failed, = [v for v in result.violations
                   if v.invariant == "completion"]
        assert "MemoryFault" in str(failed)

    def test_replay_is_bit_deterministic(self):
        first, second = verify_determinism(corpus_plan("crash_during_wave"))
        assert first and first == second

    def test_lossy_recovery_exercises_retries(self, monkeypatch):
        """S3 regression: a total drop window over RECOVER_STATE/DONE is
        survived only because recovery control is acked and re-sent."""
        import repro.crash.manager as crash_manager
        calls = collections.Counter()

        def counting(name, real):
            def call(value):
                calls[name] += 1
                return real(value)
            return call

        for name in ("dumps", "loads"):
            monkeypatch.setattr(crash_manager, name,
                                counting(name, getattr(crash_manager, name)))
        result = run_plan(corpus_plan("lossy_recovery"))
        assert result.ok, [str(v) for v in result.violations]
        assert result.cluster.network_stats().get("chaos_dropped").count > 0
        stats = result.cluster.total_stats()
        assert stats.get("recover_retries").count > 0
        # a shard is serialised when it is cut and parsed when it is
        # adopted: replicas, the recovery and its retries add to neither
        # (four sites cut wave 1, the three survivors every later one)
        assert stats.get("replicas_adopted").count > 0
        shards_cut = sum(e.fields[1] for e in result.cluster.tracer.events
                         if e.kind == "wave_commit")
        assert shards_cut > 4 * 1
        assert calls["dumps"] == stats.get("shards_serialized").count \
            == shards_cut
        assert calls["loads"] == 4 * stats.get("recovery_begin").count

    def test_crash_during_recovery_queues_second_crash(self):
        """S1 regression: the second crash lands while ``recovering`` and
        must be queued, then recovered serially."""
        result = run_plan(corpus_plan("crash_during_recovery"))
        assert result.ok, [str(v) for v in result.violations]
        stats = result.cluster.total_stats()
        assert stats.get("crashes_queued").count >= 1
        assert stats.get("recovery_begin").count >= 2

    def test_two_recoveries_from_one_wave_restore_the_same_state(
            self, monkeypatch):
        """Two crashes far enough apart that the program runs on between
        the recoveries, close enough that no wave commits in between (a
        wave that includes a dead, not yet suspected site aborts).  The
        coordinator adopts its own shard and the first victim's without a
        wire; primes' collect thread then mutates its restored state in
        place.  Adopting ``committed`` by reference let that rewrite the
        checkpoint, and the second recovery distributed post-checkpoint
        state: the run never finished."""
        from repro.memory.manager import AttractionMemory
        from repro.serde import dumps
        adopted = {}
        adopt_state = AttractionMemory.adopt_state

        def spy(memory, state):
            adopted.setdefault(memory.site.epoch, []).append(dumps(state))
            adopt_state(memory, state)

        monkeypatch.setattr(AttractionMemory, "adopt_state", spy)
        result = run_plan(FaultPlan(
            seed=7, nsites=4, ckpt_interval=0.2, horizon=60.0,
            faults=[CrashFault(at=0.25, site=3), CrashFault(at=0.52, site=2)]))
        assert result.ok, [str(v) for v in result.violations]
        kinds = [e.kind for e in result.cluster.tracer.events
                 if e.kind in ("wave_commit", "recovery_begin")]
        assert kinds[:3] == ["wave_commit", "recovery_begin",
                             "recovery_begin"]
        assert len(adopted[1]) == 4
        assert sorted(adopted[1]) == sorted(adopted[2])

    def test_coordinator_crash_recovers_from_replica(self):
        """S2 regression: the successor coordinator restores from its
        replicated snapshot instead of declaring the program lost."""
        result = run_plan(corpus_plan("coordinator_crash"))
        assert result.ok, [str(v) for v in result.violations]
        assert result.cluster.total_stats().get(
            "replicas_adopted").count >= 1

    def test_steal_batching_survives_reorder(self):
        """Batched HELP_REPLYs and proactive pushes under a long message
        reorder window: late replies must stay fenced (no backoff reset)
        and every batched frame must land exactly once."""
        result = run_plan(corpus_plan("steal_batch_reorder"))
        assert result.ok, [str(v) for v in result.violations]
        stats = result.cluster.total_stats()
        # reordering is modelled as an extra delivery delay on the picked
        # fraction of messages, so it surfaces in the delayed counter
        assert result.cluster.network_stats().get("chaos_delayed").count > 0
        assert stats.get("steals_in").count > 0
        first, second = verify_determinism(corpus_plan("steal_batch_reorder"))
        assert first and first == second

    def test_dir_shard_crash_rehomes_directory(self):
        """Directory regression: crash a site that has attracted memory
        objects while the memstress workload is migrating them between
        sites.  Recovery must re-own them elsewhere and tell their
        homesite, keep ownership single, and replayed reads must see the
        rolled-back object values (the exact final sum checks it)."""
        result = corpus_result(
            os.path.join(CORPUS_DIR, "dir_shard_crash.json"))
        assert result.ok, [str(v) for v in result.violations]
        stats = result.cluster.total_stats()
        assert stats.get("migrations_in").count > 0
        assert stats.get("dir_updates_applied").count > 0

    def test_homesite_crash_orphans_stay_reachable(self):
        """Crash a site that *created* objects after some have migrated
        away (memscatter allocates all over the cluster; memstress only
        at the submit site, which must stay up).  The owners publish the
        orphaned addresses to the heir rule's site the moment they learn
        of the death; rollback recovery then makes the coordinator the
        dead site's heir and rehomes them there.  Every survivor must agree
        on that, and the heir's entry must name the true holder."""
        result = corpus_result(
            os.path.join(CORPUS_DIR, "homesite_crash.json"))
        assert result.ok, [str(v) for v in result.violations]
        cluster = result.cluster
        dead = cluster.sites[3]
        assert not dead.running
        survivors = [site for site in cluster.sites if site.running]
        orphans = {addr: site for site in survivors
                   for addr in site.attraction_memory.objects
                   if addr.site == dead.site_id}
        assert orphans
        heir = survivors[0].cluster_manager.sites[dead.site_id].heir
        for addr, holder in orphans.items():
            assert {site.cluster_manager.dir_site_for(addr)
                    for site in survivors} == {heir}
            assert cluster.site_by_logical(heir).attraction_memory \
                .dir_owner(addr) == holder.site_id
        # the orphan rule took them first: an owner published in the very
        # event that told it of the death, before RECOVER_BEGIN named the
        # heir — to the lowest alive id above the dead site, wrapping
        events = cluster.tracer.events
        noticed = {(e.site, e.ts) for e in events if e.kind == "site_dead"}
        early = [e for e in events
                 if e.kind == "msg_send" and e.fields[0] == "DIR_UPDATE"
                 and (e.site, e.ts) in noticed]
        assert early and {e.fields[1] for e in early} == {0}

    def test_duplicate_delivery_does_not_double_commit(self):
        result = run_plan(corpus_plan("duplicate_delivery"))
        assert result.ok, [str(v) for v in result.violations]
        assert result.cluster.network_stats().get(
            "chaos_duplicated").count > 0


class TestSilentDataCorruption:
    def test_detected_plan_has_exact_accounting(self):
        """Replication on + corruption: the run completes correctly and
        every injected corruption of a replicated thread produces exactly
        one mismatch detection and one tie-break resolution — and no
        tainted effect ever commits."""
        result = corpus_result(
            os.path.join(CORPUS_DIR, "sdc_detected.json"))
        assert result.ok, [str(v) for v in result.violations]
        kinds = result.cluster.tracer.kinds()
        corruptions = sum(
            1 for e in result.cluster.tracer.events
            if e.kind == "chaos_fault" and e.fields[0] == "corrupt_result")
        assert corruptions > 0
        assert kinds.get("sdc_mismatch") == corruptions
        assert kinds.get("sdc_resolved") == corruptions
        assert kinds.get("sdc_tainted_commit", 0) == 0
        # every replay was asked for by a message the report can see: one
        # REPLICATE per replicated execution, one more per tie-break
        stats = result.cluster.total_stats()
        breakdown = result.cluster.cluster_report().message_breakdown
        assert breakdown["REPLICATE"]["count"] == (
            stats.get("sdc_replicated").count
            + stats.get("sdc_mismatch").count)
        assert breakdown["VERDICT"]["bytes"] > 0

    def test_detected_plan_trips_the_health_detector(self):
        """With the sampler on, the replica mismatches fire the
        ``sdc_mismatch`` detector, and the first one freezes a flight
        dump of every site out of the journal."""
        plan = FaultPlan.load(os.path.join(CORPUS_DIR, "sdc_detected.json"))
        cluster = run_plan(plan, metrics_interval=0.05).cluster
        assert any(d.detector == "sdc_mismatch"
                   for d in cluster.health.detections)
        dumps = cluster.tracer.dumps
        assert dumps
        assert {d["reason"] for d in dumps.values()} == {"sdc_mismatch"}

    def test_corrupted_replicate_is_outvoted(self):
        """Chaos reaches replication: a REPLICATE mangled on its way into
        site 3 makes that buddy replay other arguments, a VERDICT mangled
        on its way into primary 3 reports other effects.  Either way the
        primary sees one mismatch and asks a third site, and its own word
        stands — also when the referee's verdict into site 3 is mangled
        too, so three answers disagree."""
        result = corpus_result(
            os.path.join(CORPUS_DIR, "sdc_replicate_corrupt.json"))
        assert result.ok, [str(v) for v in result.violations]
        events = result.cluster.tracer.events
        mangled = sum(1 for e in events if e.kind == "chaos_fault"
                      and e.fields[0] == "corrupt_replicate")
        mismatches = [e for e in events if e.kind == "sdc_mismatch"]
        assert 0 < len(mismatches) <= mangled
        # the buddy was site 3 (a REPLICATE) or the primary was (a VERDICT),
        # and this seed shows both
        assert {e.fields[1] == 3 for e in mismatches
                if 3 in (e.site, e.fields[1])} == {True, False}
        assert all(3 in (e.site, e.fields[1]) for e in mismatches)
        winners = [e.fields[1] for e in events if e.kind == "sdc_resolved"]
        assert winners == ["primary"] * len(mismatches)
        assert result.cluster.tracer.kinds().get("sdc_tainted_commit", 0) == 0
        replicates = result.cluster.cluster_report().message_breakdown[
            "REPLICATE"]["count"]
        stats = result.cluster.total_stats()
        assert replicates == (stats.get("sdc_replicated").count
                              + stats.get("sdc_mismatch").count)

    def test_replicate_corruption_is_defended_on_every_seed(self):
        """The plan tests the defense, not one lucky trajectory: a
        replicate-mode window flips only what replication can catch, so
        every seed completes correctly."""
        blob = json.loads(corpus_plan("sdc_replicate_corrupt").to_json())
        failed = []
        for seed in range(16):
            blob["seed"] = seed
            result = run_plan(FaultPlan.from_json(json.dumps(blob)))
            if not result.ok:
                failed.append((seed, [str(v) for v in result.violations]))
        assert failed == []

    def test_undefended_plan_is_flagged_by_the_invariant(self):
        """Replication off: the same corruption window silently commits
        flipped values, and the journal-driven invariant catches it."""
        path = os.path.join(CORPUS_DIR, "expected_fail",
                            "sdc_undefended.json")
        result = run_plan(FaultPlan.load(path))
        assert not result.ok
        assert "sdc_commit" in {v.invariant for v in result.violations}

    def test_param_corruption_fires_on_the_wire(self):
        """Wire-mode corruption: APPLY_RESULT payloads get flipped in
        flight (journal shows it) and the run is still deterministic.

        The horizon ends soon after the fault window: an undefended
        corrupted primes run cannot terminate (the rewritten frontier
        result makes collect's state grow without bound), and both
        assertions are decided once the window has closed."""
        plan = FaultPlan(seed=3, nsites=4, name="param", horizon=2.0,
                         faults=[CorruptFault(start=0.3, end=0.5, site=1,
                                              mode="param", prob=0.5)])
        result = run_plan(plan)
        kinds = [e.fields[0] for e in result.cluster.tracer.events
                 if e.kind == "chaos_fault"]
        assert "corrupt_param" in kinds
        assert run_plan(plan).fingerprint == result.fingerprint

    def test_replicate_chosen_is_deterministic_and_scales(self):
        from repro.sched.policies import replicate_chosen
        keys = list(range(10_000))
        chosen = [k for k in keys if replicate_chosen(k, 0.25)]
        assert chosen == [k for k in keys if replicate_chosen(k, 0.25)]
        # roughly frac of the keyspace, and monotone in frac
        assert 0.15 < len(chosen) / len(keys) < 0.35
        assert all(replicate_chosen(k, 1.0) for k in keys[:100])
        assert not any(replicate_chosen(k, 0.0) for k in keys[:100])
        half = {k for k in keys if replicate_chosen(k, 0.5)}
        assert set(chosen) <= half

    def test_record_replay_contexts_round_trip(self):
        """A shadow fed the primary's oplog + argument snapshot observes
        identical primitive-op results and argument values, touches no
        cluster state, and may not ask for more than was recorded."""
        from repro.common.errors import ProgramError
        from repro.core.program import ProgramBuilder
        from repro.proc.context import ExecutionContext
        from repro.site.simcluster import SimCluster

        prog = ProgramBuilder("rr")

        @prog.microthread(creates=("main",))
        def main(ctx, state, extra):
            state["x"] += 1  # the primary mutates its argument in place
            addr = ctx.malloc(state["x"])
            ctx.send_result(ctx.create_frame("main"), 0,
                            (addr, ctx.read(addr), ctx.now, ctx.rng.random()))
            for _ in range(extra):
                ctx.malloc(0)

        from repro.common.ids import make_program_id
        from repro.core.frames import Microframe
        cluster = SimCluster(nsites=1)
        cluster.sim.run(until=0.1)
        site = cluster.sites[0]
        pid = make_program_id(site.site_id, 7)
        table = site.program_manager.register_local(
            prog.build(), pid).thread_table()
        frame = Microframe(site.attraction_memory.alloc_address(), 0, pid, 2)
        frame.apply_parameter(0, {"x": 2})
        frame.apply_parameter(1, 0)
        primary = ExecutionContext(frame, site, table, main)
        primary.run()
        assert frame.arguments()[0] == {"x": 3}
        assert primary.args_snapshot[0] == {"x": 2}
        assert len(primary.oplog) == 3  # malloc, read, frame address
        allocated = site.attraction_memory.stats.get("objects_allocated").count

        cluster.sim.run(until=0.5)  # the shadow runs later, elsewhere
        shadow = primary.again(live=False)
        shadow.run()
        assert repr(shadow.effects) == repr(primary.effects)
        assert site.attraction_memory.stats.get(
            "objects_allocated").count == allocated
        # one op more than the primary recorded: the replay has diverged
        greedy = primary.again(live=False)
        greedy._args[1] = 1
        with pytest.raises(ProgramError, match="diverged"):
            greedy.run()


def _dispatched_at(site):
    got = []
    site.route = got.append
    return got


def _apply_result(src, dst, value):
    from repro.common.ids import GlobalAddress
    from repro.messages import MsgType, SDMessage
    return SDMessage(
        type=MsgType.APPLY_RESULT,
        src_site=src.site_id, dst_site=dst.site_id,
        payload={"addr": GlobalAddress(dst.site_id, 1), "slot": 0,
                 "value": value})


def _report_without_parse_counters(cluster):
    report = cluster.cluster_report().as_dict()
    report["counters"].pop("parsed", None)
    del report["derived"]["parsed_per_msg"]
    return report


class TestSnapshotDeliveryUnderChaos:
    """Faults act on the envelope bytes; the snapshot riding with them
    must never let a receiver see anything else than those bytes say."""

    @staticmethod
    def _pair(fault):
        from repro.chaos import chaos_config
        from repro.site.simcluster import SimCluster
        plan = FaultPlan(seed=21, nsites=2, faults=[fault])
        cluster = SimCluster(nsites=2, config=chaos_config(plan))
        cluster.apply_chaos(plan)
        cluster.sim.run(until=0.2)
        return (cluster, *cluster.sites)

    def test_duplicated_envelope_dispatches_two_independent_messages(self):
        cluster, a, b = self._pair(LinkFault(start=0.2, end=0.3, dup=1.0))
        got = _dispatched_at(b)
        parsed_before = b.message_manager.stats.get("parsed").count
        a.message_manager.send(_apply_result(a, b, [1, 2]))
        cluster.sim.run(until=0.4)
        first, second = [m for m in got if m.type.name == "APPLY_RESULT"]
        assert first is not second
        assert first.payload == second.payload
        first.payload["value"].append(3)
        assert second.payload["value"] == [1, 2]
        # one of each duplicated pair had only the bytes to go by
        assert (b.message_manager.stats.get("parsed").count
                > parsed_before)

    def test_wire_corruption_delivers_the_flipped_value(self):
        cluster, a, b = self._pair(
            CorruptFault(start=0.2, end=0.3, mode="param"))
        got = _dispatched_at(b)
        a.message_manager.send(_apply_result(a, b, 1000))
        cluster.sim.run(until=0.4)
        (delivered,) = [m for m in got if m.type.name == "APPLY_RESULT"]
        assert delivered.payload["value"] != 1000
        assert b.message_manager.stats.get("parsed").count >= 1

    @pytest.mark.parametrize("name", [None, "duplicate_delivery",
                                      "crash_during_wave"],
                             ids=["fault_free_8_sites", "dup", "crash"])
    def test_stripping_the_snapshot_changes_nothing(self, name, monkeypatch):
        """Differential: the same plan with every envelope reduced to
        plain bytes before it reaches the wire (so every delivery is
        parsed) writes the same journal and the same cluster report."""
        from repro.net.simnet import SimNetwork
        if name is None:
            plan = FaultPlan(seed=22, nsites=8)
            carried = run_plan(plan)
        else:
            plan = corpus_plan(name)
            carried = corpus_result(os.path.join(CORPUS_DIR, f"{name}.json"))
        send = SimNetwork.send
        monkeypatch.setattr(
            SimNetwork, "send",
            lambda net, src, dst, data: send(net, src, dst, bytes(data)))
        parsed = run_plan(plan)
        assert parsed.fingerprint == carried.fingerprint
        assert (_report_without_parse_counters(parsed.cluster)
                == _report_without_parse_counters(carried.cluster))
        report = parsed.cluster.cluster_report()
        assert report.derived["parsed_per_msg"] == 1.0
        # with the snapshot riding, only a duplicate's second copy is parsed
        share = carried.cluster.cluster_report().derived["parsed_per_msg"]
        if name == "duplicate_delivery":
            assert 0.0 < share < 1.0
        else:
            assert share == 0.0


class TestInjection:
    def test_partition_holds_traffic_until_heal(self):
        result = run_plan(corpus_plan("partition_then_heal"))
        assert result.ok, [str(v) for v in result.violations]
        assert result.cluster.network_stats().get("chaos_delayed").count > 0

    def test_slowdown_stretches_the_run(self):
        fast = run_plan(FaultPlan(seed=11, nsites=2))
        slow = run_plan(FaultPlan(seed=11, nsites=2, faults=[
            SlowFault(start=0.1, end=60.0, site=1, factor=8.0)]))
        assert fast.ok and slow.ok
        assert (slow.cluster.handles[0].duration
                > fast.cluster.handles[0].duration)

    def test_chaos_off_network_hook_stays_cold(self):
        """Plans without link faults must not touch the network hot path."""
        result = run_plan(FaultPlan(seed=12, nsites=2, faults=[
            CrashFault(at=0.4, site=1)]))
        assert result.ok
        assert result.cluster.network.chaos is None

    def test_faults_appear_in_the_journal(self):
        result = run_plan(corpus_plan("crash_during_wave"))
        kinds = [e.fields[0] for e in result.cluster.tracer.events
                 if e.kind == "chaos_fault"]
        assert "crash" in kinds

    def test_controller_rejects_site_count_mismatch(self):
        from repro.chaos import chaos_config
        from repro.site.simcluster import SimCluster
        plan = FaultPlan(nsites=4)
        cluster = SimCluster(nsites=2, config=chaos_config(plan))
        with pytest.raises(SDVMError):
            ChaosController(cluster, plan)

    def test_double_install_rejected(self):
        from repro.chaos import chaos_config
        from repro.site.simcluster import SimCluster
        plan = FaultPlan(seed=13, nsites=2)
        cluster = SimCluster(nsites=2, config=chaos_config(plan))
        controller = cluster.apply_chaos(plan)
        with pytest.raises(SDVMError):
            controller.install()


class TestInvariantChecker:
    def test_clean_run_has_no_violations(self):
        result = run_plan(FaultPlan(seed=14, nsites=2))
        checker = InvariantChecker(result.cluster,
                                   expect_complete=True)
        assert checker.check() == []

    def test_fingerprint_requires_tracer(self):
        assert journal_fingerprint(None) == ""


class TestChaosCli:
    def test_run_subcommand(self):
        out = io.StringIO()
        path = os.path.join(CORPUS_DIR, "crash_during_wave.json")
        assert main(["chaos", "run", path], out=out) == 0
        assert "PASS" in out.getvalue()

    def test_run_twice_reports_determinism(self):
        out = io.StringIO()
        path = os.path.join(CORPUS_DIR, "partition_then_heal.json")
        assert main(["chaos", "run", path, "--twice"], out=out) == 0
        assert "deterministic" in out.getvalue()

    def test_corpus_subcommand(self):
        out = io.StringIO()
        assert main(["chaos", "corpus", "--dir", CORPUS_DIR,
                     "--fingerprints"], out=out) == 0
        text = out.getvalue()
        assert "lossy_recovery" in text and "FAIL" not in text
        # the map printed last is what PINNED_FINGERPRINTS is pasted from
        assert json.loads(text[text.index("{"):]) == PINNED_FINGERPRINTS

    def test_fuzz_subcommand_green_seed(self):
        out = io.StringIO()
        assert main(["chaos", "fuzz", "--seeds", "1", "6"], out=out) == 0
        assert "ok" in out.getvalue()
        assert "fuzz: 6 seed(s), 0 failure(s)" in out.getvalue()

    def test_fuzz_draws_the_workload_into_every_plan(self, monkeypatch):
        """``--workload all`` runs each seed under every chaos workload,
        and the seed schedules the same faults under each."""
        import importlib
        # the package's ``fuzz`` attribute is the function, not the module
        fuzz_module = importlib.import_module("repro.chaos.fuzz")
        ran = []

        def recording(plan, **_kwargs):
            ran.append(plan)
            return fuzz_module.ChaosRunResult(plan=plan, violations=[],
                                              fingerprint="")

        monkeypatch.setattr(fuzz_module, "run_plan", recording)
        out = io.StringIO()
        assert main(["chaos", "fuzz", "--seeds", "3", "4",
                     "--workload", "all"], out=out) == 0
        workloads = list(fuzz_module.WORKLOADS)
        assert [plan.workload for plan in ran] \
            == [w for w in workloads for _seed in (3, 4)]
        assert {plan.seed: plan.faults for plan in ran} \
            == {seed: random_plan(seed).faults for seed in (3, 4)}
        text = out.getvalue()
        assert "memscatter seed 3: ok" in text
        assert "fuzz treesum: 2 seed(s), 0 failure(s)" in text
        assert text.rstrip().endswith("fuzz: 8 seed(s), 0 failure(s)")

    def test_fuzz_saves_failing_plan(self, tmp_path):
        """An unsurvivable plan (every site crashes) must be reported,
        shrunk, and written out for triage."""
        doomed = FaultPlan(seed=1, nsites=2, faults=[
            CrashFault(at=0.4, site=0), CrashFault(at=0.45, site=1)])
        plan_path = str(tmp_path / "doomed.json")
        doomed.save(plan_path)
        out = io.StringIO()
        assert main(["chaos", "run", plan_path], out=out) == 1
        assert "FAIL" in out.getvalue()


class TestBigClusterChaos:
    def test_256_sites_survive_crash_with_invariants(self):
        """Scaling-era regression: a 256-site cluster — sixteen times the
        gossip sample window, directory sharded across every site — must
        finish the treesum workload and pass the full invariant audit
        after losing a site mid-run (single ownership, no lost frames,
        exact result).  Pins two scaling-era fixes: checkpoint waves
        deferring instead of superseding (no wave ever committed past
        ~100 sites, so any crash failed the program) and the heartbeat
        watch-set grace window (a ring shift after a death used to make
        watchers declare never-heard-from live peers dead, cascading
        false crashes around the ring)."""
        plan = FaultPlan(seed=31, nsites=256, workload="treesum",
                         horizon=120.0,
                         faults=[CrashFault(at=0.55, site=17)])
        result = run_plan(plan, progress_timeout=120.0)
        assert result.ok, [str(v) for v in result.violations]
        stats = result.cluster.total_stats()
        # exactly the injected crash recovered — no cascading false
        # suspicions inflating the count
        assert stats.get("recovery_begin").count == 1
        # waves commit at scale despite O(sites) collection time
        assert stats.get("wave_commit").count >= 1
