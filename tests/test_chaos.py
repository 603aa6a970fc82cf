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
import types

import pytest

import repro.trace.tracer as tracer_module
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
from repro.chaos.invariants import AUDITED_KINDS
from repro.cli import main
from repro.common.errors import SDVMError
from repro.trace import Tracer

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
#: All thirteen moved when CHECKPOINT_STATE stopped repeating its sender
#: as ``site`` (the envelope's ``src_site`` says it): every plan sends
#: checkpoint shards, so shards arrive a little sooner.  Each plan sends
#: the same messages of each type as before; finish times moved by at
#: most 1 us.  No pinned plan replicates, so REPLICATE losing its
#: ``program`` (the envelope's) moved none of them.
#: Seven moved when DIR_ACK and RECOVER_ACK became the message manager's
#: one ``ACK``.  The five recovery plans (``coordinator_crash``,
#: ``crash_during_recovery``, ``crash_during_wave``, ``lossy_recovery``,
#: ``recover_done_overtakes_state``) moved by the type's name only: with
#: ``RECOVER_ACK`` read as ``ACK`` each journal equals the one before,
#: entry for entry.  ``homesite_crash`` and ``dir_shard_crash`` moved by
#: that and by the shorter directory ack (14 or 19 B -> 13 B: no
#: ``addr``), which lands up to 0.48 us sooner; no other entry changed.
#: ``signoff_leaver_silence`` moved when the leaver's hand-off began to
#: carry its sender's ``epoch`` (one byte more on the leaver's hand-off, which lands
#: that much later); ``signoff_after_rollback`` is new: a hand-off cut
#: before a rollback used to be adopted on top of the restored shards.
#: All fourteen moved when the code protocol became three types
#: (CODE_REQUEST, CODE_SOURCE, CODE_BINARY) and no code message carried
#: ``pid`` or the thread's metadata any more: every plan's binary bytes
#: fell by about 30 % (18 250 -> 12 663 B on ``primes``, 14 009 -> 10 065
#: on ``memscatter``), and bytes feed transit time.  With both binary
#: types read as CODE_BINARY and both other replies as CODE_SOURCE,
#: thirteen plans send the same messages of each type as before and
#: finish within 13 us of before (``signoff_after_rollback`` compared with
#: its pin from the epoch fence); ``wave_stall`` steals differently
#: (HELP_REQUEST 139 -> 114) and finishes 16 ms sooner.  The unpinned
#: ``sdc_replicate_corrupt`` was re-timed to mangle at 0.243-0.2625 s:
#: the VERDICT case it pins (primary 3) now has its mismatch at 0.2453 s,
#: 19 ms sooner and before the old window opened.
#: Two moved when a sign-off began to hand its state to its heir as a
#: RECOVER_STATE shard under the delivery rule and SIGN_OFF became
#: must-arrive: ``signoff_leaver_silence`` sends four ACKs more (three
#: SIGN_OFFs and the hand-off), whose packed shard is 359 B where the old
#: hand-off message's raw dict was 550 B, and finishes 2 ns sooner.
#: ``signoff_after_rollback`` resends its SIGN_OFF four times to site 1,
#: crashed but not yet detected, and resends the hand-off its delayed link
#: holds; the heir adopts the resend before the rollback and drops the held
#: copy as stale after it.  It finishes at the same instant as before.
#: ``signoff_handoff_drop`` and ``signoff_notice_drop`` are new: one lost
#: hand-off used to stall the program, and one SIGN_OFF lost on its way to
#: the coordinator to leave two owners of an object.
#: Seven moved when MEM_READ lost ``migrate`` and MEM_READ_REPLY ``owned``
#: (both were always true): ``dir_shard_crash``, ``homesite_crash``,
#: ``memory_partition`` and the four sign-off plans move by message size
#: only.  Each sends the same messages of each type, journals the same
#: kinds as often and ends at the same instant; its bytes fall by 61 to
#: 94 B, two or so per read.
#: All sixteen moved when a checkpoint wave stopped draining: a paused
#: site acks at once and holds its executions' effects until COMMIT (a
#: must-arrive type now, one ACK per participant per wave), so a wave
#: closes in about 5 ms instead of waiting for the slowest site, and a
#: sign-off hands its running executions to its heir as frames.  Every
#: trajectory shifts and most runs end sooner.  Four plans were re-aimed
#: so their tests see what they were written for:
#: ``recover_done_overtakes_state`` drops the recovery's RECOVER_STATEs
#: at 0.5015-0.5065 s (its old window now dropped an APPLY_RESULT, kept
#: as ``expected_fail/apply_result_drop.json``), ``memory_partition``
#: cuts site 2 off at 0.395-0.455 s, ``crash_during_recovery`` crashes
#: at 0.24 / 0.2401 s with its delay window at 0.4999-0.5015 s, and
#: ``homesite_crash`` is seed 29 with its crash at 0.25 s (on seed 24 no
#: site but 0 allocates an object any more).
#: ``signoff_handoff_past_rollback`` is new: ``signoff_after_rollback``'s
#: leaver now hands off before that plan's delayed window opens.
#: All seventeen moved when the refusal, redirect and not-found answers
#: became replies of their requests' one reply type (CANT_HELP is a
#: HELP_REPLY without frames, MEM_LOCATION and MEM_NOT_FOUND a
#: MEM_READ_REPLY with an owner or with neither): the type names in the
#: journal's message events changed and nothing else.  With the old
#: names mapped onto the new, every plan's journal digests equal to the
#: one before.
#: ``repro chaos corpus --twice --fingerprints`` prints this map as JSON.
PINNED_FINGERPRINTS = {
    "coordinator_crash.json":
        "9a56e24a47bfe1531f12ae431e941405d9172948f44e2699a48ff221eb55b8dc",
    "crash_during_recovery.json":
        "fac2d79718564336ca0eb3ade25ba6402f163b2ddb3308273dfa051f40175639",
    "crash_during_wave.json":
        "d7b2053a728655c49ea19a314fa3f77aa23dddb4fa38fcd72f6268fba7d2450e",
    "dir_shard_crash.json":
        "6b8e9a3ac15269e8e7124bbdc0defcb5b26564b2ebc5aa111d71145aafa382f2",
    "duplicate_delivery.json":
        "bc0dc6dee870f9139722b5401f4b655a096676352df3d2628f2a59b6a6754d4a",
    "homesite_crash.json":
        "c0b309228fda4a7025b4e564c4f7acb61647a3521c4fe41690bf6f4af1bb3211",
    "lossy_recovery.json":
        "4329919f2e93014fe13be30a5e207612421933a6e474e365549f67b3632a7df9",
    "memory_partition.json":
        "0c81d6d3730f7ff011ffa5d03d4f1f56ed5bce19e4462bb2fa46133a68d0010f",
    "partition_then_heal.json":
        "c04cdb14ae2b8214a66617829d3dae0f475e246d6db545132b1df535923b9672",
    "recover_done_overtakes_state.json":
        "a3a3d2a047a6a6282e364c8868d0ba49c3446aec8dc803785ef68025008556c8",
    "signoff_after_rollback.json":
        "cf3879c02c8722467607f86bbd65e641e4966d1e1cbbcffef4dfdd6c86264291",
    "signoff_handoff_drop.json":
        "eaeca4aa7861800a16de18832acd5c08c6319bdd03ac03f104d536a6634e6125",
    "signoff_handoff_past_rollback.json":
        "2f84de17b9059aec462e08a2c25e033182a50d7d4205da725717b3186fdb27f5",
    "signoff_leaver_silence.json":
        "5180751eb4dbdc76541e2d47333a97b4544d071d930dfbf30708ff6b83e09d84",
    "signoff_notice_drop.json":
        "0b75a464ccc7d56dc8730f888a4db234e449f492c5ecf6c974ca596c315af3aa",
    "steal_batch_reorder.json":
        "9cbde8e3da45ff24181cba63d2799bb85e09e3947eb10537cb5265882469cb8e",
    "wave_stall.json":
        "cf65b68ff37105d365310948f03e2a1eebb68bb1406461f863b24468dd463658",
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
                "signoff_after_rollback.json",
                "signoff_handoff_drop.json", "signoff_notice_drop.json",
                "signoff_handoff_past_rollback.json",
                "recover_done_overtakes_state.json"} <= names
        # the undefended twin fails by design, so it lives in a
        # subdirectory the corpus glob (and ``chaos corpus``) skip
        for name in ("sdc_undefended.json", "memory_reply_drop.json",
                     "apply_result_drop.json"):
            assert os.path.exists(os.path.join(CORPUS_DIR, "expected_fail",
                                               name))

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
        # the window opens between site 2's last MEM_READ before it and
        # the first MEM_READ_REPLY to site 2 after that read: a trajectory
        # that slides either way fails here with the three instants
        sends = result.cluster.tracer.select(kind="msg_send")
        last_read = max(e.ts for e in sends if e.site == 2
                        and e.fields[0] == "MEM_READ" and e.ts < window.end)
        first_reply = min(e.ts for e in sends
                          if e.fields[0] == "MEM_READ_REPLY"
                          and e.fields[1] == 2 and e.ts > last_read)
        assert last_read < window.start < first_reply, (
            last_read, window.start, first_reply)
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
            assert "ROADMAP item 13" in json.load(fh)["reason"]
        result = run_plan(FaultPlan.load(path))
        assert not result.ok
        failed, = [v for v in result.violations
                   if v.invariant == "completion"]
        assert "MemoryFault" in str(failed)

    def test_recover_done_waits_for_the_dropped_shards(self):
        """The window of ``recover_done_overtakes_state`` opens once
        RECOVER_BEGIN is out and drops the recovery's first RECOVER_STATEs
        and nothing of the program's: RECOVER_DONE leaves only after a
        resend has landed."""
        result = corpus_result(os.path.join(
            CORPUS_DIR, "recover_done_overtakes_state.json"))
        window = result.plan.faults[1]
        dropped = [e.fields[0] for e in result.cluster.tracer.select(
                       kind="msg_send") if window.start <= e.ts < window.end]
        assert "RECOVER_STATE" in dropped and "APPLY_RESULT" not in dropped
        done, = result.cluster.tracer.select(kind="recovery_done")
        assert done.ts > window.end
        assert result.ok, [str(v) for v in result.violations]

    def test_dropped_apply_result_loses_the_run(self):
        """Known gap, committed as an expected failure: an APPLY_RESULT is
        sent once, so the one this window drops never reaches its frame
        and the program never finishes."""
        path = os.path.join(CORPUS_DIR, "expected_fail",
                            "apply_result_drop.json")
        with open(path, encoding="utf-8") as fh:
            assert "ROADMAP item 13" in json.load(fh)["reason"]
        result = run_plan(FaultPlan.load(path))
        window = result.plan.faults[1]
        dropped = [e.fields[0] for e in result.cluster.tracer.select(
                       kind="msg_send") if window.start <= e.ts < window.end]
        assert "APPLY_RESULT" in dropped and "RECOVER_STATE" not in dropped
        assert not result.ok
        assert {v.invariant for v in result.violations} == {"completion"}

    def test_stale_sign_off_hand_off_is_dropped(self):
        """Site 1 crashes, site 3 signs off, and a delayed link holds the
        leaver's hand-off until after the rollback: the shard carries the
        epoch it was cut in and its heir drops it, since the restored
        shards already hold what it checkpointed.  Adopted, it used to make
        memscatter return a wrong result (two owners with a longer delay).
        ``signoff_after_rollback`` was written for this; since a wave no
        longer drains, its leaver hands off before that plan's delayed
        window opens, and ``signoff_handoff_past_rollback`` delays the
        hand-off itself."""
        result = corpus_result(os.path.join(CORPUS_DIR,
                                            "signoff_after_rollback.json"))
        assert result.ok, [str(v) for v in result.violations]
        result = corpus_result(os.path.join(
            CORPUS_DIR, "signoff_handoff_past_rollback.json"))
        assert result.ok, [str(v) for v in result.violations]
        window = result.plan.faults[2]
        assert [e.fields[0] for e in result.cluster.tracer.select(
                    kind="msg_send", site=3)
                if window.start <= e.ts < window.end] == ["RECOVER_STATE"]
        assert result.cluster.tracer.kinds().get("recovery_done", 0) >= 1
        assert result.cluster.total_stats().get(
            "stale_shards_dropped").count >= 1

    @pytest.mark.parametrize("name, mtype, dst", [
        ("signoff_handoff_drop", "RECOVER_STATE", 3),
        ("signoff_notice_drop", "SIGN_OFF", 0)])
    def test_a_lost_sign_off_message_is_resent(self, name, mtype, dst):
        """Both messages of a sign-off are must-arrive: the link drops the
        leaver's first hand-off to its heir (which stalled the program) or
        its SIGN_OFF to the coordinator (which left two owners of an
        object), and the one resend lands."""
        result = corpus_result(os.path.join(CORPUS_DIR, name + ".json"))
        assert result.ok, [str(v) for v in result.violations]
        sent = [e.fields[1] for e in result.cluster.tracer.events
                if e.kind == "msg_send" and e.site == 2
                and e.fields[0] == mtype]
        assert sent.count(dst) == 2
        assert result.cluster.sites[2].message_manager.stats.get(
            "resends").count == 1

    def test_every_lost_commit_is_resent(self, monkeypatch):
        """CHECKPOINT_COMMIT is must-arrive: a site whose COMMIT is lost
        would stay paused, holding the effects of every execution that
        ran on.  The single-drop sweep's 2-site memstress plan (a no-op
        link window installs the controller) loses exactly one of the
        coordinator's COMMITs per run, each of them once, and every run
        completes with its audit green."""
        from repro.messages import MsgType
        from repro.site.simcluster import SimCluster
        plan = FaultPlan(seed=0, nsites=2, workload="memstress",
                         faults=[LinkFault(start=20.0, end=40.0)])
        apply_chaos = SimCluster.apply_chaos

        def run_dropping(k):
            """Run ``plan`` losing the coordinator's k-th COMMIT on the
            wire; how many COMMITs it put on the wire."""
            sent = []

            def install(cluster, chaos):
                coordinator = cluster.sites[0]
                send = coordinator.kernel.transport_send

                def lossy(physical, data, msg=None):
                    if msg is not None and \
                            msg.type is MsgType.CHECKPOINT_COMMIT:
                        sent.append(msg.payload["wave"])
                        if len(sent) == k:
                            return True  # accepted, lost on the wire
                    return send(physical, data, msg)
                coordinator.kernel.transport_send = lossy
                return apply_chaos(cluster, chaos)
            monkeypatch.setattr(SimCluster, "apply_chaos", install)
            result = run_plan(plan)
            assert result.ok, (k, [str(v) for v in result.violations])
            return result, sent

        clean, commits = run_dropping(0)
        assert len(commits) >= 5
        for k in range(1, len(commits) + 1):
            result, sent = run_dropping(k)
            # the lost one went out twice: it was resent, and acked
            assert sent.count(sent[k - 1]) == 2, (k, sent)
            assert result.cluster.sites[0].message_manager.stats.get(
                "resends").count == 1

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
        assert stats.get("resends").count > 0
        # a shard is serialised when it is cut and parsed when it is
        # adopted: replicas, the recovery and its resends add to neither
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
                 "value": value, "epoch": dst.epoch})


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

    def test_rollback_past_a_sign_off_restores_the_leaver_on_its_heir(self):
        """Fuzz seed 98 on ``treesum``: a site signs off before a crash
        is detected, so the recovery rolls back to a wave the leaver was
        part of.  The leaver's shard must land on its heir, where its
        addresses route; adopted by the coordinator instead, its frames
        never got their parameters and the program never finished."""
        plan = random_plan(98, nsites=4, workload="treesum")
        assert sorted(f.kind for f in plan.faults) == ["crash", "sign_off"]
        result = run_plan(plan)
        assert result.ok, [str(v) for v in result.violations]
        assert result.cluster.tracer.kinds().get("recovery_done", 0) >= 1

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

    @staticmethod
    def audit(entries, handles=()):
        """The violations of a journal appended in ``entries`` order, on a
        cluster with no running site."""
        tracer = Tracer()
        for entry in entries:
            tracer.emit(*entry)
        cluster = types.SimpleNamespace(sites=[], handles=list(handles),
                                        tracer=tracer, horizon=9.0)
        return [str(v) for v in InvariantChecker(cluster).check()]

    #: coordinator 1 re-begins and re-commits wave 2, coordinator 0 goes
    #: back to epoch 1, and a tainted commit on site 3 at t=0.5 is followed
    #: by a committed wave; the noise kinds are what the audit skips
    BROKEN = [
        (0.1, 1, "wave_begin", 1, 4), (0.2, 1, "wave_commit", 1, 4),
        (0.3, 1, "wave_begin", 2, 4), (0.35, 2, "msg_send", 9, 1, 12, 1, -1),
        (0.4, 1, "wave_commit", 2, 4), (0.45, 0, "recovery_begin", 2, (3,)),
        (0.5, 3, "sdc_tainted_commit", 77), (0.55, 2, "site_sleep"),
        (0.6, 1, "wave_begin", 2, 4), (0.7, 1, "wave_commit", 2, 4),
        (0.8, 0, "recovery_begin", 1, (3,)),
    ]
    BROKEN_VIOLATIONS = [
        "[wave_monotonic] site 1 began wave 2 after wave 2",
        "[wave_monotonic] site 1 committed wave 2 after wave 2",
        "[epoch_monotonic] site 0 began recovery epoch 1 after epoch 2",
        "[sdc_commit] corrupted result of frame 77 committed on site 3 "
        "at t=0.5000 reached durable state",
    ]

    def test_journal_audits_flag_what_breaks_them(self):
        assert self.audit(self.BROKEN) == self.BROKEN_VIOLATIONS
        # the same events in a sound order break nothing
        sound = [e for e in self.BROKEN if e[0] not in (0.6, 0.7, 0.8)]
        sound[6] = (0.9, 3, "sdc_tainted_commit", 77)
        assert self.audit(sound) == []
        # a tainted commit after the last wave is durable only once the
        # program certifies a result
        done = types.SimpleNamespace(done=True, failed=False, result=None,
                                     program=types.SimpleNamespace(name="p"))
        assert self.audit(sound, [done]) == [
            "[sdc_commit] corrupted result of frame 77 committed on site 3 "
            "at t=0.9000 reached durable state"]

    def test_journal_audits_read_time_order_not_append_order(self):
        """Sites append to the journal out of time order (a live kernel's
        reactor threads do); the audits read the (ts, site) stream."""
        shuffled = self.BROKEN[1::2][::-1] + self.BROKEN[::2]
        assert self.audit(shuffled) == self.BROKEN_VIOLATIONS

    def test_schema_violation_skips_monotonicity_but_not_sdc(self):
        bad = self.BROKEN + [(0.9, 2, "warp_core_breach")]
        assert self.audit(bad) == [
            "[journal_schema] unknown trace event kind 'warp_core_breach'",
            self.BROKEN_VIOLATIONS[-1]]

    def test_audit_builds_only_the_events_it_reads(self, monkeypatch):
        """Auditing a crash plan's journal wraps the audited kinds in
        :class:`TracerEvent` and nothing else: no whole-journal sort."""
        result = corpus_result(os.path.join(CORPUS_DIR,
                                            "crash_during_wave.json"))
        assert result.ok
        tracer = result.cluster.tracer
        audited = sum(tracer.kinds()[kind] for kind in AUDITED_KINDS)
        built = []
        real = tracer_module.TracerEvent

        def counting(*raw):
            built.append(raw[2])
            return real(*raw)

        monkeypatch.setattr(tracer_module, "TracerEvent", counting)
        checker = InvariantChecker(result.cluster, expect_complete=True)
        assert checker.check() == []
        assert 0 < len(built) <= audited < len(tracer) // 100
        assert set(built) <= AUDITED_KINDS

    def test_fingerprint_digests_the_journal_at_return(self):
        result = run_plan(FaultPlan(seed=14, nsites=2))
        tracer = result.cluster.tracer
        at_return = journal_fingerprint(tracer)
        size = len(tracer)
        result.cluster.sim.run(until=result.cluster.sim.now + 0.5)
        assert len(tracer) > size
        assert journal_fingerprint(tracer) != at_return
        assert result.fingerprint == at_return
        assert result.fingerprint is result.fingerprint


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
