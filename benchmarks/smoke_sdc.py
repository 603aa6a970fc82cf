"""CI smoke check for the silent-data-corruption defense
(``make sdc-smoke``).

Walks the whole detect/quarantine/tie-break pipeline on the two
committed SDC corpus plans:

1. **Defended** (``sdc_detected.json``: corruption window + full
   replication): the run must complete with the correct result, every
   injected corruption of a replicated thread must produce exactly one
   ``sdc_mismatch`` detection and one ``sdc_resolved`` tie-break, no
   tainted effect may reach a commit, and every replay was asked for by
   a ``REPLICATE`` message the cluster report counts.
2. **Health plane**: the same plan re-run with the metrics sampler on
   must trip the ``sdc_mismatch`` health detector (and only because of
   real mismatches), and the first mismatch freezes a flight dump of
   every site out of the journal.
3. **Undefended** (``expected_fail/sdc_undefended.json``: same
   corruption, replication off): the invariant audit must flag the run
   with an ``sdc_commit`` violation — corruption reached a committed
   result and the journal proves it.
4. **Live**: a 2-site ``LiveCluster`` with full replication, one
   ``send_result`` flipped on one site: detected, outvoted, no tainted
   commit, the right result.

Exits non-zero on any failure so it can gate CI.
"""

from __future__ import annotations

import os
import sys

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                      "tests", "chaos_corpus")


class _FlipOnce:
    """Flips the first integer ``send_result`` value site ``index``
    completes, and nothing after it."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.flipped = 0

    def corrupt_effects(self, index: int, effects) -> bool:  # noqa: ANN001
        if index != self.index or self.flipped:
            return False
        for effect in effects:
            value = effect.data.get("value")
            if effect.kind.value == "send_result" and type(value) is int:
                effect.data["value"] = value ^ (1 << 20)
                self.flipped += 1
                return True
        return False


def live_stage() -> int:
    """The same defense under the live kernel: threads, a real wire."""
    from repro.apps.treesum import build_treesum_program, treesum_expected
    from repro.common.config import SchedulingConfig, SDVMConfig
    from repro.runtime.live_cluster import LiveCluster

    config = SDVMConfig(scheduling=SchedulingConfig(replicate_frac=1.0))
    program, expected = build_treesum_program(), treesum_expected(32)
    args = (32, 1.0)
    with LiveCluster(nsites=2, config=config) as cluster:
        # a clean run first: both sites hold the code before the flip
        if cluster.run(program, args=args, timeout=30) != expected:
            print("FAIL: live — wrong result before any corruption")
            return 1
        corrupter = _FlipOnce(1)
        for index, site in enumerate(cluster.sites):
            site.kernel.reactor_call(
                lambda site=site, index=index:
                site.processing_manager.sdc_arm(corrupter, index))
        got = cluster.run(program, args=args, timeout=30)
    stats = cluster.cluster_report().merged
    mismatches = stats.get("sdc_mismatches").count
    resolved = stats.get("sdc_resolved").count
    tainted = stats.get("sdc_tainted_commits").count
    if (got != expected or corrupter.flipped != 1 or mismatches < 1
            or resolved != mismatches or tainted != 0):
        print(f"FAIL: live — result {got!r} (want {expected!r}), "
              f"{corrupter.flipped} flip(s), {mismatches} mismatch(es), "
              f"{resolved} resolution(s), {tainted} tainted commit(s)")
        return 1
    print(f"live: ok — 1 corruption, {mismatches} mismatch(es), each "
          f"resolved, 0 tainted commits; "
          f"{int(stats.get('sdc_verified').count)} executions verified")
    return 0


def main() -> int:
    from repro.chaos import FaultPlan, run_plan

    # 1. defended: detect + tie-break, exact accounting
    plan = FaultPlan.load(os.path.join(CORPUS, "sdc_detected.json"))
    result = run_plan(plan)
    if not result.ok:
        print("FAIL: defended plan violated invariants:")
        for violation in result.violations:
            print(f"  {violation}")
        return 1
    kinds = result.cluster.tracer.kinds()
    corruptions = sum(
        1 for e in result.cluster.tracer.events
        if e.kind == "chaos_fault" and e.fields[0] == "corrupt_result")
    mismatches = kinds.get("sdc_mismatch", 0)
    resolved = kinds.get("sdc_resolved", 0)
    tainted = kinds.get("sdc_tainted_commit", 0)
    if corruptions == 0:
        print("FAIL: the corruption window never fired")
        return 1
    if mismatches != corruptions or resolved != corruptions:
        print(f"FAIL: accounting is off — {corruptions} corruption(s), "
              f"{mismatches} mismatch(es), {resolved} resolution(s)")
        return 1
    if tainted != 0:
        print(f"FAIL: {tainted} tainted effect(s) committed under full "
              f"replication")
        return 1
    # every replay was asked for by a message the report can see: one
    # REPLICATE per replicated execution, one more per tie-break
    stats = result.cluster.total_stats()
    asked = int(stats.get("sdc_replicated").count
                + stats.get("sdc_mismatches").count)
    breakdown = result.cluster.cluster_report().message_breakdown
    sent = {kind: breakdown.get(kind, {"count": 0, "bytes": 0})
            for kind in ("REPLICATE", "VERDICT")}
    if sent["REPLICATE"]["count"] != asked or sent["VERDICT"]["bytes"] == 0:
        print(f"FAIL: {asked} replays asked for, the wire shows {sent}")
        return 1
    print(f"defended: ok — {corruptions} corruption(s), each detected "
          f"and resolved, 0 tainted commits; {asked} REPLICATE "
          f"({sent['REPLICATE']['bytes']} B), {sent['VERDICT']['count']} "
          f"VERDICT ({sent['VERDICT']['bytes']} B) on the wire")

    # 2. health plane: the sdc_mismatch detector must see the mismatches
    watched = run_plan(plan, metrics_interval=0.05)
    monitor = watched.cluster.health
    if monitor is None:
        print("FAIL: metrics-on run has no health monitor")
        return 1
    fired = [d for d in monitor.detections if d.detector == "sdc_mismatch"]
    if not fired:
        print("FAIL: health detector missed the replica mismatches")
        return 1
    dumps = watched.cluster.tracer.dumps
    if not dumps or any(d["reason"] != "sdc_mismatch"
                        for d in dumps.values()):
        print(f"FAIL: the mismatch froze no flight dumps "
              f"({sorted(dumps)})")
        return 1
    print(f"health: sdc_mismatch detector fired "
          f"({len(fired)} episode(s)); {len(dumps)} flight dump(s)")

    # 3. undefended: the journal invariant must flag the corrupted commit
    plan = FaultPlan.load(os.path.join(CORPUS, "expected_fail",
                                       "sdc_undefended.json"))
    result = run_plan(plan)
    if result.ok:
        print("FAIL: undefended corruption passed the invariant audit")
        return 1
    invariants = {v.invariant for v in result.violations}
    if "sdc_commit" not in invariants:
        print(f"FAIL: undefended run flagged, but not by the sdc_commit "
              f"invariant (got: {sorted(invariants)})")
        return 1
    print(f"undefended: flagged as expected ({sorted(invariants)})")

    # 4. live: one manager, so the same defense on threads
    if live_stage():
        return 1

    print("sdc smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
