"""The chaos-fuzz harness: seeded plan → run → audit → shrink.

One entry point per layer:

* :func:`run_plan` — execute a single :class:`FaultPlan` against the
  standard chaos workload and return the audited result (violations,
  journal fingerprint, digested when first read).  Bit-deterministic:
  the same plan always yields the same fingerprint.
* :func:`verify_determinism` — run a plan twice, compare fingerprints.
* :func:`fuzz` — sweep seeds, shrink every failing plan to a minimal
  repro via :func:`shrink_plan` (sound because replay is deterministic).

Shrunk failures are meant to be committed to ``tests/chaos_corpus/`` so
the bug they flushed out stays fixed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, List, Optional, Tuple

from repro.apps import (build_memscatter_program, build_memstress_program,
                        build_primes_program, build_treesum_program,
                        first_n_primes, memstress_expected, treesum_expected)
from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.plan import FaultPlan, random_plan, shrink_plan
from repro.common.config import (CheckpointConfig, ClusterConfig, CostModel,
                                 SchedulingConfig, SDVMConfig)
from repro.common.errors import SDVMError
from repro.site.simcluster import SimCluster

#: the standard chaos workload: primes(p, width) with compute scaled up so
#: the program is still running when mid-plan faults fire
WORKLOAD = (40, 6, 800.0, 8000.0)

#: plan.workload -> (program builder, entry args, expected-results thunk).
#: "memstress" allocates shared objects and read-migrates them between
#: sites, exercising the ownership directory under the plan's faults;
#: "memscatter" allocates them all over the cluster, so a plan can crash
#: a *homesite* and push its orphaned addresses onto the ring.
WORKLOADS = {
    "primes": (build_primes_program, WORKLOAD,
               lambda: [first_n_primes(WORKLOAD[0])]),
    "memstress": (build_memstress_program, (48, 60000.0),
                  lambda: [memstress_expected(48)]),
    "memscatter": (build_memscatter_program, (48, 60000.0),
                   lambda: [memstress_expected(48)]),
    # heavy leaves: even spread over hundreds of sites, the work phase
    # outlives crash *detection* (heartbeat timeout), so a mid-run crash
    # in a big-cluster plan actually exercises rollback recovery
    "treesum": (build_treesum_program, (2048, 20000.0),
                lambda: [treesum_expected(2048)]),
}

#: extra virtual time after the last fault/result for in-flight recovery
#: control (retries, DONEs) to settle before invariants are audited
DRAIN_SECONDS = 1.0


def chaos_config(plan: FaultPlan) -> SDVMConfig:
    """The cluster configuration every chaos run uses.

    Fast heartbeats keep crash detection well under a second; the
    partition windows the generator emits stay far below the heartbeat
    timeout, so a healed partition never escalates to mutual crash
    suspicion.  Tracing is always on — the journal is both the
    determinism witness and the monotonicity evidence, and a crashed
    site's flight dump comes out of it for free.

    Plans bigger than the 16-peer sample window turn the load gossip on,
    since blind begging is the very O(sites) regime the hot-peer cache
    exists to avoid (their heartbeats ride a ring of successors by
    themselves: ``ClusterManager.HEARTBEAT_RING``).  Small plans keep the
    historical config bit-for-bit.

    The metrics sampler stays *off*: it would not change the replayed
    trajectory, but a health detector that fires journals a ``health``
    event, and the fingerprint digests the journal.
    """
    big = plan.nsites > 16
    return SDVMConfig(
        seed=plan.seed,
        trace=True,
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0,
                                    gossip_interval=1e-2 if big else 0.0,
                                    gossip_staleness=5e-2 if big else 5e-3,
                                    replicate_frac=plan.replicate_frac),
        cluster=ClusterConfig(heartbeats_enabled=True,
                              heartbeat_interval=0.05,
                              heartbeat_timeout=0.25),
        checkpoint=CheckpointConfig(enabled=True,
                                    interval=plan.ckpt_interval),
    )


class ChaosRunResult:
    """One audited run of a plan.  ``fingerprint`` digests the journal as
    it stood when the result was built, on first read: most callers only
    ask ``ok``, and the digest walks every entry.  A caller may hand a
    fingerprint in instead."""

    def __init__(self, plan: FaultPlan, violations: List[Violation],
                 fingerprint: Optional[str] = None,
                 cluster: object = None) -> None:
        self.plan, self.violations, self.cluster = plan, violations, cluster
        self._fingerprint = fingerprint
        self._tracer = getattr(cluster, "tracer", None)
        self._journal_len = 0 if self._tracer is None else len(self._tracer)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = journal_fingerprint(self._tracer,
                                                    self._journal_len)
        return self._fingerprint

    @property
    def ok(self) -> bool:
        return not self.violations


def journal_fingerprint(tracer,  # noqa: ANN001
                        upto: Optional[int] = None) -> str:
    """Stable digest of the raw trace journal (the determinism witness),
    or of its first ``upto`` entries."""
    if tracer is None:
        return ""
    digest = hashlib.sha256()
    for entry in islice(tracer._raw, upto):
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()


def _last_fault_time(plan: FaultPlan) -> float:
    """Latest instant any scheduled fault can still be acting.

    Point faults (crash, sign_off) carry ``at``; window faults
    (partition, link, slow, **corrupt**) carry ``start``/``end``.  All
    three are read so no fault kind — present or future — can be
    scheduled past the drain horizon: a late corruption window that
    outlived this bound would flip results *after* the audit and the
    invariant checker would certify a run it never saw the end of.
    """
    latest = 0.0
    for fault in plan.faults:
        latest = max(latest, getattr(fault, "at", 0.0),
                     getattr(fault, "start", 0.0),
                     getattr(fault, "end", 0.0))
    return latest


def run_plan(plan: FaultPlan,
             progress_timeout: float = 30.0,
             metrics_interval: float = 0.0) -> ChaosRunResult:
    """Execute one fault plan against the standard workload and audit it.

    ``metrics_interval`` above 0 turns the metrics sampler on, e.g. when a
    test wants the health detectors watching the run.  The sampler leaves
    the trajectory as it is, but a detector that fires journals a
    ``health`` event, so a fingerprint equals the metrics-off one only
    when no detector fired.
    """
    plan.validate()
    workload = WORKLOADS.get(plan.workload)
    if workload is None:
        raise SDVMError(f"unknown chaos workload {plan.workload!r} "
                        f"(known: {sorted(WORKLOADS)})")
    build, args, expected = workload
    config = chaos_config(plan).with_(metrics_interval=metrics_interval)
    cluster = SimCluster(nsites=plan.nsites, config=config)
    cluster.apply_chaos(plan)
    cluster.submit(build(), args=args, site_index=plan.submit_site)
    violations: List[Violation] = []
    try:
        cluster.run(until=plan.horizon, raise_on_failure=False,
                    progress_timeout=progress_timeout)
    except SDVMError as exc:
        violations.append(Violation("progress", str(exc)))
    # drain: late faults and recovery retries settle before the audit
    drain_until = max(cluster.sim.now, _last_fault_time(plan)) + DRAIN_SECONDS
    cluster.sim.run(until=drain_until)
    checker = InvariantChecker(cluster,
                               expect_complete=plan.expect_complete,
                               expected_results=expected())
    violations.extend(checker.check())
    return ChaosRunResult(plan=plan, violations=violations, cluster=cluster)


def verify_determinism(plan: FaultPlan) -> Tuple[str, str]:
    """Run ``plan`` twice; identical fingerprints prove reproducibility."""
    return run_plan(plan).fingerprint, run_plan(plan).fingerprint


@dataclass
class FuzzFailure:
    seed: int
    plan: FaultPlan
    shrunk: FaultPlan
    violations: List[Violation]


def fuzz(seeds: Iterable[int], nsites: int = 4, shrink: bool = True,
         report: Optional[Callable[[str], None]] = None,
         corrupt: bool = False,
         workload: str = "primes") -> List[FuzzFailure]:
    """Run one seeded random plan per seed under ``workload``; shrink and
    collect failures.

    ``corrupt`` adds a silent-data-corruption window to every generated
    plan (with full replication armed), so the sweep also exercises the
    detect/quarantine/tie-break path; shrinking stays sound because
    replay is deterministic — dropping the corruption fault makes the
    failure vanish, so a corruption-induced repro keeps its corruption.
    """
    say = report or (lambda line: None)
    failures: List[FuzzFailure] = []
    for seed in seeds:
        plan = random_plan(seed, nsites=nsites, corrupt=corrupt,
                           workload=workload)
        result = run_plan(plan)
        if result.ok:
            say(f"{workload} seed {seed}: ok ({len(plan.faults)} faults)")
            continue
        say(f"{workload} seed {seed}: {len(result.violations)} "
            f"violation(s); shrinking...")

        def still_fails(candidate: FaultPlan) -> bool:
            return not run_plan(candidate).ok

        shrunk = (shrink_plan(plan, still_fails) if shrink else plan)
        failures.append(FuzzFailure(seed=seed, plan=plan, shrunk=shrunk,
                                    violations=result.violations))
        for violation in result.violations:
            say(f"  {violation}")
    return failures
