"""Experiment E3 — help-reply and local scheduling policies (§3.3, §4).

"Therefore a LIFO-strategy is used for the replying to help requests to
hide the communication latencies.  To avoid starving of microframes, a
FIFO-strategy is used momentarily for the local scheduling."

We cross help-reply policy {lifo, fifo} with local policy {fifo, lifo} on
the Table-1 primes workload and check the directional claim: the paper's
combination (reply=lifo, local=fifo) is not beaten by more than noise, and
frame sojourn (starvation) is worst with local=lifo.

``--smoke`` runs the work-distribution policy matrix instead — gossip
on/off x steal batching on/off x proactive push on/off — each cell a
short deterministic traced run that must produce the right primes and
pass the chaos invariant audit.  ``make verify`` runs it as the
``bench-help-policies`` step.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.bench import calibrated_test_params, render_table, run_primes
from repro.bench.harness import bench_config
from repro.common.config import SchedulingConfig

from bench_util import write_result

P, WIDTH, SITES = 100, 10, 8
COMBOS = [("lifo", "fifo"), ("fifo", "fifo"), ("lifo", "lifo"),
          ("fifo", "lifo")]


def run_combo(reply: str, local: str) -> float:
    config = bench_config()
    config = config.with_(scheduling=replace(
        config.scheduling, help_reply_policy=reply, local_policy=local))
    scale, base = calibrated_test_params(P, WIDTH)
    duration, _cluster = run_primes(P, WIDTH, SITES, scale, base,
                                    config=config)
    return duration


def test_help_policies(benchmark):
    durations = {}

    def sweep():
        for reply, local in COMBOS:
            durations[(reply, local)] = run_combo(reply, local)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    paper_combo = ("lifo", "fifo")
    rows = [[reply, local, f"{durations[(reply, local)]:.2f}s",
             "<- paper" if (reply, local) == paper_combo else ""]
            for reply, local in COMBOS]
    write_result("help_policies", render_table(
        "E3: help-reply x local scheduling policy (primes p=100 w=10, "
        "8 sites)",
        ["help reply", "local", "duration", ""],
        rows))
    for combo, duration in durations.items():
        benchmark.extra_info["_".join(combo)] = round(duration, 3)

    best = min(durations.values())
    # the paper's combination is competitive: within 15% of the best combo
    assert durations[paper_combo] <= best * 1.15, durations


# ---------------------------------------------------------------------------
# deterministic smoke over the work-distribution policy matrix (make verify)

SMOKE_P, SMOKE_WIDTH, SMOKE_SITES = 20, 6, 4


def run_smoke() -> int:
    """Cross gossip x steal batching x push; audit every cell.

    Each cell is a small deterministic traced primes run.  A cell fails if
    the program returns wrong primes, wedges, or trips any chaos invariant
    (frame conservation, journal schema, trace consistency).
    """
    from repro.apps import first_n_primes
    from repro.chaos.invariants import InvariantChecker

    expected = first_n_primes(SMOKE_P)
    # fixed work parameters (the gate-suite ones): calibration only covers
    # the paper's Table 1 (p, width) combinations
    scale, base = 400.0, 4000.0
    rows = []
    failures = 0
    config = bench_config(trace=True)
    # without load reports nothing refreshes a figure, so the gossip-off
    # cells trust one only as long as gossip-off configs elsewhere do
    for gossip, staleness in (
            (0.0, SchedulingConfig().gossip_staleness),
            (1e-3, config.scheduling.gossip_staleness)):
        for batch in (1, 4):
            for push in (False, True):
                config = config.with_(scheduling=replace(
                    config.scheduling, gossip_interval=gossip,
                    gossip_staleness=staleness,
                    steal_batch_max=batch, push_enabled=push))
                duration, cluster = run_primes(
                    SMOKE_P, SMOKE_WIDTH, SMOKE_SITES, scale, base,
                    config=config, verify=False)
                # drain: executions in flight at program exit settle
                # before the audit (same as the chaos runner)
                cluster.sim.run(until=cluster.sim.now + 1.0)
                result = cluster.handles[0].result
                violations = InvariantChecker(
                    cluster, expect_complete=True,
                    expected_results=[expected]).check()
                ok = result == expected and not violations
                failures += 0 if ok else 1
                rows.append([f"{gossip:g}", batch,
                             "on" if push else "off", f"{duration:.3f}s",
                             "ok" if ok else "FAIL: "
                             + "; ".join(str(v) for v in violations)])
    write_result("help_policy_matrix_smoke", render_table(
        f"work-distribution policy matrix smoke (primes p={SMOKE_P} "
        f"w={SMOKE_WIDTH}, {SMOKE_SITES} sites)",
        ["gossip", "batch", "push", "duration", "audit"],
        rows))
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.exit(run_smoke())
    print("usage: bench_help_policies.py --smoke  "
          "(pytest-benchmark runs the E3 experiment)")
    sys.exit(2)
