"""Experiment E9 — checkpointed crash recovery (§2.2, §6, ref [4]).

"If a site gets shut down uncontrolled or even crashes, the resulting
damage is diminished due to the SDVM's crash management.  However, as a
recovery costs time and resources nonetheless..."

We crash one of four sites mid-run and sweep the checkpoint interval: the
shorter the interval, the less work is lost at the crash but the more
checkpoint overhead is paid continuously — the classic trade-off.
"""

from __future__ import annotations

from repro.apps import build_primes_program, first_n_primes
from repro.bench import calibrated_test_params, render_table
from repro.bench.harness import bench_config
from repro.common.config import CheckpointConfig, ClusterConfig
from repro.site.simcluster import SimCluster

from bench_util import write_bench_json, write_result

P, WIDTH, SITES = 100, 10, 4
CRASH_AT = 4.0
INTERVALS = (0.5, 1.0, 2.0)


def crash_config(interval: float) -> "SDVMConfig":  # noqa: F821
    return bench_config(
        cluster=ClusterConfig(heartbeats_enabled=True,
                              heartbeat_interval=0.1,
                              heartbeat_timeout=0.4),
        checkpoint=CheckpointConfig(enabled=True, interval=interval))


def run_case(interval: float, crash: bool) -> float:
    scale, base = calibrated_test_params(P, WIDTH)
    cluster = SimCluster(nsites=SITES, config=crash_config(interval))
    handle = cluster.submit(build_primes_program(),
                            args=(P, WIDTH, scale, base))
    if crash:
        cluster.crash_site(SITES - 1, at=CRASH_AT)
    cluster.run(progress_timeout=600.0)
    assert handle.result == first_n_primes(P)
    if crash:
        coordinator = cluster.sites[0]
        assert coordinator.crash_manager.stats.get("recovery_begin").count >= 1
    return handle.duration


def test_crash_recovery(benchmark):
    results = {}

    def sweep():
        for interval in INTERVALS:
            healthy = run_case(interval, crash=False)
            crashed = run_case(interval, crash=True)
            results[interval] = (healthy, crashed)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for interval, (healthy, crashed) in results.items():
        rows.append([f"{interval:.1f}s", f"{healthy:.2f}s",
                     f"{crashed:.2f}s",
                     f"{crashed - healthy:.2f}s"])
    write_result("crash_recovery", render_table(
        f"E9: crash of 1/{SITES} sites at t={CRASH_AT}s vs checkpoint "
        f"interval (primes p=100 w=10)",
        ["ckpt interval", "no crash", "with crash", "recovery cost"],
        rows))
    # informational sdvm-bench/1 artifact (NOT wired into the bench gate:
    # recovery cost depends on where the crash lands relative to the last
    # commit, so it is tracked, not enforced)
    metrics = {}
    for interval, (healthy, crashed) in results.items():
        key = f"{interval:.1f}".replace(".", "_")
        metrics[f"healthy_s_{key}"] = round(healthy, 6)
        metrics[f"crashed_s_{key}"] = round(crashed, 6)
        metrics[f"recovery_cost_s_{key}"] = round(crashed - healthy, 6)
    write_bench_json("crash_recovery", metrics,
                     meta={"informational": True, "p": P, "width": WIDTH,
                           "sites": SITES, "crash_at": CRASH_AT,
                           "intervals": list(INTERVALS)})

    for interval, (healthy, crashed) in results.items():
        # §2.2: the crash is overcome — but recovery costs time
        assert crashed > healthy
        benchmark.extra_info[f"recovery_cost_{interval}"] = round(
            crashed - healthy, 2)
    # losing a site costs at most a site's share plus rollback: the run
    # still beats the healthy 4-site time by less than ~2.5x
    for interval, (healthy, crashed) in results.items():
        assert crashed < healthy * 2.5
