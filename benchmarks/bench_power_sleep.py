"""Extension experiment X1 — power-managed sleep states (§2.2).

"If sufficient performance is available and a fast execution is needed,
all sites on a chip get activated.  If the system's power supply is low or
sites are out of work, some sites are switched to a sleep state.  This
would meet a requirement of organic computing, making the system
autonomously adapt to changing environmental conditions."

Scenario: a 6-site cluster receives a burst of work, then idles, then a
second burst.  With power management on, out-of-work sites sleep between
bursts and wake on demand; we measure the energy saved and the performance
cost of waking.
"""

from __future__ import annotations

from repro.apps import build_primes_program, first_n_primes
from repro.bench import render_table
from repro.bench.harness import bench_config
from repro.common.config import PowerConfig
from repro.site.simcluster import SimCluster

from bench_util import write_result

SITES = 6
IDLE_GAP = 4.0  # seconds of lull between the two bursts
ARGS = (60, 12, 400.0, 4000.0)


def run_bursts(power_enabled: bool) -> dict:
    config = bench_config(power=PowerConfig(
        enabled=power_enabled, sleep_after=0.3))
    cluster = SimCluster(nsites=SITES, config=config)
    first = cluster.submit(build_primes_program(), args=ARGS)
    second = cluster.submit(build_primes_program(), args=ARGS,
                            at=IDLE_GAP + 3.0)
    cluster.run(progress_timeout=120.0)
    assert first.result == second.result == first_n_primes(ARGS[0])
    energy = cluster.energy_report()
    return {
        "joules": sum(r["joules"] for r in energy.values()),
        "sleep_s": sum(r["sleep_s"] for r in energy.values()),
        "burst2": second.duration,
        "makespan": second.finish_time,
    }


def test_power_sleep(benchmark):
    results = {}

    def sweep():
        results["power off"] = run_bursts(False)
        results["power on"] = run_bursts(True)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[name, f"{r['joules']:.0f} J", f"{r['sleep_s']:.1f} s",
             f"{r['burst2']:.2f} s", f"{r['makespan']:.2f} s"]
            for name, r in results.items()]
    write_result("power_sleep", render_table(
        f"X1 (extension): sleep states across a bursty workload "
        f"({SITES} sites, {IDLE_GAP}s lull)",
        ["mode", "energy", "site-seconds asleep", "2nd burst time",
         "makespan"],
        rows))

    off, on = results["power off"], results["power on"]
    saved = 1.0 - on["joules"] / off["joules"]
    benchmark.extra_info["energy_saved_pct"] = round(100 * saved, 1)
    # meaningful savings from the lull...
    assert on["sleep_s"] > SITES * IDLE_GAP * 0.5
    assert saved > 0.15
    # ...at a bounded wake-up cost for the second burst
    assert on["burst2"] < off["burst2"] * 1.5
