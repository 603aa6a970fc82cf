"""Observational: the ``live_tcp_s2`` closed loop at any ``max_parallel``.

The benchmark of ``BENCHMARK.json`` runs its live workload at
``max_parallel=1``; this script runs the same loop (memstress(64), one
client, two TCP sites with real crypto, pinned to one CPU) at the
parallel degree given, and prints programs per second, the median and
p90 program latency and the fraction of programs slower than 250 ms
(``live.stall_frac``).  Nothing is gated on it.

    PYTHONPATH=src python benchmarks/live_parallel.py --max-parallel 5
"""

from __future__ import annotations

import argparse
import os
import statistics
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-parallel", type=int, default=5)
    parser.add_argument("--programs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args()

    from repro.apps import build_memstress_program, memstress_expected
    from repro.common.config import (CostModel, SchedulingConfig, SDVMConfig,
                                     SecurityConfig, SiteConfig)
    from repro.runtime.live_cluster import LiveCluster

    program, args = build_memstress_program(), (64, 1.0)
    config = SDVMConfig(
        seed=opts.seed, security=SecurityConfig(enabled=True),
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0))
    sites = [SiteConfig(name=f"site{i}", max_parallel=opts.max_parallel)
             for i in range(2)]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    latencies = []
    with LiveCluster(site_configs=sites, config=config,
                     transport="tcp") as cluster:
        for _ in range(5):  # warm-up: code fetched and compiled
            cluster.run(program, args=args, timeout=30)
        started = time.perf_counter()
        for _ in range(opts.programs):
            begin = time.perf_counter()
            assert cluster.run(program, args=args,
                               timeout=30) == memstress_expected(64)
            latencies.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - started
    ranked = sorted(latencies)
    print(f"max_parallel {opts.max_parallel}  programs {opts.programs}  "
          f"prog_per_s {opts.programs / elapsed:.1f}  "
          f"median_ms {statistics.median(latencies) * 1e3:.1f}  "
          f"p90_ms {ranked[int(0.9 * len(ranked))] * 1e3:.1f}  "
          f"stall_frac {sum(s > 0.250 for s in latencies) / len(latencies):.3f}")


if __name__ == "__main__":
    main()
