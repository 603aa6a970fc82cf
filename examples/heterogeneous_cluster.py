#!/usr/bin/env python3
"""Heterogeneous clusters: mixed platforms, mixed speeds, WAN topology.

Paper §3.4: "If the microthread is not available in the new site's platform
specific binary format, it will receive the source code of the microthread
and compile it on the fly. ... This way new platform types may be added to
the cluster as well, offering the usage of heterogeneous clusters."

This example builds a cluster of two LAN islands joined by a slow WAN link
(the paper's internet scenario, §2.1), with three platform kinds and
per-site speeds from 0.5x to 2x, runs blocked matrix multiplication on it,
and reports how code travelled (binary vs source) and how work followed
speed.

    python examples/heterogeneous_cluster.py
"""

from repro.apps import build_matmul_program
from repro.apps.matmul import reference_multiply
from repro.common.config import CostModel, SchedulingConfig, SDVMConfig, SiteConfig
from repro.net.topology import Topology
from repro.site.simcluster import SimCluster

N, BLOCK = 24, 6


def main() -> None:
    site_configs = [
        SiteConfig(name="lnx-fast", platform="linux-x64", speed=2.0,
                   code_distribution=True),
        SiteConfig(name="lnx-slow", platform="linux-x64", speed=0.5),
        SiteConfig(name="hpux-1", platform="hp-ux", speed=1.0),
        SiteConfig(name="hpux-2", platform="hp-ux", speed=1.0),
        SiteConfig(name="sparc", platform="sparc", speed=1.5),
        SiteConfig(name="sparc-2", platform="sparc", speed=1.0),
    ]
    config = SDVMConfig(
        cost=CostModel(compile_fixed_cost=5e-3),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0))
    topology = Topology.wan_coupled(3, 3, lan_latency=60e-6,
                                    wan_latency=5e-3)
    cluster = SimCluster(site_configs=site_configs, config=config,
                         topology=topology)
    handle = cluster.submit(build_matmul_program(), args=(N, BLOCK))
    cluster.run(progress_timeout=120.0)

    assert handle.result == reference_multiply(N)
    print(f"matmul {N}x{N} (block {BLOCK}) correct on a 3-platform, "
          f"WAN-coupled cluster in {handle.duration * 1e3:.1f} ms\n")

    stats = cluster.total_stats()
    print(f"code movement: {stats.get('code_compile').count} on-the-fly "
          f"compiles, {stats.get('binaries_received').count} binaries "
          f"shipped, {stats.get('sources_received').count} sources shipped")
    print(f"binaries pushed back to distribution sites: "
          f"{stats.get('binaries_pushed').count}\n")

    print(f"{'site':10s} {'platform':10s} {'speed':>5s} {'executions':>11s} "
          f"{'work done':>10s}")
    for site_config, site in zip(site_configs, cluster.sites):
        execs = site.processing_manager.stats.get("executions").count
        work = site.processing_manager.stats.get("work_units").total
        print(f"{site_config.name:10s} {site_config.platform:10s} "
              f"{site_config.speed:5.1f} {execs:11d} {work:10.0f}")
    fast, slow = (site.processing_manager.stats.get("work_units").total
                  for site in cluster.sites[:2])
    print(f"\nload balancing followed speed: the 2x site did "
          f"{fast / max(slow, 1):.1f}x the work of the 0.5x site")


if __name__ == "__main__":
    main()
