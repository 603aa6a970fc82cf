#!/usr/bin/env python3
"""Dynamic entry/exit and crash recovery under a long-running program.

The paper's headline capability (§3.4, §2.2): "big and permanently running
applications like climate model calculations may be migrated e.g. to new
hardware without shutting down."  We run the Jacobi stencil (the climate
stand-in) while the cluster underneath it:

  t=0.0   starts with 3 sites
  t=0.5   a 4th site signs on ("quickly gets work")
  t=1.5   site 2 signs off in an orderly fashion (frames+memory relocate)
  t=3.0   site 3 CRASHES — heartbeats time out, the coordinator rolls
          everyone back to the last committed checkpoint and re-spreads

The program's result is verified against a sequential reference.

    python examples/elastic_cluster.py
"""

from repro.apps import build_stencil_program
from repro.apps.stencil import reference_stencil
from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    SchedulingConfig,
    SDVMConfig,
)
from repro.site.simcluster import SimCluster

N, STRIPS, STEPS = 24, 4, 800


def main() -> None:
    config = SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-3),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        cluster=ClusterConfig(heartbeats_enabled=True,
                              heartbeat_interval=0.05,
                              heartbeat_timeout=0.25),
        checkpoint=CheckpointConfig(enabled=True, interval=0.4),
    )
    cluster = SimCluster(nsites=3, config=config)
    handle = cluster.submit(build_stencil_program(),
                            args=(N, STRIPS, STEPS))

    newcomer = cluster.add_site(at=0.5)
    cluster.sign_off_site(2, at=1.5)
    cluster.crash_site(3, at=3.0)

    cluster.run(progress_timeout=120.0)

    checksum, delta = handle.result
    ref_checksum, ref_delta = reference_stencil(N, STEPS)
    print(f"grid checksum   : {checksum:.6f} "
          f"(reference {ref_checksum:.6f})")
    print(f"last-step delta : {delta:.6f} (reference {ref_delta:.6f})")
    assert abs(checksum - ref_checksum) < 1e-6

    print(f"\ncompleted in {handle.duration:.2f} virtual seconds despite "
          f"join + sign-off + crash")
    coordinator = cluster.sites[0]
    cm = coordinator.crash_manager
    print(f"checkpoint waves committed: "
          f"{cm.stats.get('wave_commit').count}, "
          f"recoveries: {cm.stats.get('recovery_begin').count}")
    print(f"newcomer executed "
          f"{newcomer.processing_manager.stats.get('executions').count} "
          f"microthreads before the run ended")
    for index, site in enumerate(cluster.sites):
        state = ("running" if site.running else
                 "left" if site.leaving or site.stopped and index == 2
                 else "stopped")
        print(f"  site {index}: {state:8s} "
              f"executions="
              f"{site.processing_manager.stats.get('executions').count}")


if __name__ == "__main__":
    main()
