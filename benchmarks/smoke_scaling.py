"""CI smoke for big-cluster work distribution (`make bench-scaling-smoke`).

A treesum run at 64 sites — four times the 16-peer sample window, so
work discovery has to go through help requests and the hot-peer cache —
compared against the same program on one site.  If the cluster falls
back into the blind-beg regime (the O(sites) bug this guards against),
the speedup collapses far below the floor asserted here.  A second
tripwire watches the other side of that trade: load reports per
execution, which a membership-wide heartbeat pushes far above one.  A
third watches what the reports cost to decide: gossip flushes, which a
changed figure arms — none at all on one site, which has nobody to
correct, and at most two per report sent at 64 sites.  A fourth counts
envelopes the receivers had to parse: none on a fault-free sim wire, where
every envelope carries its sender's snapshot.

Deliberately smaller than the ``scaling`` bench-gate suite: this is the
seconds-fast tripwire, the gate suite is the precise regression fence.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

sys.path.insert(0, "src")

from repro.bench.harness import bench_config, run_treesum  # noqa: E402
from repro.site.simcluster import SimCluster  # noqa: E402

LEAVES = 1024
SCALE = 8000.0
NSITES = 64
#: well under the ~40x the run actually reaches — a tripwire for "work
#: discovery broke", not a perf fence (the gate suite is that)
MIN_SPEEDUP = 10.0
#: LOAD_REPORTs per execution at 64 sites: about 1.0 when reports follow
#: conversations, 3.6 when every site kept the whole membership fresh
MAX_REPORTS_PER_EXEC = 1.5
#: gossip flushes per LOAD_REPORT sent at 64 sites: about 0.5 (one flush
#: corrects up to three partners).  A clock firing every site every
#: interval read 0.75 here, where nearly every tick had news, and 36 on
#: the Table 1 benchmark row; on the one-site run it fired ~1 500 times
#: for nothing, which is what the zero-flush check there catches
MAX_FLUSHES_PER_REPORT = 2.0

#: virtual-seconds budget for every site to learn the full membership.
#: Joins stagger at 1e-4 s and converge well under 0.1 s; a join wave
#: that has gone quadratic (per-sign-on duplicate scans, per-join
#: announce floods) blows far past this before it blows up wall clock
FORMATION_HORIZON = 0.5
#: loose wall-clock tripwire for the same regression (the measured wave
#: is well under a second — only an O(n^2) blowup gets near this)
FORMATION_WALL_MAX = 30.0


def check_formation(config) -> int:
    """Form an NSITES cluster; fail if full membership converges late."""
    cluster = SimCluster(nsites=NSITES, config=config)
    wall_start = time.perf_counter()
    formed_at = None
    step = FORMATION_HORIZON / 50.0
    while cluster.sim.now < FORMATION_HORIZON:
        cluster.sim.run(until=cluster.sim.now + step)
        if all(len(site.cluster_manager.sites) == NSITES
               for site in cluster._sites):
            formed_at = cluster.sim.now
            break
    wall = time.perf_counter() - wall_start
    if formed_at is None:
        print(f"smoke_scaling FAILED: {NSITES}-site membership did not "
              f"converge within {FORMATION_HORIZON}s virtual",
              file=sys.stderr)
        return 1
    print(f"smoke_scaling: {NSITES}-site formation converged at "
          f"t={formed_at:.3f}s virtual ({wall:.2f}s wall)")
    if wall > FORMATION_WALL_MAX:
        print(f"smoke_scaling FAILED: formation took {wall:.1f}s wall "
              f"> {FORMATION_WALL_MAX}s (join wave gone quadratic?)",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    base = bench_config()
    config = base.with_(scheduling=replace(base.scheduling,
                                           gossip_interval=1e-2,
                                           gossip_staleness=5e-2))
    if check_formation(config):
        return 1
    t1, single = run_treesum(LEAVES, SCALE, 1, config=config)
    lone = single.total_stats().get("gossip_flushes").count
    if lone:
        print(f"smoke_scaling FAILED: {lone} gossip flushes on one site, "
              f"which has no partner to correct (is a clock firing them?)",
              file=sys.stderr)
        return 1
    tn, cluster = run_treesum(LEAVES, SCALE, NSITES, config=config)
    speedup = t1 / tn
    print(f"smoke_scaling: treesum(leaves={LEAVES}) "
          f"t_1={t1:.3f}s t_{NSITES}={tn:.3f}s speedup={speedup:.1f} "
          f"(events={cluster.sim.events_executed})")
    if speedup < MIN_SPEEDUP:
        print(f"smoke_scaling FAILED: speedup {speedup:.1f} "
              f"< floor {MIN_SPEEDUP}", file=sys.stderr)
        return 1
    derived = cluster.cluster_report().derived
    reports = derived["load_reports_per_exec"]
    print(f"smoke_scaling: {reports:.2f} load reports per execution")
    if reports > MAX_REPORTS_PER_EXEC:
        print(f"smoke_scaling FAILED: {reports:.2f} load reports per "
              f"execution > {MAX_REPORTS_PER_EXEC} (reports no longer "
              f"scoped to conversations?)", file=sys.stderr)
        return 1
    flushes = derived["gossip_flushes"] / max(1, derived["gossip_sent"])
    print(f"smoke_scaling: {flushes:.2f} gossip flushes per load report")
    if flushes > MAX_FLUSHES_PER_REPORT:
        print(f"smoke_scaling FAILED: {flushes:.2f} gossip flushes per load "
              f"report > {MAX_FLUSHES_PER_REPORT} (flushes that find "
              f"nothing to correct)", file=sys.stderr)
        return 1
    parsed = cluster.total_stats().get("parsed").count
    if parsed:
        print(f"smoke_scaling FAILED: {parsed} envelopes were parsed on a "
              f"fault-free sim run (something between send and deliver "
              f"drops the snapshot; that costs a fifth of host time)",
              file=sys.stderr)
        return 1
    print("smoke_scaling: no envelope parsed")
    print("smoke_scaling OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
