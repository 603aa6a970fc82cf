"""Work distribution at scale, and under every policy mix.

A treesum run at 64 sites — four times the 16-peer sample window, so work
discovery has to go through help requests and the hot-peer cache — is
compared with the same program on one site.  If the cluster falls back
into the blind-beg regime (the O(sites) bug this guards against) the
speedup collapses far below its floor.  The other tripwires watch what
that discovery costs: load reports per execution, which a
membership-wide heartbeat pushes far above one; gossip flushes, none at
all on one site (nobody to correct) and at most two per report at 64
sites; and envelopes the receivers had to parse, none on a fault-free sim
wire where every envelope carries its sender's snapshot.  The bench-gate
``scaling`` suite is the precise regression fence; these are the
seconds-fast tripwires.

The policy matrix crosses gossip x steal batching x proactive push: each
cell is a small traced primes run that must return the right primes and
pass the chaos invariant audit.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.apps import first_n_primes
from repro.bench.harness import bench_config, run_primes, run_treesum
from repro.chaos.invariants import InvariantChecker
from repro.common.config import SchedulingConfig
from repro.sched import manager as sched_manager
from repro.site.simcluster import SimCluster

LEAVES = 1024
SCALE = 8000.0
NSITES = 64
#: well under the ~40x the run actually reaches — a tripwire for "work
#: discovery broke", not a perf fence
MIN_SPEEDUP = 10.0
#: LOAD_REPORTs per execution at 64 sites: about 1.0 when reports follow
#: conversations, 3.6 when every site kept the whole membership fresh
MAX_REPORTS_PER_EXEC = 1.5
#: gossip flushes per LOAD_REPORT sent at 64 sites: about 0.5 (one flush
#: corrects up to three partners); flushes that find nothing to correct
#: push it up
MAX_FLUSHES_PER_REPORT = 2.0
#: virtual-seconds budget for every site to learn the full membership.
#: Joins stagger at 1e-4 s and converge well under 0.1 s; a join wave
#: gone quadratic (per-sign-on duplicate scans, per-join announce
#: floods) blows far past this before it blows up wall clock
FORMATION_HORIZON = 0.5
#: loose wall-clock tripwire for the same regression
FORMATION_WALL_MAX = 30.0


def scaling_config():
    base = bench_config()
    return base.with_(scheduling=replace(base.scheduling,
                                         gossip_interval=1e-2,
                                         gossip_staleness=5e-2))


@pytest.fixture(scope="module")
def treesum_runs():
    """(t_1, one-site cluster, t_64, 64-site cluster)."""
    t1, single = run_treesum(LEAVES, SCALE, 1, config=scaling_config())
    tn, cluster = run_treesum(LEAVES, SCALE, NSITES, config=scaling_config())
    return t1, single, tn, cluster


class TestSixtyFourSites:
    def test_membership_forms_early(self):
        cluster = SimCluster(nsites=NSITES, config=scaling_config())
        wall_start = time.perf_counter()
        formed_at = None
        while cluster.sim.now < FORMATION_HORIZON:
            cluster.sim.run(until=cluster.sim.now + FORMATION_HORIZON / 50)
            if all(len(site.cluster_manager.sites) == NSITES
                   for site in cluster.sites):
                formed_at = cluster.sim.now
                break
        assert formed_at is not None
        assert time.perf_counter() - wall_start <= FORMATION_WALL_MAX

    def test_one_site_runs_no_gossip_flush(self, treesum_runs):
        _t1, single, _tn, _cluster = treesum_runs
        assert single.total_stats().get("gossip_flushes").count == 0

    def test_speedup_floor(self, treesum_runs):
        t1, _single, tn, _cluster = treesum_runs
        assert t1 / tn >= MIN_SPEEDUP

    def test_reports_and_flushes_per_execution(self, treesum_runs):
        derived = treesum_runs[3].cluster_report().derived
        assert derived["load_reports_per_exec"] <= MAX_REPORTS_PER_EXEC
        assert (derived["gossip_flushes"] / max(1, derived["gossip_sent"])
                <= MAX_FLUSHES_PER_REPORT)

    def test_no_envelope_parsed(self, treesum_runs):
        assert treesum_runs[3].total_stats().get("parsed").count == 0


@pytest.mark.parametrize("push", [False, True])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("gossip", [0.0, 1e-3])
def test_policy_matrix_cell_is_correct_and_audited(gossip, batch, push,
                                                   monkeypatch):
    monkeypatch.setattr(sched_manager, "STEAL_BATCH_MAX", batch)
    config = bench_config(trace=True)
    # without load reports nothing refreshes a figure, so the gossip-off
    # cells trust one only as long as gossip-off configs elsewhere do
    staleness = (config.scheduling.gossip_staleness if gossip
                 else SchedulingConfig().gossip_staleness)
    config = config.with_(scheduling=replace(
        config.scheduling, gossip_interval=gossip,
        gossip_staleness=staleness,
        # no queue is this deep: pushing off
        push_min_queue=config.scheduling.push_min_queue if push else 10**9))
    expected = first_n_primes(20)
    _duration, cluster = run_primes(20, 6, 4, 400.0, 4000.0,
                                    config=config, verify=False)
    # drain: executions in flight at program exit settle before the
    # audit (as the chaos runner does)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert cluster.handles[0].result == expected
    violations = InvariantChecker(cluster, expect_complete=True,
                                  expected_results=[expected]).check()
    assert violations == [], [str(v) for v in violations]
