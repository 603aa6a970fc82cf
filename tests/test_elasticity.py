"""Integration tests for dynamic entry/exit and crash recovery
(paper §3.4, §2.2): join mid-run, orderly sign-off with relocation,
checkpointed crash recovery.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    SchedulingConfig,
    SDVMConfig,
)
from repro.apps import build_primes_program, first_n_primes
from repro.site.simcluster import SimCluster

PRIMES = build_primes_program()
P, WIDTH = 40, 6
ARGS = (P, WIDTH, 400.0, 4000.0)
EXPECTED = first_n_primes(P)


def elastic_config(**kwargs) -> SDVMConfig:
    return SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        **kwargs)


class TestJoin:
    def test_site_joining_mid_run_gets_work(self):
        cluster = SimCluster(nsites=2, config=elastic_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        newcomer = cluster.add_site(at=0.05)
        cluster.run()
        assert handle.result == EXPECTED
        assert newcomer.running
        execs = newcomer.processing_manager.stats.get("executions").count
        assert execs > 0, "joiner never received work"

    def test_many_joins_accelerate_completion(self):
        solo = SimCluster(nsites=1, config=elastic_config())
        h1 = solo.submit(PRIMES, args=ARGS)
        solo.run()

        growing = SimCluster(nsites=1, config=elastic_config())
        h2 = growing.submit(PRIMES, args=ARGS)
        for i in range(3):
            growing.add_site(at=0.01 * (i + 1))
        growing.run()
        assert h2.result == EXPECTED
        assert h2.duration < h1.duration


class TestSignOff:
    def test_orderly_departure_mid_run(self):
        """A site leaves mid-run; its frames relocate; the program still
        delivers the correct result (§3.4)."""
        cluster = SimCluster(nsites=4, config=elastic_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        cluster.sign_off_site(3, at=0.05)
        cluster.run()
        assert handle.result == EXPECTED
        assert not cluster.sites[3].running
        assert cluster.sites[3].stopped

    def test_departed_site_marked_left_with_heir(self):
        cluster = SimCluster(nsites=3, config=elastic_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        leaver_logical = None

        def capture():
            nonlocal leaver_logical
            leaver_logical = cluster.sites[2].site_id

        cluster.sim.schedule_at(0.049, capture)
        cluster.sign_off_site(2, at=0.05)
        cluster.run()
        assert handle.result == EXPECTED
        record = cluster.sites[0].cluster_manager.sites[leaver_logical]
        assert not record.alive
        assert record.left
        assert record.heir is not None

    def test_multiple_departures(self):
        cluster = SimCluster(nsites=5, config=elastic_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        cluster.sign_off_site(4, at=0.03)
        cluster.sign_off_site(3, at=0.06)
        cluster.run()
        assert handle.result == EXPECTED

    def test_shrink_then_grow(self):
        cluster = SimCluster(nsites=3, config=elastic_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        cluster.sign_off_site(2, at=0.03)
        cluster.add_site(at=0.08)
        cluster.run()
        assert handle.result == EXPECTED


def crash_config() -> SDVMConfig:
    return SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        cluster=ClusterConfig(heartbeats_enabled=True,
                              heartbeat_interval=0.02,
                              heartbeat_timeout=0.08),
        checkpoint=CheckpointConfig(enabled=True, interval=0.05),
    )


class TestCrashRecovery:
    def test_crash_recovered_from_checkpoint(self):
        cluster = SimCluster(nsites=4, config=crash_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        cluster.crash_site(3, at=0.12)  # after at least one checkpoint wave
        cluster.run(progress_timeout=60.0)
        assert handle.result == EXPECTED
        coordinator = cluster.sites[0]
        assert coordinator.crash_manager.stats.get("recovery_begin").count >= 1

    def test_crash_without_checkpoint_fails_program(self):
        config = SDVMConfig(
            cost=CostModel(compile_fixed_cost=1e-4),
            cluster=ClusterConfig(heartbeats_enabled=True,
                                  heartbeat_interval=0.02,
                                  heartbeat_timeout=0.08),
            checkpoint=CheckpointConfig(enabled=False),
        )
        cluster = SimCluster(nsites=3, config=config)
        # enough work that the crash lands mid-run
        handle = cluster.submit(PRIMES, args=(60, 6, 2000.0, 20000.0))
        cluster.crash_site(2, at=0.1)
        from repro.common.errors import SDVMError
        with pytest.raises(SDVMError):
            cluster.run(progress_timeout=60.0)

    def test_checkpoint_waves_commit_without_crash(self):
        cluster = SimCluster(nsites=3, config=crash_config())
        handle = cluster.submit(PRIMES, args=ARGS)
        cluster.run(progress_timeout=60.0)
        assert handle.result == EXPECTED
        committed = max(s.crash_manager.committed_wave
                        for s in cluster.sites)
        assert committed >= 1
