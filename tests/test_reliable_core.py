"""Tests for the reliable-core extension (§2.2 public resource computing).

"The SDVM is run on a core of reliable sites (which each act as servers
for a number of unsafe sites) and unsafe sites.  If an unsafe site
crashes, the crash may be intercepted by its server, which redistributes
the work" — unreliable sites never coordinate recovery, keep checkpoints,
or inherit relocated state.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    SchedulingConfig,
    SDVMConfig,
    SiteConfig,
)
from repro.apps import build_primes_program, first_n_primes
from repro.site.simcluster import SimCluster


def mixed_cluster(n_reliable=2, n_unsafe=2, **kwargs):
    config = SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        cluster=ClusterConfig(heartbeats_enabled=True,
                              heartbeat_interval=0.03,
                              heartbeat_timeout=0.12),
        checkpoint=CheckpointConfig(enabled=True, interval=0.1),
        **kwargs)
    site_configs = (
        [SiteConfig(name=f"core{i}", reliable=True)
         for i in range(n_reliable)]
        + [SiteConfig(name=f"unsafe{i}", reliable=False)
           for i in range(n_unsafe)])
    return SimCluster(site_configs=site_configs, config=config)


class TestReliableCore:
    def test_reliability_propagates_in_records(self):
        cluster = mixed_cluster()
        cluster.sim.run(until=0.5)
        view = cluster.sites[0].cluster_manager.sites
        unsafe_ids = {cluster.sites[2].site_id, cluster.sites[3].site_id}
        for logical, record in view.items():
            assert record.reliable == (logical not in unsafe_ids)

    def test_unsafe_sites_never_coordinate(self):
        cluster = mixed_cluster()
        cluster.sim.run(until=0.5)
        assert cluster.sites[0].crash_manager.is_coordinator()
        for site in cluster.sites[2:]:
            assert not site.crash_manager.is_coordinator()
        # even when every reliable site dies, someone still coordinates
        cluster.sites[0].crash()
        cluster.sites[1].crash()
        cluster.sim.run(until=1.5)
        survivors = [s for s in cluster.sites[2:] if s.running]
        assert any(s.crash_manager.is_coordinator() for s in survivors)

    def test_unsafe_crash_intercepted_by_core(self):
        cluster = mixed_cluster()
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 2000.0, 20000.0))
        cluster.crash_site(3, at=0.5)   # an unsafe site dies mid-run
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        core = cluster.sites[0]
        assert core.crash_manager.stats.get("recovery_begin").count >= 1
        # the dead unsafe site's address space is inherited by the core
        dead_id = cluster.sites[3].site_id
        record = core.cluster_manager.sites[dead_id]
        assert record.heir == core.site_id

    def test_unsafe_sign_off_relocates_to_reliable_heir(self):
        cluster = mixed_cluster()
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 800.0, 8000.0))
        cluster.sign_off_site(2, at=0.3)  # unsafe site leaves mid-run
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        leaver_id = cluster.sites[2].site_id
        record = cluster.sites[0].cluster_manager.sites[leaver_id]
        assert record.left
        heir_record = cluster.sites[0].cluster_manager.sites[record.heir]
        assert heir_record.reliable

    def test_unsafe_sites_still_execute_work(self):
        cluster = mixed_cluster()
        handle = cluster.submit(build_primes_program(),
                                args=(60, 10, 800.0, 8000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(60)
        unsafe_execs = sum(
            s.processing_manager.stats.get("executions").count
            for s in cluster.sites[2:])
        assert unsafe_execs > 0
