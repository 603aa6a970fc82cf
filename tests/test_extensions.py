"""Tests for the paper's proposed extensions: accounting (§6) and
power-managed sleep states (§2.2, organic computing).
"""

from __future__ import annotations

import pytest

from repro.common.config import PowerConfig
from repro.common.errors import ConfigError
from repro.apps import build_primes_program, first_n_primes
from repro.site.facade import BYTE_PRICE, EXECUTION_PRICE, WORK_UNIT_PRICE
from repro.site.simcluster import SimCluster


class TestAccounting:
    def test_invoice_totals(self, fast_config):
        cluster = SimCluster(nsites=4, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(30, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(30)
        row = cluster.invoices()[handle.pid]
        # total work billed equals the work the processing managers did
        total_work = sum(s.processing_manager.stats.get("work_units").total
                         for s in cluster.sites)
        assert row["work_units"] == pytest.approx(total_work)
        # the only program pays for all of the cluster's traffic
        bytes_sent = cluster.total_stats().get("bytes_sent").total
        assert row["cost"] == pytest.approx(
            total_work * WORK_UNIT_PRICE
            + row["executions"] * EXECUTION_PRICE
            + bytes_sent * BYTE_PRICE)

    def test_two_programs_billed_separately(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        h1 = cluster.submit(build_primes_program(),
                            args=(20, 4, 400.0, 4000.0))
        h2 = cluster.submit(build_primes_program(),
                            args=(10, 4, 400.0, 4000.0), site_index=1,
                            at=0.001)
        cluster.run(progress_timeout=120.0)
        invoices = cluster.invoices()
        assert h1.pid in invoices and h2.pid in invoices
        assert invoices[h1.pid]["work_units"] > invoices[h2.pid]["work_units"]

    def test_traffic_apportioned_by_work(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        h1 = cluster.submit(build_primes_program(),
                            args=(20, 5, 400.0, 4000.0))
        h2 = cluster.submit(build_primes_program(),
                            args=(10, 4, 400.0, 4000.0), site_index=1,
                            at=0.001)
        cluster.run(progress_timeout=120.0)
        rows = cluster.invoices()
        traffic = cluster.total_stats().get("bytes_sent").total * BYTE_PRICE
        total_work = sum(row["work_units"] for row in rows.values())
        assert sum(row["traffic_cost"] for row in rows.values()) == (
            pytest.approx(traffic))
        for handle in (h1, h2):
            row = rows[handle.pid]
            assert row["traffic_cost"] == pytest.approx(
                traffic * row["work_units"] / total_work)
            assert row["cost"] == pytest.approx(
                row["work_units"] * WORK_UNIT_PRICE
                + row["executions"] * EXECUTION_PRICE + row["traffic_cost"])

    def test_report_renders(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.submit(build_primes_program(), args=(15, 4, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        report = cluster.accounting_report()
        assert "primes" in report


class TestPowerManagement:
    def power_config(self, fast_config, **kwargs):
        return fast_config.with_(power=PowerConfig(enabled=True,
                                                   sleep_after=0.2,
                                                   **kwargs))

    def test_idle_sites_fall_asleep(self, fast_config):
        cluster = SimCluster(nsites=3,
                             config=self.power_config(fast_config))
        cluster.sim.run(until=2.0)
        assert all(site.sleeping for site in cluster.sites)
        report = cluster.energy_report()
        assert all(r["sleep_s"] > 0 for r in report.values())

    def test_sleeping_site_wakes_for_work(self, fast_config):
        cluster = SimCluster(nsites=3,
                             config=self.power_config(fast_config))
        cluster.sim.run(until=2.0)
        assert all(site.sleeping for site in cluster.sites)
        handle = cluster.submit(build_primes_program(),
                                args=(30, 8, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(30)
        # the submitting site woke, and at least one peer was woken to help
        wakeups = sum(s.site_manager.stats.get("site_wake").count
                      for s in cluster.sites)
        assert wakeups >= 2

    def test_energy_saved_by_sleeping(self, fast_config):
        """Idle cluster: sleep-enabled burns far less than sleep-disabled."""
        asleep = SimCluster(nsites=2,
                            config=self.power_config(fast_config,
                                                     idle_watts=60.0,
                                                     sleep_watts=5.0))
        asleep.sim.run(until=5.0)
        awake = SimCluster(nsites=2, config=fast_config)
        awake.sim.run(until=5.0)
        joules_asleep = sum(r["joules"]
                            for r in asleep.energy_report().values())
        joules_awake = sum(r["joules"]
                           for r in awake.energy_report().values())
        assert joules_asleep < 0.35 * joules_awake

    def test_sleep_does_not_change_results(self, fast_config):
        cluster = SimCluster(nsites=4,
                             config=self.power_config(fast_config))
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 400.0, 4000.0), at=1.0)
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)

    def test_power_config_validation(self):
        with pytest.raises(ConfigError):
            PowerConfig(sleep_after=0.0)
        with pytest.raises(ConfigError):
            PowerConfig(busy_watts=-1.0)
