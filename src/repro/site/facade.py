"""ClusterFacade — what a simulated and a live cluster have in common.

Both facades build their sites over one kind of kernel and drive them;
this base builds the telemetry every site reports into (the one
:class:`~repro.trace.Tracer`, the metrics sampler and the health monitor)
and answers every report from the sites, the journal and the run's
:attr:`horizon`, so a report means the same under either kernel.  A
facade keeps site building, run control, its clock and how it drives the
sampler: a virtual-time timer in the sim, a thread live.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import SDVMConfig
from repro.common.errors import SDVMError
from repro.common.stats import StatSet


class ClusterFacade:
    """Telemetry and reports shared by SimCluster and LiveCluster."""

    sites: List  # the facade's SDVMSites, in creation order

    def __init__(self, config: Optional[SDVMConfig]) -> None:
        self.config = config or SDVMConfig()
        #: one structured tracer shared by every site (config.trace);
        #: list appends are atomic under CPython, so live reactor threads
        #: emit concurrently without a lock
        self.tracer = None
        if self.config.trace:
            from repro.trace import Tracer
            self.tracer = Tracer()
        #: in-run telemetry (config.metrics_interval > 0): the
        #: sdvm-metrics/1 sample log and the online health detectors
        self.metrics = None
        self.health = None
        self._sampler = None

    def _build_sampler(self, mode: str):  # noqa: ANN202 — MetricsSampler
        """Build the sampler and health monitor once the sites exist;
        None when ``metrics_interval`` is 0.  The caller drives it."""
        interval = self.config.metrics_interval
        if interval <= 0:
            return None
        from repro.trace import HealthMonitor, MetricsSampler
        tracer = self.tracer
        self.health = HealthMonitor(
            interval, emit=tracer.emit if tracer is not None else None)
        self._sampler = MetricsSampler(self, interval, monitor=self.health,
                                       mode=mode)
        self.metrics = self._sampler.log
        return self._sampler

    @property
    def horizon(self) -> float:
        """Seconds the run has lasted on the cluster's own clock."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # reports

    def total_stats(self) -> StatSet:
        """Merge every manager's counters across all sites."""
        merged = StatSet()
        for site in self.sites:
            for manager in site.managers.values():
                merged.merge(manager.stats)
        return merged

    def cluster_report(self):  # noqa: ANN201 — repro.trace.ClusterReport
        """Cluster-wide merged stats + derived metrics (``repro stats``)."""
        from repro.trace import aggregate_cluster
        return aggregate_cluster(self)

    def write_chrome_trace(self, path: str) -> int:
        """Export the structured trace for chrome://tracing / Perfetto.

        Requires ``SDVMConfig(trace=True)``; returns the event count.
        """
        if self.tracer is None:
            raise SDVMError(
                "tracing is off — build the cluster with "
                "SDVMConfig(trace=True) to export a Chrome trace")
        from repro.trace import write_chrome_trace
        names = {site.site_id: (site.site_config.name
                                or f"site {site.site_id}")
                 for site in self.sites if site.site_id >= 0}
        return write_chrome_trace(self.tracer, path, site_names=names)

    def accounting_report(self, tariff=None) -> str:  # noqa: ANN001
        """Cluster invoice (the paper's §6 accounting extension)."""
        from repro.accounting import ClusterAccountant
        return ClusterAccountant(tariff).report(
            [s for s in self.sites if s.site_id >= 0])
