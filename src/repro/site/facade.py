"""ClusterFacade — what a simulated and a live cluster have in common.

Both facades build their sites over one kind of kernel and drive them;
this base builds the telemetry every site reports into (the one
:class:`~repro.trace.Tracer`, the metrics sampler and the health monitor)
and answers every report from the sites, the journal and the run's
:attr:`horizon` — all on the kernels' one clock — so a report means the
same under either kernel.  A facade keeps site building, run control and
how it drives the sampler: a virtual-time timer in the sim, a thread live.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import SDVMConfig
from repro.common.errors import SDVMError
from repro.common.stats import StatSet

#: the tariff of the accounting extension (§6), in arbitrary currency
#: units: CPU consumption per work unit, scheduling overhead per
#: execution, network traffic per byte
WORK_UNIT_PRICE = 1e-6
EXECUTION_PRICE = 1e-4
BYTE_PRICE = 1e-7


def wall_clock_row(wall: float, events: float,
                   msgs: float) -> Dict[str, float]:
    """Host-time throughput figures of one or more runs."""
    return {
        "wall_seconds": wall,
        "events_executed": float(events),
        "messages": float(msgs),
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "msgs_per_sec": msgs / wall if wall > 0 else 0.0,
    }


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
        #: the horizon frozen when the run ends (a live shutdown)
        self._ended_at: Optional[float] = None

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
        """Seconds the run has lasted on its kernels' clock (virtual in
        the sim, wall seconds since the build live), frozen at its end."""
        if self._ended_at is not None:
            return self._ended_at
        return self.sites[0].kernel.now

    def _wall_clock(self) -> Tuple[float, int]:
        """Host seconds the run took and the kernel events it processed."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # reports

    def total_stats(self) -> StatSet:
        """Merge every manager's counters across all sites."""
        merged = StatSet()
        for site in self.sites:
            merged.merge(site.ledger())
        return merged

    def wall_clock_metrics(self) -> Dict[str, float]:
        """Host-time throughput of the run (informational only).

        Wall-clock figures are machine- and load-dependent, so they never
        participate in gated benchmark metrics — they ride along in the
        ``meta`` block of ``BENCH_*.json`` artifacts and in ``repro
        profile`` / ``repro stats`` output.
        """
        stats = self.total_stats()
        return wall_clock_row(*self._wall_clock(),
                              stats.get("sent").count
                              + stats.get("local_messages").count)

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

    def energy_report(self) -> Dict[int, dict]:
        """Per-site energy usage under the configured PowerConfig (§2.2)."""
        return {index: site.site_manager.energy_report()
                for index, site in enumerate(self.sites)}

    def invoices(self) -> Dict[int, dict]:
        """One bill per program (the paper's §6 accounting extension).

        Each site's program manager meters the executions and work it ran
        for a program; they are priced at the module's tariff.  The
        cluster's traffic is shared infrastructure, split by work share.
        """
        rows: Dict[int, dict] = {}
        total_work = total_bytes = 0.0
        for site in self.sites:
            if site.site_id < 0:
                continue
            total_bytes += site.message_manager.stats.get("bytes_sent").total
            for info in site.program_manager.programs.values():
                row = rows.setdefault(info.pid, {
                    "program": info.name, "executions": 0,
                    "work_units": 0.0, "traffic_cost": 0.0, "cost": 0.0})
                row["executions"] += info.executions
                row["work_units"] += info.work_charged
                row["cost"] += (info.work_charged * WORK_UNIT_PRICE
                                + info.executions * EXECUTION_PRICE)
                total_work += info.work_charged
        if total_work > 0:
            traffic = total_bytes * BYTE_PRICE
            for row in rows.values():
                row["traffic_cost"] = traffic * row["work_units"] / total_work
                row["cost"] += row["traffic_cost"]
        return rows

    def accounting_report(self) -> str:
        """The cluster invoice, one line per program, costliest work first."""
        lines = ["program                 execs        work     cost"]
        for row in sorted(self.invoices().values(),
                          key=lambda row: -row["work_units"]):
            lines.append(f"{row['program']:20s} {row['executions']:8d} "
                         f"{row['work_units']:11.0f} {row['cost']:8.4f}")
        return "\n".join(lines)
