"""Observability tooling: one event journal, the reports read from it and
from the managers' counters, and an in-run health watch.

* **The journal** — enable ``SDVMConfig(trace=True)`` and every manager
  reports typed events (frame lifecycle, steals, code fetches, checkpoint
  waves, messages, membership, power) into one cluster-wide
  :class:`Tracer`, the only trace sink.  A crash, an SDC mismatch or a
  failed chaos audit freezes the site's last events out of it as a flight
  dump (``cluster.tracer.dumps``).

* **Reports** — every cluster facade answers the same ones, from its
  sites' counters, the journal and the run's horizon::

      print(cluster.cluster_report().render())    # merged stats + ratios
      cluster.write_chrome_trace("run.trace.json")  # chrome://tracing
      print(blame_cluster(cluster).render())      # where the time went
      print(Timeline.from_cluster(cluster).render(width=72))

* **Health watch** — with ``SDVMConfig(metrics_interval=...)`` the
  cluster samples every site into an ``sdvm-metrics/1`` log while it
  runs, and :class:`HealthMonitor` fires detectors on the rows.

CLI surface: the report commands ``repro trace`` (Chrome trace),
``repro stats`` (cluster report), ``repro blame`` and ``repro
critical-path`` share one handler that runs the app traced; ``repro run
--trace`` draws the timeline, ``repro run --metrics-json`` writes the
samples that ``repro health`` and ``repro top`` read.  Benchmarks dump
the trace and the report per run when ``SDVM_TRACE_DIR`` is set (see
:mod:`repro.bench.harness`).
"""

from repro.trace.aggregate import (
    ClusterReport,
    aggregate_cluster,
    aggregate_sites,
)
from repro.trace.blame import BlameReport, blame_cluster, render_critical_path
from repro.trace.causal import CausalGraph, CausalNode, exec_node, msg_node
from repro.trace.chrome import (
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.health import DETECTORS, Detection, HealthMonitor, analyze_log
from repro.trace.metrics import (
    METRICS_SCHEMA,
    SAMPLE_FIELDS,
    MetricsLog,
    MetricsSampler,
    render_top,
    validate_metrics,
)
from repro.trace.timeline import Timeline
from repro.trace.tracer import EVENT_FIELDS, FLIGHT_DEPTH, Tracer, TracerEvent

__all__ = [
    "BlameReport",
    "CausalGraph",
    "CausalNode",
    "ClusterReport",
    "DETECTORS",
    "Detection",
    "EVENT_FIELDS",
    "FLIGHT_DEPTH",
    "HealthMonitor",
    "METRICS_SCHEMA",
    "MetricsLog",
    "MetricsSampler",
    "SAMPLE_FIELDS",
    "Timeline",
    "Tracer",
    "TracerEvent",
    "aggregate_cluster",
    "aggregate_sites",
    "analyze_log",
    "blame_cluster",
    "exec_node",
    "msg_node",
    "render_critical_path",
    "render_top",
    "to_chrome",
    "validate_chrome_trace",
    "write_chrome_trace",
]
