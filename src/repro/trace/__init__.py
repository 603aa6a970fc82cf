"""Observability tooling: structured tracing, Chrome export, cluster stats.

Three layers, all fed by the same runs:

* **Structured tracing** — enable ``SDVMConfig(trace=True)`` and every
  manager reports typed events (frame lifecycle, steals, code fetches,
  checkpoint waves, messages, membership, power) into one cluster-wide
  :class:`Tracer`.  Export it for ``chrome://tracing`` / Perfetto::

      from repro.trace import write_chrome_trace
      write_chrome_trace(cluster.tracer, "run.trace.json")

* **Cluster metrics** — merge every site's per-manager counters into one
  report with derived metrics (steal success rate, code-cache hit rate,
  checkpoint-wave cost)::

      from repro.trace import aggregate_cluster
      print(aggregate_cluster(cluster).render())

* **ASCII timelines** — drawn from the same tracer events::

      from repro.trace import Timeline
      print(Timeline.from_cluster(cluster).render(width=72))

CLI surface: ``repro trace <app> -o run.trace.json`` and
``repro stats <app>``.  Benchmarks dump both artifacts per run when
``SDVM_TRACE_DIR`` is set (see :mod:`repro.bench.harness`).
"""

from repro.trace.aggregate import (
    ClusterReport,
    aggregate_cluster,
    aggregate_sites,
    site_stats,
)
from repro.trace.blame import (
    BlameReport,
    blame_cluster,
    blame_sites,
    render_critical_path,
)
from repro.trace.causal import CausalGraph, CausalNode, exec_node, msg_node
from repro.trace.chrome import (
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.flight import FlightRecorder
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
from repro.trace.tracer import EVENT_FIELDS, Tracer, TracerEvent

__all__ = [
    "BlameReport",
    "CausalGraph",
    "CausalNode",
    "ClusterReport",
    "DETECTORS",
    "Detection",
    "EVENT_FIELDS",
    "FlightRecorder",
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
    "blame_sites",
    "exec_node",
    "msg_node",
    "render_critical_path",
    "render_top",
    "site_stats",
    "to_chrome",
    "validate_chrome_trace",
    "write_chrome_trace",
]
