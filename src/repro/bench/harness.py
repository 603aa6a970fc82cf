"""Shared helpers for the benchmark suite."""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import (build_primes_program, build_treesum_program,
                        first_n_primes, treesum_expected)
from repro.common.config import SchedulingConfig, SDVMConfig
from repro.common.errors import SDVMError
from repro.site.facade import wall_clock_row
from repro.site.simcluster import SimCluster

#: set SDVM_BENCH_FULL=1 to run the full Table 1 sweep (p up to 1000);
#: the default keeps CI runs in seconds
FULL_SWEEP = os.environ.get("SDVM_BENCH_FULL", "") not in ("", "0")

#: set SDVM_TRACE_DIR=<dir> to make every benchmark run with structured
#: tracing on and dump a Chrome trace + stats report per run
TRACE_DIR = os.environ.get("SDVM_TRACE_DIR", "")

#: retention for the trace dir: keep artifacts of the newest N runs (a
#: run = every file sharing one <name> stem); 0 disables pruning.  Full
#: sweeps write hundreds of megabytes per invocation — without a cap an
#: always-on trace dir grows until the disk fills.
TRACE_KEEP = int(os.environ.get("SDVM_TRACE_KEEP", "40"))


def _prune_trace_dir(dirpath: str, keep: int) -> List[str]:
    """Delete the oldest run artifacts so at most ``keep`` runs remain.

    Files are grouped into runs by their stem (the part before the first
    ``.``), ranked by the newest mtime in each group, and whole groups
    are removed oldest-first — a run's .trace.json and .stats.txt always
    live and die together.  Returns the paths removed (for tests).
    """
    if keep <= 0:
        return []
    groups: Dict[str, List[str]] = {}
    try:
        names = os.listdir(dirpath)
    except OSError:
        return []
    for name in names:
        path = os.path.join(dirpath, name)
        if os.path.isfile(path):
            groups.setdefault(name.split(".", 1)[0], []).append(path)
    if len(groups) <= keep:
        return []

    def newest(paths: List[str]) -> float:
        return max(os.path.getmtime(p) for p in paths)

    doomed = sorted(groups.values(), key=newest)[:len(groups) - keep]
    removed = []
    for paths in doomed:
        for path in paths:
            try:
                os.remove(path)
                removed.append(path)
            except OSError:
                pass
    return removed


def bench_config(**overrides) -> SDVMConfig:
    """The configuration every benchmark uses unless it sweeps a knob."""
    base = SDVMConfig(
        # gossip_interval: the benchmarks measure work distribution, so
        # load-report corrections are on (the global default keeps them
        # off for the power/sleep experiments)
        # gossip_staleness: reports go out on change, so this is not a
        # multiple of the interval: it bounds how long a lost report can
        # mislead, and a site keeps correcting a peer for half of it
        # after its last message to that peer
        # push_min_queue 0: the fan-out producer (the program's home)
        # sheds every surplus frame to a known-idle peer the moment its
        # own lanes are full, instead of waiting for thieves to beg
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0,
                                    gossip_interval=1e-3,
                                    gossip_staleness=5e-2,
                                    push_min_queue=0),
        trace=bool(TRACE_DIR))
    return base.with_(**overrides) if overrides else base


def dump_trace_artifact(cluster: SimCluster, name: str) -> Optional[str]:
    """Write <name>.trace.json + <name>.stats.txt under SDVM_TRACE_DIR.

    No-op (returns None) unless the env var is set and the cluster was
    built with tracing on.  Returns the trace path on success.
    """
    if not TRACE_DIR or cluster.tracer is None:
        return None
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{name}.trace.json")
    cluster.write_chrome_trace(trace_path)
    stats_path = os.path.join(TRACE_DIR, f"{name}.stats.txt")
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write(cluster.cluster_report().render())
        fh.write("\n")
    _prune_trace_dir(TRACE_DIR, TRACE_KEEP)
    return trace_path


def run_primes(p: int, width: int, nsites: int, scale: float, base: float,
               config: Optional[SDVMConfig] = None,
               verify: bool = True,
               progress_timeout: float = 600.0) -> Tuple[float, SimCluster]:
    """Run the primes app; returns (virtual duration, cluster)."""
    cluster = SimCluster(nsites=nsites, config=config or bench_config())
    handle = cluster.submit(build_primes_program(),
                            args=(p, width, scale, base))
    cluster.run(progress_timeout=progress_timeout)
    if verify and handle.result != first_n_primes(p):
        raise SDVMError(f"primes({p}, {width}) returned a wrong result")
    dump_trace_artifact(cluster, f"primes_p{p}_w{width}_s{nsites}")
    return handle.duration, cluster


def run_treesum(leaves: int, scale: float, nsites: int,
                config: Optional[SDVMConfig] = None,
                verify: bool = True,
                progress_timeout: float = 600.0) -> Tuple[float, SimCluster]:
    """Run the treesum app; returns (virtual duration, cluster)."""
    cluster = SimCluster(nsites=nsites, config=config or bench_config())
    handle = cluster.submit(build_treesum_program(), args=(leaves, scale))
    cluster.run(progress_timeout=progress_timeout)
    if verify and handle.result != treesum_expected(leaves):
        raise SDVMError(f"treesum({leaves}) returned a wrong result")
    dump_trace_artifact(cluster, f"treesum_l{leaves}_s{nsites}")
    return handle.duration, cluster


def speedup_row(t1: float, tn: Dict[int, float]) -> Dict[int, float]:
    return {n: t1 / t for n, t in tn.items()}


def wall_clock_meta(clusters: Sequence[SimCluster]) -> Dict[str, float]:
    """Aggregate wall-clock throughput over finished cluster runs.

    These figures are machine- and load-dependent, so they go into the
    ``meta`` block of bench documents (which :func:`compare_metrics` never
    reads) — informational visibility without a flaky gate.
    """
    rows = [cluster.wall_clock_metrics() for cluster in clusters]
    return wall_clock_row(*(sum(row[key] for row in rows) for key in
                            ("wall_seconds", "events_executed", "messages")))


# ---------------------------------------------------------------------------
# machine-readable bench artifacts + the regression comparator

#: schema tag every BENCH_*.json carries; bump on incompatible change
BENCH_SCHEMA = "sdvm-bench/1"

#: relative tolerance applied to any metric without its own entry
DEFAULT_REL_TOL = 0.05


def cluster_bench_metrics(cluster: SimCluster,
                          prefix: str = "") -> Dict[str, float]:
    """Flat metric dict for one finished cluster run.

    Pulls the derived metrics from :mod:`repro.trace.aggregate` and, when
    the run was traced, the blame-category fractions of total cluster time
    from :mod:`repro.trace.blame` — so a regression in *why* time is spent
    (more steal-wait, less compute) trips the gate even if end-to-end
    timing barely moves.
    """
    out: Dict[str, float] = {}
    report = cluster.cluster_report()
    for name, value in report.derived.items():
        out[f"{prefix}{name}"] = float(value)
    if cluster.tracer is not None:
        from repro.trace.blame import blame_cluster
        blame = blame_cluster(cluster)
        denom = blame.cluster_seconds or 1.0
        for category, seconds in blame.totals.items():
            out[f"{prefix}blame_{category}_frac"] = seconds / denom
    return out


def bench_doc(suite: str, metrics: Dict[str, float],
              tolerances: Optional[Dict[str, float]] = None,
              meta: Optional[Dict[str, object]] = None) -> dict:
    """Assemble one schema'd bench document."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "metrics": {name: float(value)
                    for name, value in sorted(metrics.items())},
        "tolerances": dict(sorted((tolerances or {}).items())),
        "meta": dict(meta or {}),
    }


def write_bench_json(directory: str, suite: str,
                     metrics: Dict[str, float],
                     tolerances: Optional[Dict[str, float]] = None,
                     meta: Optional[Dict[str, object]] = None) -> str:
    """Write ``BENCH_<suite>.json`` under ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{suite}.json")
    doc = bench_doc(suite, metrics, tolerances, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> dict:
    """Load + schema-check one bench document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise SDVMError(
            f"{path}: unsupported bench schema {doc.get('schema')!r} "
            f"(expected {BENCH_SCHEMA})")
    if not isinstance(doc.get("metrics"), dict):
        raise SDVMError(f"{path}: metrics missing or not a dict")
    return doc


def compare_metrics(current: Dict[str, float],
                    baseline: dict) -> List[dict]:
    """Diff ``current`` metrics against a baseline document.

    Every baseline metric must be present in ``current`` and within its
    tolerance (the baseline's per-metric entry, else ``DEFAULT_REL_TOL``,
    relative to the baseline value; for a zero baseline the tolerance is
    read as an absolute bound).  Metrics present only in ``current`` are
    ignored — adding instrumentation must not fail the gate.  Returns the
    list of violations (empty = pass).
    """
    tolerances = baseline.get("tolerances", {})
    violations: List[dict] = []
    for name, expected in baseline["metrics"].items():
        tol = float(tolerances.get(name, DEFAULT_REL_TOL))
        got = current.get(name)
        if got is None:
            violations.append({
                "metric": name, "baseline": expected, "current": None,
                "tolerance": tol, "reason": "missing from current run"})
            continue
        if expected == 0.0:
            deviation = abs(got)
            ok = deviation <= tol
        else:
            deviation = abs(got - expected) / abs(expected)
            ok = deviation <= tol
        if not ok:
            violations.append({
                "metric": name, "baseline": expected, "current": got,
                "tolerance": tol, "deviation": deviation,
                "reason": "outside tolerance"})
    return violations


def render_violations(suite: str, violations: List[dict]) -> str:
    lines = [f"bench gate FAILED for suite {suite!r}:"]
    for v in violations:
        if v["current"] is None:
            lines.append(f"  {v['metric']:<32s} missing "
                         f"(baseline {v['baseline']:.6g})")
        else:
            lines.append(
                f"  {v['metric']:<32s} baseline {v['baseline']:.6g} "
                f"current {v['current']:.6g} "
                f"deviation {100.0 * v['deviation']:.1f}% "
                f"> tol {100.0 * v['tolerance']:.1f}%")
    return "\n".join(lines)


def render_table(title: str, header: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table in the style of the paper's Table 1."""
    columns = [str(h) for h in header]
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = [title, line,
           "|" + "|".join(f" {columns[i]:<{widths[i]}} "
                          for i in range(len(columns))) + "|",
           line]
    for row in rendered_rows:
        out.append("|" + "|".join(f" {row[i]:>{widths[i]}} "
                                  for i in range(len(row))) + "|")
    out.append(line)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
