"""Command-line interface for the SDVM reproduction.

Usage (installed as a module)::

    python -m repro.cli apps                      # list bundled programs
    python -m repro.cli run primes --sites 8 --args 100 10
    python -m repro.cli run matmul --sites 4 --args 24 6 --trace
    python -m repro.cli run mergesort --sites 4 --args 2000 64 1 --invoice
    python -m repro.cli trace primes --sites 4 --out primes.json
    python -m repro.cli stats primes --sites 4
    python -m repro.cli blame primes --sites 8    # where did the time go?
    python -m repro.cli critical-path primes --sites 8
    python -m repro.cli run primes --metrics-json run.metrics.jsonl
    python -m repro.cli health run.metrics.jsonl  # stall detectors
    python -m repro.cli top run.metrics.jsonl --key busy_frac
    python -m repro.cli bench --check             # regression gate
    python -m repro.cli profile primes --sites 2  # cProfile hot spots
    python -m repro.cli profile --suite scaling --sites 256
    python -m repro.cli sweep --sites 1,8 --seeds 0:4 --workers 8
    python -m repro.cli table1 --p 100            # one Table-1 row

``run`` builds a simulated cluster, executes the program, prints its
frontend output, result summary, and (optionally) a timeline and invoice.
``trace`` exports a Chrome/Perfetto trace of the run; ``stats`` prints the
cluster-wide metrics report (derived steal/code-cache/checkpoint ratios).
``blame`` attributes every site-second of the run to a category (compute,
steal-wait, code-fetch, checkpoint-pause, message-latency, idle) from the
causal trace; ``critical-path`` walks the causal chain that determined
the end-to-end runtime.  These four report commands share one handler,
``cmd_report``: one traced run, one header line, then the command's view
from ``REPORTS``.  ``bench`` runs the deterministic gate suites,
writes ``BENCH_<suite>.json`` artifacts, and with ``--check`` diffs them
against the committed baselines (non-zero exit on regression).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.config import (
    CostModel,
    SchedulingConfig,
    SDVMConfig,
    SecurityConfig,
)
from repro.site.simcluster import SimCluster

#: bundled applications: name -> (builder, default args, arg docs)
APPS: Dict[str, tuple] = {
    "primes": ("repro.apps.primes", "build_primes_program",
               (100, 10, 400.0, 4000.0), "p width scale base"),
    "primes-rounds": ("repro.apps.primes_rounds",
                      "build_primes_rounds_program",
                      (100, 10, 400.0, 4000.0), "p width scale base"),
    "matmul": ("repro.apps.matmul", "build_matmul_program",
               (16, 4), "n block"),
    "mergesort": ("repro.apps.mergesort", "build_mergesort_program",
                  (1000, 64, 42), "n cutoff seed"),
    "mandelbrot": ("repro.apps.mandelbrot", "build_mandelbrot_program",
                   (60, 20, 60), "width height max_iter"),
    "stencil": ("repro.apps.stencil", "build_stencil_program",
                (16, 4, 20), "n strips steps"),
    "memstress": ("repro.apps.memstress", "build_memstress_program",
                  (48, 60000.0), "n scale"),
}


def _load_app(name: str):
    import importlib
    module_name, builder_name, defaults, _docs = APPS[name]
    module = importlib.import_module(module_name)
    return getattr(module, builder_name)(), defaults


def _coerce_args(raw: Sequence[str], defaults: tuple) -> tuple:
    """Coerce CLI argument strings to the defaults' types, padding with
    defaults for anything omitted."""
    out = []
    for index, default in enumerate(defaults):
        if index < len(raw):
            out.append(type(default)(raw[index]))
        else:
            out.append(default)
    return tuple(out)


def _build_config(args: argparse.Namespace,
                  trace: bool = False) -> SDVMConfig:
    sampled = getattr(args, "metrics_json", "")
    return SDVMConfig(
        cost=CostModel(compile_fixed_cost=1e-3),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0),
        security=SecurityConfig(enabled=getattr(args, "encrypt", False)),
        trace=trace,
        metrics_interval=args.metrics_interval if sampled else 0.0,
        seed=args.seed,
    )


def _run_app(args: argparse.Namespace, out,  # noqa: ANN001
             trace: bool = False):
    """Build a sim cluster, run the requested app, return (cluster, handle).

    Shared by ``run``, ``profile`` and the report commands; returns
    (None, None) after printing a hint when the app name is unknown.
    """
    if args.app not in APPS:
        print(f"unknown app {args.app!r}; try: {', '.join(APPS)}",
              file=out)
        return None, None
    program, defaults = _load_app(args.app)
    app_args = _coerce_args(args.args, defaults)
    cluster = SimCluster(nsites=args.sites,
                         config=_build_config(args, trace=trace))
    handle = cluster.submit(program, args=app_args)
    cluster.run(progress_timeout=600.0)
    return cluster, handle


def cmd_apps(_args: argparse.Namespace, out) -> int:  # noqa: ANN001
    print("bundled SDVM applications:", file=out)
    for name, (_m, _b, defaults, docs) in APPS.items():
        print(f"  {name:14s} args: {docs}  (defaults: "
              f"{' '.join(str(d) for d in defaults)})", file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    cluster, handle = _run_app(args, out, trace=args.trace)
    if cluster is None:
        return 2

    for line in handle.output():
        print(f"  | {line}", file=out)
    result = handle.result
    summary = repr(result)
    if len(summary) > 120:
        summary = summary[:117] + "..."
    print(f"result: {summary}", file=out)
    print(f"virtual time: {handle.duration:.4f}s on {args.sites} site(s)",
          file=out)
    stats = cluster.total_stats()
    print(f"executions: {stats.get('executions').count}, "
          f"messages: {stats.get('sent').count}, "
          f"steals: {stats.get('steals_in').count}", file=out)
    if args.trace:
        from repro.trace import Timeline
        print(Timeline.from_cluster(cluster).render(width=64), file=out)
    if args.invoice:
        print(cluster.accounting_report(), file=out)
    if args.metrics_json:
        cluster.metrics.write_jsonl(args.metrics_json)
        rows = sum(len(tick) for _t, tick in cluster.metrics.ticks())
        print(f"wrote {rows} metric samples to {args.metrics_json} "
              f"(inspect with `repro health` / `repro top`)", file=out)
        if cluster.health is not None and not cluster.health.ok:
            print(cluster.health.render(), file=out)
    return 0


def _report_trace(args: argparse.Namespace, cluster, out) -> None:  # noqa: ANN001
    count = cluster.write_chrome_trace(args.out)
    print(f"wrote {count} trace events to {args.out} "
          f"(open with chrome://tracing or https://ui.perfetto.dev)",
          file=out)


def _report_stats(args: argparse.Namespace, cluster, out) -> None:  # noqa: ANN001
    wall = cluster.wall_clock_metrics()
    print(f"wall: {wall['wall_seconds']:.3f}s, "
          f"{wall['events_executed']:.0f} events "
          f"({wall['events_per_sec']:.0f} events/sec)", file=out)
    print(cluster.cluster_report().render(top=args.top), file=out)


def _report_blame(args: argparse.Namespace, cluster, out) -> None:  # noqa: ANN001
    from repro.trace import blame_cluster
    report = blame_cluster(cluster)
    print(report.render(), file=out)
    if args.json:
        import json
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote blame report to {args.json}", file=out)


def _report_critical_path(args: argparse.Namespace, cluster,
                          out) -> None:  # noqa: ANN001
    from repro.trace import CausalGraph, render_critical_path
    segments = CausalGraph.from_tracer(cluster.tracer).critical_path()
    print(render_critical_path(segments, summary_only=args.summary),
          file=out)


#: the report commands: each runs its app traced, then renders one view
REPORTS: Dict[str, Callable] = {
    "trace": _report_trace,
    "stats": _report_stats,
    "blame": _report_blame,
    "critical-path": _report_critical_path,
}


def cmd_report(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Run an app with the tracer on, print one header line, then the
    report the command names (``REPORTS``)."""
    cluster, handle = _run_app(args, out, trace=True)
    if cluster is None:
        return 2
    print(f"{args.app}: {handle.duration:.4f}s virtual on {args.sites} "
          f"site(s)", file=out)
    REPORTS[args.command](args, cluster, out)
    return 0


def cmd_bench(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Run the gate suites; optionally check against / refresh baselines."""
    import os

    from repro.bench import (
        GATE_SUITES,
        compare_metrics,
        load_bench_json,
        render_violations,
        write_bench_json,
    )

    names = args.suites or sorted(GATE_SUITES)
    unknown = [n for n in names if n not in GATE_SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}; available: "
              f"{', '.join(sorted(GATE_SUITES))}", file=out)
        return 2

    target_dir = args.baselines if args.update_baselines else args.out
    failed = False
    for name in names:
        # meta carries informational wall-clock figures the comparator
        # never reads
        metrics, tolerances, meta = GATE_SUITES[name]()
        path = write_bench_json(target_dir, name, metrics,
                                tolerances=tolerances, meta=meta)
        print(f"{name}: {len(metrics)} metrics -> {path}", file=out)
        if not args.check:
            continue
        baseline_path = os.path.join(args.baselines, f"BENCH_{name}.json")
        if not os.path.exists(baseline_path):
            print(f"bench gate FAILED: no baseline at {baseline_path} "
                  f"(run `repro bench --update-baselines`)", file=out)
            failed = True
            continue
        violations = compare_metrics(metrics,
                                     load_bench_json(baseline_path))
        if violations:
            print(render_violations(name, violations), file=out)
            failed = True
        else:
            print(f"{name}: within tolerance of {baseline_path}", file=out)
    if failed:
        return 1
    if args.check:
        print("bench gate PASSED", file=out)
    return 0


def cmd_profile(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Run an app under cProfile and print the hottest functions.

    ``--suite scaling`` profiles the bench-gate scaling workload instead
    of a named app: treesum under the gate's big-cluster config (slow
    gossip, no trace) — the exact run to point a profiler at when
    hunting large-``n`` hotspots.

    The wall-clock throughput line uses the cluster's own accounting
    (:meth:`SimCluster.wall_clock_metrics`); note that the profiler's
    tracing overhead deflates it vs. an unprofiled run.
    """
    import cProfile
    import io
    import pstats

    if args.suite:
        args.sites = args.sites or 64
        label = f"scaling suite: treesum on {args.sites} site(s)"
    else:
        args.sites = args.sites or 4
        if not args.app:
            print("profile: an app name is required unless --suite is "
                  "given", file=out)
            return 2
        label = f"{args.app} on {args.sites} site(s)"

    profiler = cProfile.Profile()
    if args.suite:
        from repro.bench.harness import run_treesum
        from repro.bench.suites import _scaling_config
        leaves = int(args.args[0]) if args.args else 1024
        scale = float(args.args[1]) if len(args.args) > 1 else 16000.0
        profiler.enable()
        try:
            duration, cluster = run_treesum(leaves, scale, args.sites,
                                            config=_scaling_config(
                                                args.sites))
        finally:
            profiler.disable()
    else:
        profiler.enable()
        try:
            cluster, handle = _run_app(args, out)
        finally:
            profiler.disable()
        if cluster is None:
            return 2
        duration = handle.duration

    wall = cluster.wall_clock_metrics()
    print(f"{label}: {duration:.4f}s virtual", file=out)
    print(f"wall: {wall['wall_seconds']:.3f}s, "
          f"{wall['events_executed']:.0f} events "
          f"({wall['events_per_sec']:.0f} events/sec), "
          f"{wall['messages']:.0f} messages "
          f"({wall['msgs_per_sec']:.0f} msgs/sec) [under profiler]",
          file=out)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue(), file=out)
    if args.out_stats:
        stats.dump_stats(args.out_stats)
        print(f"wrote raw profile to {args.out_stats} "
              f"(inspect with python -m pstats)", file=out)
    return 0


def _parse_int_list(spec: str) -> List[int]:
    """``"1,8,64"`` -> [1, 8, 64]; ``"0:4"`` -> [0, 1, 2, 3]."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(part) for part in spec.split(",") if part != ""]


def cmd_sweep(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Fan a config sweep across worker processes; write the report.

    Exit codes: 0 all points ok (and, with ``--selfcheck``, all
    fingerprints stable), 1 any failed point or determinism mismatch,
    2 usage error.
    """
    from repro.bench.sweep import (SWEEP_APPS, make_point, render_sweep,
                                   run_sweep, write_sweep_json)

    if args.app not in SWEEP_APPS:
        print(f"unknown sweep app {args.app!r}; available: "
              f"{', '.join(SWEEP_APPS)}", file=out)
        return 2
    try:
        sites = _parse_int_list(args.sites)
        seeds = _parse_int_list(args.seeds)
    except ValueError as exc:
        print(f"bad --sites/--seeds spec: {exc}", file=out)
        return 2
    if not sites or not seeds:
        print("empty --sites or --seeds sweep", file=out)
        return 2

    params: Dict[str, object] = {}
    if args.app == "treesum":
        params["leaves"] = args.leaves
        params["scale"] = args.scale
    else:
        params["p"] = args.p
        params["width"] = args.width
    gossips: List[Optional[float]] = (list(args.gossip)
                                      if args.gossip else [None])
    fracs: List[Optional[float]] = (list(args.replicate_frac)
                                    if args.replicate_frac else [None])
    points = [make_point(args.app, nsites=nsites, seed=seed,
                         gossip_interval=gossip, replicate_frac=frac,
                         **params)
              for nsites in sites
              for gossip in gossips
              for frac in fracs
              for seed in seeds]
    report = run_sweep(points, workers=args.workers,
                       selfcheck=args.selfcheck,
                       progress_timeout=args.progress_timeout)
    print(render_sweep(report), file=out)
    if args.out:
        path = write_sweep_json(args.out, report)
        print(f"wrote {path}", file=out)
    return 0 if report["ok"] else 1


def cmd_table1(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    from repro.bench import (
        PAPER_TABLE1,
        calibrated_test_params,
        render_table,
        run_primes,
    )
    width = args.width
    if (args.p, width) not in PAPER_TABLE1:
        print(f"no paper row for p={args.p} width={width}; rows: "
              f"{sorted(PAPER_TABLE1)}", file=out)
        return 2
    scale, base = calibrated_test_params(args.p, width)
    times = {}
    for nsites in (1, 4, 8):
        times[nsites], _cluster = run_primes(args.p, width, nsites,
                                             scale, base)
    t1, t4, t8 = (times[n] for n in (1, 4, 8))
    p1, p4, p8 = PAPER_TABLE1[(args.p, width)]
    print(render_table(
        f"Table 1 row: p={args.p} width={width}",
        ["", "1 site", "4 sites (S)", "8 sites (S)"],
        [["measured", f"{t1:.1f}s", f"{t4:.1f}s ({t1 / t4:.1f})",
          f"{t8:.1f}s ({t1 / t8:.1f})"],
         ["paper", f"{p1:.1f}s", f"{p4:.1f}s ({p1 / p4:.1f})",
          f"{p8:.1f}s ({p1 / p8:.1f})"]]), file=out)
    return 0


def _load_metrics(path: str, out):  # noqa: ANN001, ANN202
    """Load + validate an ``sdvm-metrics/1`` file; None after a message."""
    import os

    from repro.common.errors import SDVMError
    from repro.trace import MetricsLog

    if not os.path.exists(path):
        print(f"no metrics file at {path}", file=out)
        return None
    try:
        return MetricsLog.load(path)
    except SDVMError as exc:
        print(f"invalid metrics file {path}: {exc}", file=out)
        return None


def cmd_health(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Replay a metrics file through the stall detectors; exit 1 if any
    fired (usable as a CI health gate on run artifacts)."""
    from repro.trace import analyze_log

    log = _load_metrics(args.file, out)
    if log is None:
        return 2
    monitor = analyze_log(log)
    verdict = monitor.verdict()
    print(monitor.render(limit=args.limit), file=out)
    print(f"queue p50/p90: {verdict['queue_p50']:.0f}/"
          f"{verdict['queue_p90']:.0f}, wave age p99: "
          f"{verdict['wave_age_p99'] * 1e3:.1f}ms over "
          f"{verdict['ticks']} tick(s)", file=out)
    return 0 if verdict["ok"] else 1


def cmd_top(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Per-site time-series table from a metrics file (postmortem `top`)."""
    from repro.common.errors import SDVMError
    from repro.trace import render_top

    log = _load_metrics(args.file, out)
    if log is None:
        return 2
    try:
        print(render_top(log, key=args.key, last=args.last), file=out)
    except SDVMError as exc:
        print(str(exc), file=out)
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace, out) -> int:  # noqa: ANN001
    """Fault-injection front end: replay plans, sweep seeds, run corpus."""
    import glob
    import json
    import os

    from repro.chaos import FaultPlan, fuzz, run_plan
    from repro.chaos.fuzz import WORKLOADS

    fingerprints = {}  # of the replication-off plans: the ones tests pin

    def replay(path: str) -> int:
        plan = FaultPlan.load(path)
        result = run_plan(plan)
        label = plan.name or os.path.basename(path)
        if plan.replicate_frac == 0.0:
            fingerprints[os.path.basename(path)] = result.fingerprint
        if result.ok:
            print(f"{label}: PASS ({len(plan.faults)} fault(s), "
                  f"fingerprint {result.fingerprint[:12]})", file=out)
        else:
            print(f"{label}: FAIL", file=out)
            for violation in result.violations:
                print(f"  {violation}", file=out)
            return 1
        if args.twice:
            first, second = result.fingerprint, run_plan(plan).fingerprint
            if first != second:
                print(f"{label}: NOT deterministic "
                      f"({first[:12]} != {second[:12]})", file=out)
                return 1
            print(f"{label}: deterministic across two runs", file=out)
        return 0

    if args.action == "run":
        if not args.target:
            print("chaos run needs a plan file", file=out)
            return 2
        return replay(args.target)

    if args.action == "corpus":
        paths = sorted(glob.glob(os.path.join(args.dir, "*.json")))
        if not paths:
            print(f"no plans under {args.dir}", file=out)
            return 2
        worst = 0
        for path in paths:
            worst = max(worst, replay(path))
        if args.fingerprints:
            print(json.dumps(fingerprints, indent=4), file=out)
        return worst

    # action == "fuzz"
    lo, hi = args.seeds
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    failures = []
    for workload in workloads:
        found = fuzz(range(lo, hi + 1), nsites=args.sites,
                     shrink=not args.no_shrink, corrupt=args.corrupt,
                     workload=workload,
                     report=lambda line: print(line, file=out))
        for failure in found:
            if args.save_dir:
                os.makedirs(args.save_dir, exist_ok=True)
                path = os.path.join(
                    args.save_dir,
                    f"fuzz_{workload}_seed_{failure.seed}.json")
                failure.shrunk.save(path)
                print(f"{workload} seed {failure.seed}: shrunk plan saved "
                      f"to {path}", file=out)
        if len(workloads) > 1:
            seeds = ", ".join(str(failure.seed) for failure in found)
            print(f"fuzz {workload}: {hi - lo + 1} seed(s), "
                  f"{len(found)} failure(s)"
                  + (f" (seeds {seeds})" if found else ""), file=out)
        failures.extend(found)
    print(f"fuzz: {len(workloads) * (hi - lo + 1)} seed(s), "
          f"{len(failures)} failure(s)", file=out)
    return 1 if failures else 0


def _app_options(profile: bool = False) -> argparse.ArgumentParser:
    """The options of every sub-command that runs an app.  ``profile``
    may name a suite instead of an app, and then sizes the cluster for
    it, so there the app is optional and ``--sites`` has no default."""
    options = argparse.ArgumentParser(add_help=False)
    if profile:
        options.add_argument("app", nargs="?", default="")
    else:
        options.add_argument("app")
    options.add_argument("--sites", type=int, default=None if profile else 4)
    options.add_argument("--args", nargs="*", default=[],
                         help="program arguments (see `apps`)")
    options.add_argument("--seed", type=int, default=0)
    return options


def build_parser() -> argparse.ArgumentParser:
    from repro.chaos.fuzz import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro", description="SDVM reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)
    app = [_app_options()]

    sub.add_parser("apps", help="list bundled applications")

    run_parser = sub.add_parser("run", parents=app,
                                help="run an app on a sim cluster")
    run_parser.add_argument("--trace", action="store_true",
                            help="print an ASCII timeline")
    run_parser.add_argument("--invoice", action="store_true",
                            help="print the accounting report")
    run_parser.add_argument("--encrypt", action="store_true",
                            help="enable the security manager")
    run_parser.add_argument("--metrics-json", metavar="PATH", default="",
                            help="sample per-site health metrics during the "
                                 "run and write them as sdvm-metrics/1 JSONL")
    run_parser.add_argument("--metrics-interval", type=float, default=0.05,
                            help="virtual seconds between metric samples")

    trace_parser = sub.add_parser(
        "trace", parents=app,
        help="run an app and export a Chrome/Perfetto trace")
    trace_parser.add_argument("--out", default="sdvm_trace.json",
                              help="output path for the trace JSON")

    stats_parser = sub.add_parser(
        "stats", parents=app,
        help="run an app and print cluster-wide metrics")
    stats_parser.add_argument("--top", type=int, default=24,
                              help="how many counters to print")

    blame_parser = sub.add_parser(
        "blame", parents=app,
        help="attribute the run's wall time to causes")
    blame_parser.add_argument("--json", metavar="PATH", default="",
                              help="also dump the report as JSON")

    cp_parser = sub.add_parser(
        "critical-path", parents=app,
        help="print the causal chain that bounded the run")
    cp_parser.add_argument("--summary", action="store_true",
                           help="category totals only, no segment list")

    bench_parser = sub.add_parser(
        "bench", help="run the deterministic benchmark gate suites")
    bench_parser.add_argument("--suites", nargs="*", default=[],
                              help="suite names (default: all)")
    bench_parser.add_argument("--check", action="store_true",
                              help="compare against committed baselines; "
                                   "exit 1 on regression")
    bench_parser.add_argument("--update-baselines", action="store_true",
                              help="write results into the baselines dir")
    bench_parser.add_argument("--out", default="benchmarks/results",
                              help="output dir for BENCH_*.json artifacts")
    bench_parser.add_argument("--baselines", default="benchmarks/baselines",
                              help="committed baseline dir")

    profile_parser = sub.add_parser(
        "profile", parents=[_app_options(profile=True)],
        help="run an app under cProfile; print hot functions "
             "and wall-clock throughput")
    profile_parser.add_argument("--suite", choices=["scaling"], default="",
                                help="profile a bench-gate workload instead "
                                     "of an app (scaling: treesum under the "
                                     "big-cluster config; --args LEAVES "
                                     "SCALE, --sites defaults to 64)")
    profile_parser.add_argument("--sort", default="cumulative",
                                help="pstats sort key (cumulative, tottime, "
                                     "calls, ...)")
    profile_parser.add_argument("--top", type=int, default=25,
                                help="how many functions to print")
    profile_parser.add_argument("--out-stats", metavar="PATH", default="",
                                help="also dump the raw pstats file")

    chaos_parser = sub.add_parser(
        "chaos", help="deterministic fault injection: replay a plan, "
                      "sweep fuzz seeds, or run the regression corpus")
    chaos_parser.add_argument("action", choices=["run", "fuzz", "corpus"])
    chaos_parser.add_argument("target", nargs="?", default="",
                              help="plan file for `run`")
    chaos_parser.add_argument("--twice", action="store_true",
                              help="run the plan twice and compare journal "
                                   "fingerprints")
    chaos_parser.add_argument("--fingerprints", action="store_true",
                              help="`corpus`: print the JSON map tests pin")
    chaos_parser.add_argument("--dir", default="tests/chaos_corpus",
                              help="corpus directory for `corpus`")
    chaos_parser.add_argument("--seeds", nargs=2, type=int,
                              default=[1, 8], metavar=("LO", "HI"),
                              help="inclusive seed range for `fuzz`")
    chaos_parser.add_argument("--sites", type=int, default=4,
                              help="cluster size for generated fuzz plans")
    chaos_parser.add_argument("--no-shrink", action="store_true",
                              help="report failures without minimizing")
    chaos_parser.add_argument("--corrupt", action="store_true",
                              help="add a silent-data-corruption window "
                                   "(with full replication) to every "
                                   "generated fuzz plan")
    chaos_parser.add_argument("--save-dir", default="",
                              help="write shrunk failing plans here")
    chaos_parser.add_argument("--workload", default="primes",
                              choices=[*WORKLOADS, "all"],
                              help="program the `fuzz` plans run (all: "
                                   "each seed under every workload)")

    health_parser = sub.add_parser(
        "health", help="run the stall detectors over a metrics file; "
                       "exit 1 if any fired")
    health_parser.add_argument("file",
                               help="sdvm-metrics/1 JSONL "
                                    "(from `run --metrics-json`)")
    health_parser.add_argument("--limit", type=int, default=20,
                               help="max detections to list")

    top_parser = sub.add_parser(
        "top", help="per-site time-series table from a metrics file")
    top_parser.add_argument("file",
                            help="sdvm-metrics/1 JSONL "
                                 "(from `run --metrics-json`)")
    top_parser.add_argument("--key", default="queue",
                            help="metric column to tabulate (queue, "
                                 "busy_frac, ready, wave_age, ...)")
    top_parser.add_argument("--last", type=int, default=20,
                            help="how many trailing sample ticks to show")

    sweep_parser = sub.add_parser(
        "sweep", help="fan a config sweep (sites x seeds x gossip) over "
                      "a pool of worker processes; one fingerprinted row "
                      "per point")
    sweep_parser.add_argument("--app", default="treesum",
                              help="treesum or primes")
    sweep_parser.add_argument("--sites", default="1,4",
                              help="comma list (1,8,64) or lo:hi range")
    sweep_parser.add_argument("--seeds", default="0",
                              help="comma list or lo:hi range")
    sweep_parser.add_argument("--gossip", nargs="*", type=float, default=[],
                              help="gossip_interval values to sweep "
                                   "(staleness follows at 5x)")
    sweep_parser.add_argument("--replicate-frac", nargs="*", type=float,
                              default=[],
                              help="replicate_frac values to sweep (the "
                                   "SDC duplicate-execution knob)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = run inline)")
    sweep_parser.add_argument("--selfcheck", action="store_true",
                              help="run every point twice and require "
                                   "identical journal fingerprints")
    sweep_parser.add_argument("--leaves", type=int, default=256,
                              help="treesum leaves")
    sweep_parser.add_argument("--scale", type=float, default=4000.0,
                              help="treesum work scale")
    sweep_parser.add_argument("--p", type=int, default=30,
                              help="primes count")
    sweep_parser.add_argument("--width", type=int, default=4,
                              help="primes parallel width")
    sweep_parser.add_argument("--progress-timeout", type=float,
                              default=600.0,
                              help="per-run sim progress timeout (s)")
    sweep_parser.add_argument("--out", default="",
                              help="write the sdvm-sweep/1 JSON report "
                                   "here")

    table_parser = sub.add_parser("table1",
                                  help="reproduce one Table-1 row")
    table_parser.add_argument("--p", type=int, default=100)
    table_parser.add_argument("--width", type=int, default=10)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:  # noqa: ANN001
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers: Dict[str, Callable] = {
        "apps": cmd_apps,
        "run": cmd_run,
        **dict.fromkeys(REPORTS, cmd_report),
        "bench": cmd_bench,
        "profile": cmd_profile,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "health": cmd_health,
        "top": cmd_top,
        "table1": cmd_table1,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
