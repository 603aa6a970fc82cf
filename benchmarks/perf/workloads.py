"""The five workloads.  One process runs one workload once, then exits.

``run.py`` starts this file in a fresh interpreter for every repetition
and every pass, so ``setup_s`` and ``peak_rss_mb`` belong to that run
alone.  The last line of stdout is one JSON object (see :func:`main`).

A pass is one of:

``plain``    nothing attached; the only pass end-to-end numbers come from
``sampled``  the same run with :class:`layers.CpuLedger` attached
``traced``   ``trace=True`` plus an envelope tap, then blame, the replay
             of the captured envelopes, and the isolated drivers
"""

from __future__ import annotations

import time


def clock() -> float:
    """System-wide monotonic seconds, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_ENTERED = clock()  # before any import of the system under test

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from typing import Any, Callable, Dict, Iterator, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

import layers  # noqa: E402

#: a live program slower than this counts as a stall (``live.stall_frac``)
STALL_SECONDS = 0.250


class Pass:
    """Spans, checks and the set-up mark of one pass."""

    def __init__(self, workload: str, seed: int, mode: str, t0: float,
                 quick: bool, wrong_reference: bool) -> None:
        self.seed = seed
        self.mode = mode
        self.quick = quick
        self.wrong_reference = wrong_reference
        self._t0 = t0
        self._run_id = f"{workload}:{seed}:{mode}"
        self._open: List[int] = []
        self.spans: List[dict] = []
        self.checks: List[dict] = []
        self.setup_s = 0.0
        self.host_fracs: Dict[str, float] = {}
        # the part of set-up this process could not watch itself
        self.spans.append({"name": "interpreter", "run": self._run_id,
                           "parent": None, "start": 0.0,
                           "end": _ENTERED - t0})

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one benchmark-side call; times are seconds since spawn."""
        row = {"name": name, "run": self._run_id,
               "parent": self._open[-1] if self._open else None,
               "start": clock() - self._t0, "end": None}
        self._open.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row["end"] = clock() - self._t0
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(row["end"] - row["start"] for row in self.spans
                   if row["name"] == name)

    def set_up(self) -> None:
        """Everything before this instant was set-up."""
        self.setup_s = clock() - self._t0

    @contextlib.contextmanager
    def measured(self) -> Iterator[dict]:
        """The span the host clock runs over (sampled in that pass)."""
        ledger = layers.CpuLedger(SRC) if self.mode == "sampled" else None
        if ledger is not None:
            ledger.start()
        try:
            with self.span("submit_to_result") as row:
                yield row
        finally:
            if ledger is not None:
                self.host_fracs = ledger.stop()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One attempted operation: a program, an audit or a band."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def reference(self, value: Any) -> Any:
        """The expected result (or, to test the checker, a wrong one)."""
        return ("wrong", value) if self.wrong_reference else value


# ---------------------------------------------------------------------------
# the sim workloads


def _formed(cluster, nsites: int) -> bool:  # noqa: ANN001
    return all(len(site.cluster_manager.sites) >= nsites
               for site in cluster.sites)


def _run_sim(run: Pass, nsites: int, config, program, args: tuple,  # noqa: ANN001
             expected: Any) -> Dict[str, Any]:
    """Build, form, submit, run, verify: the single-program batch shape."""
    from repro.site.simcluster import SimCluster

    with run.span("build"):
        cluster = SimCluster(nsites=nsites, config=config)
    with run.span("formation"):
        while not _formed(cluster, nsites):
            cluster.sim.run(until=cluster.sim.now + 1e-3)
    formed_at, formed_events = cluster.sim.now, cluster.sim.events_executed
    run.set_up()
    with run.measured():
        handle = cluster.submit(program, args=args, at=cluster.sim.now)
        cluster.run(progress_timeout=600.0)
    with run.span("verify"):
        run.check(f"result@{nsites}", handle.result == run.reference(expected))
    host_s = run.seconds("submit_to_result") + run.seconds("verify")
    with run.span("report"):
        layer = layers.counters(
            cluster, host_s, cluster.sim.events_executed - formed_events)
        layer.update({
            "cluster.formation_virtual_s": formed_at,
            "cluster.formation_events": float(formed_events),
            "cluster.formation_host_s":
                run.seconds("build") + run.seconds("formation"),
        })
    return {"cluster": cluster, "host_s": host_s,
            "virtual_s": handle.duration, "layer": layer}


def _sim_duration(run: Pass, name: str, cluster, program,  # noqa: ANN001
                  args: tuple, expected: Any) -> float:
    """Virtual seconds one program takes on an already built sim cluster."""
    with run.span(name):
        while not _formed(cluster, len(cluster.sites)):
            cluster.sim.run(until=cluster.sim.now + 1e-3)
        handle = cluster.submit(program, args=args, at=cluster.sim.now)
        cluster.run(progress_timeout=600.0)
        run.check(f"result@{name}",
                  handle.result == run.reference(expected))
    return handle.duration


def _reference_1site(run: Pass, program, args: tuple,  # noqa: ANN001
                     expected: Any) -> float:
    """The same program and args on one fault-free site (the §5 side)."""
    from repro.bench.harness import bench_config
    from repro.site.simcluster import SimCluster

    return _sim_duration(run, "reference_1site",
                         SimCluster(nsites=1, config=bench_config()),
                         program, args, expected)


def _sim_config(run: Pass, **scheduling: float):  # noqa: ANN202
    from repro.bench.harness import bench_config

    config = bench_config(seed=run.seed, trace=run.mode == "traced")
    if scheduling:
        config = config.with_(
            scheduling=replace(config.scheduling, **scheduling))
    return config


def _primes(run: Pass, p: int, width: int, scale: float, base: float,
            nsites: int) -> Dict[str, Any]:
    from repro.apps import build_primes_program, first_n_primes

    program, args = build_primes_program(), (p, width, scale, base)
    expected = first_n_primes(p)
    out = _run_sim(run, nsites, _sim_config(run), program, args, expected)
    out["virtual_1site_s"] = _reference_1site(run, program, args, expected)
    return out


def table1_s8(run: Pass) -> Dict[str, Any]:
    from repro.bench import PAPER_TABLE1, calibrated_test_params

    scale, base = calibrated_test_params(100, 10)
    out = _primes(run, 8 if run.quick else 100, 10, scale, base, 8)
    t1, paper_t1 = out["virtual_1site_s"], PAPER_TABLE1[(100, 10)][0]
    speedup = t1 / out["virtual_s"]
    speedup_err = (abs(speedup - layers.PAPER_SPEEDUP_8)
                   / layers.PAPER_SPEEDUP_8)
    out["layer"]["model.paper_speedup_err"] = speedup_err
    if not run.quick:
        # the band bench_table1_primes.py asserts for this row
        run.check("T1 within 5% of paper", abs(t1 - paper_t1) / paper_t1 < 0.05,
                  f"T1={t1:.3f} paper={paper_t1}")
        run.check("speedup within 30% of paper", speedup_err < 0.30,
                  f"speedup={speedup:.3f}")
    return out


def fine_s8(run: Pass) -> Dict[str, Any]:
    return _primes(run, 16 if run.quick else 200, 10, 400.0, 4000.0, 8)


def treesum_s256(run: Pass) -> Dict[str, Any]:
    from repro.apps import build_treesum_program, treesum_expected

    nsites, leaves = (16, 128) if run.quick else (256, 4096)
    program, args = build_treesum_program(), (leaves, 16000.0)
    # the scaling gate's gossip: 256 sites at the bench default of 1e-3
    # bury the run in heartbeats
    config = _sim_config(run, gossip_interval=1e-2, gossip_staleness=5e-2)
    expected = treesum_expected(leaves)
    out = _run_sim(run, nsites, config, program, args, expected)
    out["virtual_1site_s"] = _reference_1site(run, program, args, expected)
    return out


def crash_s32(run: Pass) -> Dict[str, Any]:
    from repro.apps import build_treesum_program, treesum_expected
    from repro.chaos import CrashFault, FaultPlan, InvariantChecker, run_plan
    from repro.chaos.fuzz import WORKLOADS

    # run_plan picks the program; pin the size this workload was sized for
    leaves, _scale = args = (2048, 20000.0)
    run.check("chaos treesum size", WORKLOADS["treesum"][1] == args,
              f"WORKLOADS['treesum'][1]={WORKLOADS['treesum'][1]}")
    # no toy size: fewer sites stretch the run, and it is 6 s as it is
    plan = FaultPlan(seed=31 + run.seed, nsites=32, workload="treesum",
                     horizon=120, faults=[CrashFault(at=0.55, site=17)])
    expected = treesum_expected(leaves)
    run.set_up()
    # run_plan builds, runs, drains and audits in one call and always
    # journals, so the traced pass differs from the plain one by the tap
    with run.measured():
        result = run_plan(plan, progress_timeout=120.0)
    cluster, handle = result.cluster, result.cluster.handles[0]
    with run.span("drain_audit"):
        violations = InvariantChecker(
            cluster, expect_complete=True,
            expected_results=[run.reference(expected)]).check()
    host_s = run.seconds("submit_to_result")
    with run.span("report"):
        layer = layers.counters(cluster, host_s, cluster.sim.events_executed)
        layer["chaos.audit_host_s"] = run.seconds("drain_audit")
    with run.span("verify"):
        run.check("run_plan audit", result.ok,
                  "; ".join(str(v) for v in result.violations))
        run.check("benchmark-side audit", not violations,
                  "; ".join(str(v) for v in violations))
        run.check("exactly 1 recovery", layer["crash.recoveries"] == 1,
                  f"recoveries={layer['crash.recoveries']}")
        run.check("at least 1 committed wave",
                  layer["crash.waves_committed"] >= 1,
                  f"waves={layer['crash.waves_committed']}")
    return {"cluster": cluster, "host_s": host_s,
            "virtual_s": handle.duration, "layer": layer,
            "virtual_1site_s": _reference_1site(
                run, build_treesum_program(), args, expected)}


# ---------------------------------------------------------------------------
# the live workload


def live_tcp_s2(run: Pass) -> Dict[str, Any]:
    """A closed loop with one client on a two-site live TCP cluster."""
    from repro.apps import build_memstress_program, memstress_expected
    from repro.common.config import (CostModel, SchedulingConfig, SDVMConfig,
                                     SecurityConfig, SiteConfig)
    from repro.runtime.live_cluster import LiveCluster
    from repro.site.simcluster import SimCluster

    warmup, programs = (2, 10) if run.quick else (5, 100)
    program, args = build_memstress_program(), (64, 1.0)
    expected = memstress_expected(args[0])
    # max_parallel=1: with the default 5 about a tenth of the programs
    # stall ~510 ms on a timer, and a bimodal tail cannot carry a bound
    config = SDVMConfig(
        seed=run.seed, trace=run.mode == "traced",
        security=SecurityConfig(enabled=True),
        cost=CostModel(compile_fixed_cost=1e-4),
        scheduling=SchedulingConfig(ready_target=1, keep_local_min=0))
    sites = [SiteConfig(name=f"site{i}", max_parallel=1) for i in range(2)]
    # one CPU: the GIL serialises the cluster's threads anyway, and on two
    # cores they pass it back and forth across CPUs, which doubles the
    # latency (130 against 63 ms a program) and lets it wander by 15 %
    # over minutes; pinned, it repeats within a few percent.  The last
    # CPU, because the first one also serves the box's interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with run.span("build"):
        cluster = LiveCluster(site_configs=sites, config=config,
                              transport="tcp")
    try:
        def one() -> None:
            handle = cluster.submit(program, args=args)
            run.check("result@2",
                      handle.wait(timeout=30.0) == run.reference(expected))

        with run.span("warmup"):
            for _ in range(warmup):
                one()
        run.set_up()
        reactor = -sum(s.kernel.events_processed for s in cluster.sites)
        client_s: List[float] = []
        with run.measured() as batch:
            for _ in range(programs):
                start = clock()
                one()
                client_s.append(clock() - start)
        batch_s = batch["end"] - batch["start"]
        reactor += sum(s.kernel.events_processed for s in cluster.sites)
        with run.span("report"):
            layer = layers.counters(cluster, batch_s, 0)
            executed = [s.processing_manager.stats.get("executions").count
                        for s in cluster.sites]
            ranked = sorted(client_s)
            layer.update({
                "cluster.formation_host_s": run.seconds("build"),
                "live.reactor_events": float(reactor),
                "live.reactor_events_per_s": reactor / batch_s,
                # at 100 programs, the highest percentile that still has
                # ten samples beyond it
                "live.prog_p90_ms": ranked[int(0.90 * programs)] * 1e3,
                "live.prog_per_s": programs / batch_s,
                "live.stall_frac":
                    sum(s > STALL_SECONDS for s in client_s) / programs,
                "live.remote_exec_frac": executed[1] / sum(executed),
            })
    finally:
        cluster.shutdown()
    # The live kernel has no virtual clock.  Both virtual metrics are the
    # sim's for the same program: its prediction on the same two-site
    # config (exact; one of the 64 reads there crosses the sim's memory
    # oracle), and the one-site side as for every other workload.
    twin = SimCluster(site_configs=sites, config=config.with_(trace=False))
    return {"cluster": cluster, "host_s": statistics.median(client_s),
            "layer": layer,
            "virtual_s": _sim_duration(run, "sim_twin", twin, program, args,
                                       expected),
            "virtual_1site_s": _reference_1site(run, program, args, expected)}


#: what each workload loads, so that importing is a span of its own
IMPORTS = {
    "table1_s8": ("repro.bench", "repro.apps.primes"),
    "fine_s8": ("repro.bench", "repro.apps.primes"),
    "treesum_s256": ("repro.bench", "repro.apps.treesum"),
    "crash_s32": ("repro.bench", "repro.chaos", "repro.apps.treesum"),
    "live_tcp_s2": ("repro.runtime.live_cluster", "repro.apps.memstress",
                    "repro.bench", "repro.trace"),
}

WORKLOADS: Dict[str, Callable[[Pass], Dict[str, Any]]] = {
    "table1_s8": table1_s8,
    "fine_s8": fine_s8,
    "treesum_s256": treesum_s256,
    "crash_s32": crash_s32,
    "live_tcp_s2": live_tcp_s2,
}
assert tuple(WORKLOADS) == layers.WORKLOADS


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "sampled", "traced"))
    parser.add_argument("--t0", type=float, default=_ENTERED,
                        help="parent's clock() just before it spawned us")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    opts = parser.parse_args()

    run = Pass(opts.workload, opts.seed, opts.mode, opts.t0, opts.quick,
               opts.wrong_reference)
    taps = []
    with run.span("import"):
        for module in IMPORTS[opts.workload]:
            importlib.import_module(module)
        if opts.mode == "traced":
            from repro.net.simnet import SimNetwork
            from repro.net.tcp import TcpTransport
            taps = [layers.EnvelopeTap(SimNetwork),
                    layers.EnvelopeTap(TcpTransport)]
    out = WORKLOADS[opts.workload](run)
    cluster, layer = out["cluster"], out["layer"]

    if hasattr(cluster, "sim"):  # one clock on both sides of the ratio
        speedup = out["virtual_1site_s"] / out["virtual_s"]
        layer["model.speedup"] = speedup
        layer["model.efficiency"] = speedup / len(cluster.sites)
    layer.update(run.host_fracs)
    if opts.mode == "traced":
        corpus = max((tap.corpus for tap in taps), key=len)
        if hasattr(cluster, "sim"):
            with run.span("blame"):
                layer.update(layers.blame_fracs(cluster))
        layer.update(layers.replay(corpus, cluster.config.security, run.span))
        layer.update(layers.drivers(run.span, scale=20 if opts.quick else 1))

    sent = layer["msg.sent"]
    executions = layer["proc.executions"]
    print(json.dumps({
        "workload": opts.workload, "seed": opts.seed, "mode": opts.mode,
        "end_to_end": {
            "setup_s": run.setup_s,
            "host_s": out["host_s"],
            "virtual_s": out["virtual_s"],
            "virtual_1site_s": out["virtual_1site_s"],
            "msgs_per_exec": sent / executions,
            "wire_bytes_per_exec": layer["msg.bytes_sent"] / executions,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "per_layer": layer,
        "checks": run.checks,
        "spans": run.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
