#!/usr/bin/env python3
"""The SDVM benchmark: five workloads, two clocks, one per-layer ledger.

    python3 benchmarks/perf/run.py [--workload W] [--seed N]
                                   [--seconds S] [--trace 0|1] [--out FILE]

``--trace 0`` (default) measures the end-to-end metrics; ``--trace 1``
makes the three passes (plain, sampled, traced) that fill the per-layer
ledger and writes ``benchmarks/perf/out/<workload>.spans.json``.  Every
metric is printed by name with its unit, every program result is
checked, and the last line of stdout is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics"}``.  Any failed check
makes the exit code 1.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import layers  # noqa: E402 — declarations only; never imports repro here

#: seconds one repetition takes on the reference box.  ``--seconds``
#: buys ceil(seconds / this) repetitions, so a (seed, seconds) pair
#: always runs the same inputs however fast the host is.
REP_SECONDS = {"table1_s8": 7.5, "fine_s8": 3.5, "treesum_s256": 12.0,
               "crash_s32": 8.0, "live_tcp_s2": 7.5}

#: the fewest repetitions: two, so that setup_s is a median; three for
#: crash_s32, whose bytes per execution swing 17% from seed to seed
MIN_REPS = {"crash_s32": 3}

#: repetition i of ``--seed N`` runs under seed N * SEED_STRIDE + i: the
#: median over distinct seeds is steadier than any one trajectory
SEED_STRIDE = 64

#: which pass of a traced run supplies a per-layer metric, by source tag
SOURCE_PASS = {"C": "plain", "P": "sampled", "B": "traced", "R": "traced",
               "D": "traced"}


def clock() -> float:
    """System-wide monotonic seconds (the child reads the same clock)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, mode: str = "plain",
             extra: tuple = ()) -> Dict[str, Any]:
    """One workload, one pass, in a fresh interpreter."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--t0", repr(clock()), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=170,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}, seed {seed}) exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def repetitions(workload: str, seconds: float) -> int:
    return max(MIN_REPS.get(workload, 2),
               math.ceil(seconds / REP_SECONDS[workload]))


def failed_checks(passes: List[Dict[str, Any]]) -> List[str]:
    return [f"{p['workload']} seed {p['seed']} {p['mode']}: {c['name']}"
            + (f" ({c['detail']})" if c["detail"] else "")
            for p in passes for c in p["checks"] if not c["ok"]]


def _result(workload: str, seed: int, passes: List[Dict[str, Any]],
            metrics: Dict[str, float], units: Dict[str, str],
            extra_failures: Optional[List[str]] = None,
            extra_attempted: int = 0) -> Dict[str, Any]:
    failures = failed_checks(passes) + (extra_failures or [])
    return {
        "workload": workload, "seed": seed,
        "attempted": sum(len(p["checks"]) for p in passes) + extra_attempted,
        "failed": len(failures), "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "passes": [{"seed": p["seed"], "mode": p["mode"],
                    "end_to_end": p["end_to_end"], "exact": exact_values(p)}
                   for p in passes],
    }


def measure(workload: str, seed: int, seconds: float,
            extra: tuple = ()) -> Dict[str, Any]:
    """Untraced repetitions; each end-to-end metric is their low median.

    The low median, because host noise on a shared box comes in bursts
    that only ever slow a run: of two repetitions the faster one is the
    one that was left alone.  It also keeps every exact metric the value
    of one real trajectory instead of a mean of two.
    """
    reps = [run_pass(workload, seed * SEED_STRIDE + i, extra=extra)
            for i in range(repetitions(workload, seconds))]
    metrics = {name: statistics.median_low(r["end_to_end"][name]
                                           for r in reps)
               for name in layers.END_TO_END}
    units = {name: spec[0] for name, spec in layers.END_TO_END.items()}
    return _result(workload, seed, reps, metrics, units)


def exact_values(one_pass: Dict[str, Any]) -> Dict[str, float]:
    """What must repeat bit for bit for one sim (workload, seed)."""
    both = {**one_pass["end_to_end"], **one_pass["per_layer"]}
    return {name: both.get(name, 0.0) for name in layers.EXACT}


def determinism_failure(values: List[Dict[str, float]]) -> Optional[str]:
    """The first exact metric on which same-seed sim passes disagree."""
    for name in layers.EXACT:
        if len({v[name] for v in values}) > 1:
            return (f"determinism: {name} differs from pass to pass: "
                    f"{[v[name] for v in values]}")
    return None


def trace(workload: str, seed: int, extra: tuple = ()) -> Dict[str, Any]:
    """The three passes of one seed that fill the per-layer ledger."""
    sub_seed = seed * SEED_STRIDE
    passes = {mode: run_pass(workload, sub_seed, mode, extra)
              for mode in ("plain", "sampled", "traced")}
    plain_host = passes["plain"]["end_to_end"]["host_s"]
    values = {name: passes[SOURCE_PASS[source]]["per_layer"].get(name, 0.0)
              for name, _u, _b, _l, source, _m in layers.PER_LAYER}
    values["host.profile_overhead_ratio"] = (
        passes["sampled"]["end_to_end"]["host_s"] / plain_host)
    values["trace.on_off_ratio"] = (
        passes["traced"]["end_to_end"]["host_s"] / plain_host)

    failures, attempted = [], 0
    if workload in layers.SIM_WORKLOADS:
        # neither the sampler nor the tracer may move a virtual-clock
        # number: three passes of one seed must agree bit for bit
        attempted = 1
        mismatch = determinism_failure(
            [exact_values(p) for p in passes.values()])
        if mismatch:
            failures.append(mismatch)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{workload}.spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump({mode: p["spans"] for mode, p in passes.items()},
                  fh, indent=1)
    units = {row[0]: row[1] for row in layers.PER_LAYER}
    return _result(workload, seed, list(passes.values()), values, units,
                   failures, attempted)


def render(result: Dict[str, Any]) -> str:
    lines = [f"== {result['workload']}  seed {result['seed']}  "
             f"{len(result['passes'])} pass(es)  "
             f"{result['attempted']} checks, {result['failed']} failed"]
    for name, cell in result["metrics"].items():
        samples = [p["end_to_end"][name] for p in result["passes"]
                   if name in p["end_to_end"]]
        spread = (f"  min {min(samples):.6g}  max {max(samples):.6g}  "
                  f"n {len(samples)}" if samples else "")
        lines.append(f"  {name:<30s} {cell['value']:>14.6g} "
                     f"{cell['unit']:<9s}{spread}")
    lines.extend(f"  FAILED {failure}" for failure in result["failures"])
    return "\n".join(lines)


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


def host_info() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "host.calib_s": layers.calibration_loop()}


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=layers.WORKLOADS,
                        help="default: all five, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every pass to this file")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="check against a wrong reference: must fail")
    opts = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2

    extra = ("--wrong-reference",) if opts.wrong_reference else ()
    results = []
    for workload in ([opts.workload] if opts.workload else layers.WORKLOADS):
        if opts.trace:
            result = trace(workload, opts.seed, extra)
        else:
            result = measure(workload, opts.seed, opts.seconds, extra)
        results.append(result)
        print(render(result))
        print(contract_line(result), flush=True)
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "sdvm-perf/1", "host": host_info(),
                       "results": results}, fh, indent=1)
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
