#!/usr/bin/env python3
"""Checks on the benchmark itself.

    python3 benchmarks/perf/selfcheck.py            # declaration + A/A
    python3 benchmarks/perf/selfcheck.py --quick    # declaration + smoke

The declaration check holds ``BENCHMARK.json`` against the limits of the
benchmark contract and against the tables in ``layers.py``.  A/A runs
the whole untraced suite twice on the same code and seed: every
end-to-end metric must agree within its own bound, and the sim's
virtual-clock and count metrics must agree exactly, repetition by
repetition.  ``--quick`` runs every workload and pass at toy sizes and
checks that every declared metric is really emitted, and that a wrong
reference makes a run fail.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List

import layers
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def check_declaration() -> List[str]:
    """Everything wrong with BENCHMARK.json, as readable lines."""
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors: List[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    expect(os.path.getsize(path) <= 64 * 1024, "file larger than 64 KiB")
    expect(sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"],
           f"top-level keys are {sorted(doc)}")
    expect(doc["paths"] == ["benchmarks/perf"], f"paths {doc['paths']}")
    expect(isinstance(doc["run_seconds"], int)
           and 1 <= doc["run_seconds"] <= 60, "run_seconds not in 1..60")
    for section, keys, most in (
            ("workloads", {"name", "why"}, 8),
            ("end_to_end", {"name", "unit", "better", "bound"}, 16),
            ("per_layer", {"name", "unit", "better"}, 128)):
        rows = doc[section]
        expect(1 <= len(rows) <= most, f"{len(rows)} {section} (max {most})")
        for row in rows:
            expect(set(row) == keys, f"{section} row keys {sorted(row)}")
            expect(bool(NAME.match(row["name"])), f"bad name {row['name']!r}")
            if "unit" in row:
                expect(bool(UNIT.match(row["unit"])),
                       f"bad unit {row['unit']!r} on {row['name']}")
                expect(row["better"] in ("lower", "higher"),
                       f"bad direction on {row['name']}")
    names = [row["name"] for section in ("workloads", "end_to_end",
                                         "per_layer") for row in doc[section]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for row in doc["workloads"]:
        expect(len(row["why"]) <= 200 and "\n" not in row["why"],
               f"why of {row['name']} is not one line of <= 200 chars")
    for row in doc["end_to_end"]:
        expect(0 < row["bound"] <= 0.25, f"bound of {row['name']}")
    expect({"name": "setup_s", "unit": "s", "better": "lower"}.items()
           <= next((r for r in doc["end_to_end"]
                    if r["name"] == "setup_s"), {}).items(),
           "setup_s must be declared in s, lower is better")

    # the file and the tables in layers.py say the same thing
    expect(tuple(r["name"] for r in doc["workloads"]) == layers.WORKLOADS,
           "workloads differ from layers.WORKLOADS")
    expect({r["name"]: (r["unit"], r["better"], r["bound"])
            for r in doc["end_to_end"]} == layers.END_TO_END,
           "end_to_end differs from layers.END_TO_END")
    expect([(r["name"], r["unit"], r["better"]) for r in doc["per_layer"]]
           == [row[:3] for row in layers.PER_LAYER],
           "per_layer differs from layers.PER_LAYER")
    for name, metric, workload in layers.iter_should_move():
        expect(metric in layers.END_TO_END and workload in layers.WORKLOADS,
               f"{name} should move unknown {metric}@{workload}")
    sums = [n for n in layers.HOST_FRACS if n not in layers.PER_LAYER_NAMES]
    expect(not sums, f"undeclared host fractions {sums}")
    return errors


def check_quick() -> List[str]:
    """Toy sizes: is every declared metric emitted, do failures show?"""
    errors: List[str] = []
    emitted = {"host.profile_overhead_ratio", "trace.on_off_ratio"}
    for workload in layers.WORKLOADS:
        for mode in ("plain", "sampled", "traced"):
            done = run.run_pass(workload, 0, mode, ("--quick",))
            emitted.update(done["per_layer"])
            missing = [n for n in layers.END_TO_END
                       if not done["end_to_end"].get(n, 0) > 0]
            if missing:
                errors.append(f"{workload} {mode}: no value for {missing}")
            errors.extend(run.failed_checks([done]))
            if mode == "sampled":
                total = sum(done["per_layer"][n] for n in layers.HOST_FRACS)
                if abs(total - 1.0) > 0.02:
                    errors.append(f"{workload}: host fractions sum {total}")
        print(f"quick {workload}: ok so far, {len(errors)} error(s)")
    silent = sorted(set(layers.PER_LAYER_NAMES) - emitted)
    if silent:
        errors.append(f"declared but never emitted: {silent}")
    stray = sorted(emitted - set(layers.PER_LAYER_NAMES))
    if stray:
        errors.append(f"emitted but not declared: {stray}")
    wrong = run.run_pass("fine_s8", 0, "plain",
                         ("--quick", "--wrong-reference"))
    if not run.failed_checks([wrong]):
        errors.append("a wrong reference did not fail fine_s8")
    return errors


def check_a_a(seed: int, seconds: float) -> List[str]:
    """Two runs of the same code must agree within the declared bounds."""
    errors: List[str] = []
    for workload in layers.WORKLOADS:
        first, second = (run.measure(workload, seed, seconds)
                         for _ in range(2))
        errors.extend(first["failures"] + second["failures"])
        print(f"== {workload}")
        for name, (unit, _better, bound) in layers.END_TO_END.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(b - a) / a
            verdict = "ok" if diff <= bound else "OUTSIDE BOUND"
            print(f"  {name:<22s} {a:>13.6g} {b:>13.6g} {unit:<9s} "
                  f"diff {100 * diff:6.2f}%  bound {100 * bound:4.0f}%  "
                  f"{verdict}")
            if diff > bound:
                errors.append(f"{workload} {name}: A/A differ {diff:.3f} "
                              f"> bound {bound}")
        if workload in layers.SIM_WORKLOADS:
            for one, two in zip(first["passes"], second["passes"]):
                mismatch = run.determinism_failure(
                    [one["exact"], two["exact"]])
                if mismatch:
                    errors.append(f"{workload} seed {one['seed']}: {mismatch}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    opts = parser.parse_args()
    errors = check_declaration()
    print(f"declaration: {len(errors)} error(s)")
    if not errors:
        errors = (check_quick() if opts.quick
                  else check_a_a(opts.seed, opts.seconds))
    for error in errors:
        print(f"FAILED {error}")
    print("selfcheck", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
