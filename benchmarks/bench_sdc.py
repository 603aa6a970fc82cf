"""Experiment E13 — silent-data-corruption defense: overhead vs coverage.

Selective duplicate execution (``replicate_frac``) buys corruption
*detection* with redundant compute.  Two sweeps quantify the trade:

* **Overhead** — the chaos-free primes workload through the multicore
  sweep harness at ``replicate_frac`` 0 / 0.5 / 1.0: the virtual-time
  slowdown is the price of running the chosen fraction of microthreads
  twice (plus verdict latency on the critical path).
* **Detection rate** — the same corruption window (result-mode bit
  flips on one site) against each ``replicate_frac``: the fraction of
  injected corruptions that produce an ``sdc_mismatch`` detection.
  Unreplicated threads commit their flipped values silently — which the
  journal invariant then flags — so partial replication trades coverage
  for overhead instead of buying certainty.

* **Wire** — what full replication puts on the wire on the clean
  workload: ``REPLICATE`` / ``VERDICT`` counts and bytes per replicated
  execution, extra code fetches, and how long a finished execution is
  held back for its verdict (``exec_begin`` → ``exec_end``).

Informational ``sdvm-bench/1`` artifact (NOT wired into the bench gate:
the overhead depends on the buddy-site verdict round trips, which shift
with scheduling noise across unrelated changes; it is tracked, not
enforced).
"""

from __future__ import annotations

import dataclasses

from repro.bench import render_table
from repro.bench.sweep import make_point, run_sweep
from repro.chaos import CorruptFault, FaultPlan, run_plan

from bench_util import write_bench_json, write_result

FRACS = (0.0, 0.5, 1.0)
SITES = 4


def overhead_sweep() -> dict:
    """Chaos-free virtual duration per replicate_frac (primes workload)."""
    points = [make_point("primes", nsites=SITES, seed=0,
                         replicate_frac=frac, p=40, width=6)
              for frac in FRACS]
    report = run_sweep(points, workers=1)
    assert report["ok"], report["failures"]
    return {frac: row["virtual_duration"]
            for frac, row in zip(FRACS, report["rows"])}


def wire_accounting() -> dict:
    """One clean run per end of the range, with the cluster in hand."""
    import statistics
    from dataclasses import replace
    from repro.bench.harness import bench_config, run_primes
    out = {}
    for frac in (0.0, 1.0):
        config = bench_config(trace=True, seed=0)
        config = config.with_(scheduling=replace(
            config.scheduling, replicate_frac=frac))
        _duration, cluster = run_primes(40, 6, SITES, 1.0, 1e-4,
                                        config=config)
        breakdown = cluster.cluster_report().message_breakdown
        began, held = {}, []
        for event in cluster.tracer.events:
            key = (event.site, event.fields[0]) if event.fields else None
            if event.kind == "exec_begin":
                began[key] = event.ts
            elif event.kind == "exec_end" and key in began:
                held.append(event.ts - began.pop(key))
        out[frac] = {
            "replicated": cluster.total_stats().get("sdc_replicated").count,
            "messages": sum(v["count"] for v in breakdown.values()),
            "bytes": sum(v["bytes"] for v in breakdown.values()),
            "code_requests": breakdown.get("CODE_REQUEST",
                                           {"count": 0})["count"],
            "span_us": 1e6 * statistics.mean(held),
            **{kind: breakdown.get(kind, {"count": 0, "bytes": 0})
               for kind in ("REPLICATE", "VERDICT")},
        }
    return out


def detection_sweep() -> dict:
    """Injected corruptions vs detections per replicate_frac."""
    results = {}
    for frac in FRACS:
        plan = FaultPlan(seed=7, nsites=SITES, name=f"sdc_r{frac:g}",
                         replicate_frac=frac,
                         faults=[CorruptFault(start=0.3, end=1.0, site=2,
                                              mode="result")])
        result = run_plan(plan)
        kinds = result.cluster.tracer.kinds()
        corruptions = sum(
            1 for e in result.cluster.tracer.events
            if e.kind == "chaos_fault" and e.fields[0] == "corrupt_result")
        detected = kinds.get("sdc_mismatch", 0)
        tainted = kinds.get("sdc_tainted_commit", 0)
        results[frac] = {
            "corruptions": corruptions,
            "detected": detected,
            "tainted_commits": tainted,
            "audit_ok": result.ok,
        }
    return results


def test_sdc(benchmark):
    data = {}

    def sweep():
        data["overhead"] = overhead_sweep()
        data["detection"] = detection_sweep()
        data["wire"] = wire_accounting()

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    overhead, detection = data["overhead"], data["detection"]
    base = overhead[0.0]

    rows = []
    for frac in FRACS:
        det = detection[frac]
        rate = (det["detected"] / det["corruptions"]
                if det["corruptions"] else 0.0)
        rows.append([f"{frac:g}",
                     f"{overhead[frac]:.3f}s",
                     f"{overhead[frac] / base:.2f}x",
                     f"{det['detected']}/{det['corruptions']}",
                     f"{rate:.0%}",
                     str(det["tainted_commits"]),
                     "PASS" if det["audit_ok"] else "flagged"])
    wire = data["wire"]
    full, off = wire[1.0], wire[0.0]
    per_exec = {kind: (full[kind]["count"] / full["replicated"],
                       full[kind]["bytes"] / full["replicated"])
                for kind in ("REPLICATE", "VERDICT")}
    wire_rows = [[f"{frac:g}", str(w["messages"]), str(w["bytes"]),
                  str(w["REPLICATE"]["count"]), str(w["VERDICT"]["count"]),
                  str(w["code_requests"]), f"{w['span_us']:.0f} us"]
                 for frac, w in sorted(wire.items())]
    write_result("sdc", render_table(
        f"E13: SDC defense — replication overhead vs detection rate "
        f"(primes, {SITES} sites, result-mode corruption on site 2)",
        ["replicate_frac", "clean runtime", "overhead", "detected",
         "rate", "tainted commits", "audit"],
        rows) + "\n" + render_table(
        f"the wire under replication (clean run; per replicated execution "
        f"{per_exec['REPLICATE'][0]:.2f} REPLICATE of "
        f"{per_exec['REPLICATE'][1]:.0f} B, "
        f"{per_exec['VERDICT'][0]:.2f} VERDICT of "
        f"{per_exec['VERDICT'][1]:.0f} B)",
        ["replicate_frac", "messages", "bytes", "REPLICATE", "VERDICT",
         "code requests", "begin -> commit"],
        wire_rows))

    metrics = {}
    for frac in FRACS:
        key = f"{frac:g}".replace(".", "_")
        det = detection[frac]
        rate = (det["detected"] / det["corruptions"]
                if det["corruptions"] else 0.0)
        metrics[f"runtime_s_r{key}"] = round(overhead[frac], 6)
        metrics[f"overhead_x_r{key}"] = round(overhead[frac] / base, 4)
        metrics[f"detect_rate_r{key}"] = round(rate, 4)
        metrics[f"tainted_commits_r{key}"] = det["tainted_commits"]
    metrics["replicate_per_exec_r1"] = round(per_exec["REPLICATE"][0], 4)
    metrics["replicate_bytes_per_exec_r1"] = round(per_exec["REPLICATE"][1], 1)
    metrics["verdict_bytes_per_exec_r1"] = round(per_exec["VERDICT"][1], 1)
    metrics["wire_bytes_x_r1"] = round(full["bytes"] / off["bytes"], 3)
    metrics["extra_code_requests_r1"] = (full["code_requests"]
                                         - off["code_requests"])
    metrics["exec_span_us_r0"] = round(off["span_us"], 1)
    metrics["exec_span_us_r1"] = round(full["span_us"], 1)
    write_bench_json("sdc", metrics,
                     meta={"informational": True, "sites": SITES,
                           "fracs": list(FRACS),
                           "workload": "primes p=40 w=6"})

    # full replication detects everything and lets nothing through
    assert detection[1.0]["detected"] == detection[1.0]["corruptions"] > 0
    assert detection[1.0]["tainted_commits"] == 0
    assert detection[1.0]["audit_ok"]
    # replication off detects nothing — and the invariant flags the run
    assert detection[0.0]["detected"] == 0
    assert not detection[0.0]["audit_ok"]
    # every replay was asked for on the wire, once, and answered
    assert full["REPLICATE"]["count"] == full["replicated"] > 0
    assert full["VERDICT"]["count"] == full["replicated"]
    assert off["REPLICATE"]["count"] == 0
    # duplicate execution costs time, bounded by ~2x plus verdict latency
    assert overhead[1.0] >= base
    assert overhead[1.0] < base * 3.0
    benchmark.extra_info["overhead_full"] = round(overhead[1.0] / base, 2)


if __name__ == "__main__":
    class _Bench:
        extra_info = {}

        def pedantic(self, fn, rounds=1, iterations=1):
            fn()

    test_sdc(_Bench())
    print("bench_sdc ok")
