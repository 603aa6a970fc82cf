"""CI smoke check for the telemetry plane (``make health-smoke``).

Runs one healthy traced sim workload with the metrics sampler on, then
walks the whole pipeline:

1. the in-run sampler produced rows for every site and every tick;
2. the JSONL dump round-trips through the ``sdvm-metrics/1`` validator;
3. the online health detectors stayed quiet (a healthy run must not
   trip a stall detector — firing here means a detector threshold or a
   sampler field regressed);
4. the ``repro health`` CLI agrees (exit 0 on the same file) and
   ``repro top`` renders;
5. a hand-corrupted document is rejected by the validator.

Exits non-zero on any failure so it can gate CI.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile


def main() -> int:
    from repro.apps import build_primes_program, first_n_primes
    from repro.cli import main as cli_main
    from repro.common.config import SDVMConfig
    from repro.common.errors import SDVMError
    from repro.site.simcluster import SimCluster
    from repro.trace import MetricsLog, validate_metrics

    nsites = 4
    config = SDVMConfig(trace=True, metrics_interval=0.05)
    cluster = SimCluster(nsites=nsites, config=config)
    handle = cluster.submit(build_primes_program(),
                            args=(40, 6, 400.0, 4000.0))
    cluster.run()
    if handle.result != first_n_primes(40):
        print("FAIL: workload returned a wrong result")
        return 1

    log = cluster.metrics
    if not log.rows or log.sites() != list(range(nsites)):
        print(f"FAIL: sampler rows cover sites {log.sites()}, "
              f"want {list(range(nsites))}")
        return 1
    if any(len(rows) != nsites for _t, rows in log.ticks()):
        print("FAIL: some sampling tick is missing site rows")
        return 1

    path = os.path.join(tempfile.mkdtemp(prefix="sdvm-health-smoke-"),
                        "run.metrics.jsonl")
    log.write_jsonl(path)
    reloaded = MetricsLog.load(path)  # validates sdvm-metrics/1
    print(f"metrics: {len(reloaded.rows)} rows, "
          f"{len(list(reloaded.ticks()))} ticks -> {path}")

    if cluster.health is None or not cluster.health.ok:
        detections = (cluster.health.detections
                      if cluster.health is not None else "no monitor")
        print(f"FAIL: healthy run tripped detectors: {detections}")
        return 1
    if cluster.tracer.kinds().get("health") or cluster.tracer.dumps:
        print("FAIL: a healthy run journaled health events or froze a "
              "flight dump")
        return 1
    print(cluster.health.render())

    out = io.StringIO()
    code = cli_main(["health", path], out=out)
    if code != 0:
        print(f"FAIL: `repro health` exited {code} on a clean run:")
        print(out.getvalue())
        return 1
    out = io.StringIO()
    code = cli_main(["top", path, "--key", "busy_frac", "--last", "4"],
                    out=out)
    if code != 0 or "busy_frac per site" not in out.getvalue():
        print(f"FAIL: `repro top` exited {code} or rendered nothing")
        return 1
    print("cli: health exit 0, top rendered")

    # schema validator must reject a corrupted document
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    broken = json.loads(lines[1])
    del broken["queue"]
    try:
        validate_metrics(json.loads(lines[0]), [broken])
    except SDVMError:
        pass
    else:
        print("FAIL: validator accepted a row with a missing field")
        return 1
    print("validator: rejects corrupted rows")

    print("health smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
