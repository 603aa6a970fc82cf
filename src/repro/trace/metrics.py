"""The in-run snapshot sampler and the ``sdvm-metrics/1`` time-series.

The post-hoc observability stack (Tracer journal, blame, invariants) only
answers questions after a run ends.  This module samples every site's
health *while the run is going*: queue depths, ready frames, CPU
busy fraction, steal and message counters, the age of the open checkpoint
wave, and what each site holds (ownership-directory entries, frames,
objects) — one row per (tick, site), written as JSONL so the ``repro
health`` / ``repro top`` CLIs can read it back without the run.

Discipline (same as :class:`repro.trace.Tracer`):

* **Zero cost when disabled.**  Nothing here is constructed unless
  ``SDVMConfig(metrics_interval=...)`` is above 0.
* **Pure observation.**  Sampling reads a site through
  ``SDVMSite.snapshot`` and ``SDVMSite.count``; it never mutates a site,
  charges CPU, or touches an RNG.  Under the sim kernel the sampler's
  timer adds events, but the engine orders every other event by its own
  sequence number, so a metrics-on run takes the metrics-off trajectory:
  the same duration, counters and journal.  Only a health detector that
  fires adds an event (``health``) to the journal.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple

from repro.common.errors import SDVMError

#: schema tag every metrics document carries; bump on incompatible change
METRICS_SCHEMA = "sdvm-metrics/1"

#: the exact key set of one sample row (order is the canonical JSONL order)
SAMPLE_FIELDS: Tuple[str, ...] = (
    "t",              # sample time (virtual s sim / wall s live)
    "site",           # logical site id (-1 before sign-on)
    "alive",          # 1 while the daemon is running
    "paused",         # 1 while checkpoint-paused
    "recovering",     # 1 while the crash manager runs a recovery
    "sleeping",       # 1 while power-save sleeping
    "queue",          # scheduling queue depth (executable+ready+pending)
    "executable",     # frames ready to run now
    "ready",          # frames waiting on code prefetch
    "in_flight",      # microthreads currently executing
    "busy_frac",      # CPU busy fraction over the last interval
    "help_sent",      # help requests sent this interval
    "steals_in",      # frames stolen in this interval
    "steal_grants",   # frames granted to thieves this interval
    "cant_help_received",  # refusals (HELP_REPLYs without frames) received
    "msgs_sent",      # messages sent this interval (incl. loopback)
    "msgs_recv",      # messages received this interval
    "wave_age",       # age of the coordinator's open checkpoint wave (s)
    "committed_wave", # last committed checkpoint wave id
    "dir_entries",    # ownership-directory entries this site keeps
    "frames",         # microframes resident in the attraction memory
    "objects",        # shared objects resident in the attraction memory
    "sdc_mismatch",   # replica-divergence detections this interval
)

#: the counters a row reports as their count this interval, each under
#: the counter's own name (``SDVMSite.count`` sums it over the managers)
INTERVAL_COUNTERS: Tuple[str, ...] = (
    "help_sent", "steals_in", "steal_grants", "cant_help_received",
    "sdc_mismatch",
)

#: row fields that are flags/counts and must be non-negative integers
_INT_FIELDS = frozenset(SAMPLE_FIELDS) - {"t", "busy_frac", "wave_age",
                                          "committed_wave", "site"}


class MetricsLog:
    """An in-memory ``sdvm-metrics/1`` document: one header + sample rows."""

    def __init__(self, interval: float, mode: str = "sim",
                 nsites: int = 0) -> None:
        if interval <= 0:
            raise SDVMError(f"metrics interval must be positive, "
                            f"got {interval}")
        self.interval = interval
        self.mode = mode
        self.nsites = nsites
        self.rows: List[dict] = []

    # ------------------------------------------------------------------
    def header(self) -> dict:
        return {"schema": METRICS_SCHEMA, "mode": self.mode,
                "interval": self.interval, "nsites": self.nsites,
                "fields": list(SAMPLE_FIELDS)}

    def append(self, row: dict) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def sites(self) -> List[int]:
        return sorted({row["site"] for row in self.rows})

    def ticks(self) -> Iterator[Tuple[float, List[dict]]]:
        """Yield (t, rows-at-t) groups in time order."""
        group: List[dict] = []
        for row in self.rows:
            if group and row["t"] != group[0]["t"]:
                yield group[0]["t"], group
                group = []
            group.append(row)
        if group:
            yield group[0]["t"], group

    # ------------------------------------------------------------------
    # JSONL round-trip

    def write_jsonl(self, path: str) -> int:
        """Write header + rows, one JSON object per line; returns row count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for row in self.rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(self.rows)

    @classmethod
    def from_lines(cls, lines: List[str]) -> "MetricsLog":
        """Parse + validate a JSONL document (raises SDVMError)."""
        stripped = [line for line in (l.strip() for l in lines) if line]
        if not stripped:
            raise SDVMError("empty metrics document (no header line)")
        try:
            header = json.loads(stripped[0])
            rows = [json.loads(line) for line in stripped[1:]]
        except json.JSONDecodeError as exc:
            raise SDVMError(f"metrics document is not JSONL: {exc}") from exc
        validate_metrics(header, rows)
        log = cls(interval=header["interval"], mode=header["mode"],
                  nsites=header["nsites"])
        log.rows = rows
        return log

    @classmethod
    def load(cls, path: str) -> "MetricsLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh.readlines())


def validate_metrics(header: dict, rows: List[dict]) -> None:
    """Check one parsed metrics document against ``sdvm-metrics/1``.

    Raises :class:`SDVMError` on a schema mismatch — the contract the
    ``repro health`` / ``repro top`` CLIs rely on.
    """
    if not isinstance(header, dict):
        raise SDVMError("metrics header line is not a JSON object")
    schema = header.get("schema")
    if schema != METRICS_SCHEMA:
        raise SDVMError(f"unsupported metrics schema {schema!r} "
                        f"(want {METRICS_SCHEMA})")
    interval = header.get("interval")
    if not isinstance(interval, (int, float)) or interval <= 0:
        raise SDVMError(f"metrics header interval must be a positive "
                        f"number, got {interval!r}")
    if header.get("fields") != list(SAMPLE_FIELDS):
        raise SDVMError("metrics header field list does not match "
                        "sdvm-metrics/1")
    want = set(SAMPLE_FIELDS)
    last_t = float("-inf")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SDVMError(f"metrics row {index} is not a JSON object")
        keys = set(row)
        if keys != want:
            missing = sorted(want - keys)
            extra = sorted(keys - want)
            raise SDVMError(f"metrics row {index} keys mismatch "
                            f"(missing {missing}, extra {extra})")
        for key, value in row.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SDVMError(f"metrics row {index} field {key!r} is "
                                f"non-numeric: {value!r}")
            if key in _INT_FIELDS and (value != int(value) or value < 0):
                raise SDVMError(f"metrics row {index} field {key!r} must "
                                f"be a non-negative integer, got {value!r}")
        if row["t"] < last_t:
            raise SDVMError(f"metrics row {index} time goes backwards "
                            f"({row['t']} < {last_t})")
        last_t = row["t"]


# ---------------------------------------------------------------------------
# the sampler


class MetricsSampler:
    """Collects one row per (tick, site) from a running cluster.

    The cluster drives it, calling :meth:`sample_once` every ``interval``:
    a virtual-time timer under :class:`SimCluster`, a wall-clock thread
    under :class:`LiveCluster`.
    """

    def __init__(self, cluster, interval: float, monitor=None,  # noqa: ANN001
                 mode: str = "sim") -> None:
        self.cluster = cluster
        self.interval = interval
        self.monitor = monitor
        self.log = MetricsLog(interval=self.interval, mode=mode,
                              nsites=len(cluster.sites))
        #: site index -> the cumulative figures of its previous sample, by
        #: row field (for interval deltas)
        self._prev: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def sample_once(self, now: float) -> List[dict]:
        """Snapshot every site at ``now``; feeds the health monitor."""
        rows = []
        for index, site in enumerate(self.cluster.sites):
            rows.append(self._collect(index, site, now))
        for row in rows:
            self.log.append(row)
        if self.monitor is not None:
            self.monitor.observe(now, rows)
        return rows

    def _collect(self, index: int, site, now: float) -> dict:  # noqa: ANN001
        cpu = site.kernel.cpu
        local = site.count("local_messages")
        totals = {counter: site.count(counter)
                  for counter in INTERVAL_COUNTERS}
        totals["msgs_sent"] = site.count("sent") + local
        totals["msgs_recv"] = site.count("received") + local
        totals["busy_frac"] = cpu.busy_total if cpu is not None else 0.0
        prev = self._prev.get(index)
        if prev is None:
            prev = dict.fromkeys(totals, 0)
            prev["busy_frac"] = totals["busy_frac"]
        self._prev[index] = totals
        row = {name: total - prev[name] for name, total in totals.items()}
        row["busy_frac"] = max(0.0, min(row["busy_frac"] / self.interval,
                                        1.0))
        row.update(site.snapshot(now), t=now, site=site.site_id)
        return {name: row[name] for name in SAMPLE_FIELDS}


# ---------------------------------------------------------------------------
# rendering (``repro top``)


def render_top(log: MetricsLog, key: str = "queue",
               last: int = 20) -> str:
    """Per-site summary table plus the tail of one field's time-series."""
    if key not in SAMPLE_FIELDS:
        raise SDVMError(f"unknown metrics field {key!r} "
                        f"(one of: {', '.join(SAMPLE_FIELDS)})")
    if not log.rows:
        return "(no metric samples)"
    lines = [f"metrics: {len(log.rows)} samples, "
             f"interval {log.interval:g}s, mode {log.mode}",
             "",
             "site  samples  q.mean  q.max  busy%  steals  help  "
             "msgs.in  msgs.out"]
    for site in log.sites():
        rows = [r for r in log.rows if r["site"] == site]
        n = len(rows)
        q_mean = sum(r["queue"] for r in rows) / n
        q_max = max(r["queue"] for r in rows)
        busy = 100.0 * sum(r["busy_frac"] for r in rows) / n
        steals = sum(r["steals_in"] for r in rows)
        help_sent = sum(r["help_sent"] for r in rows)
        msgs_in = sum(r["msgs_recv"] for r in rows)
        msgs_out = sum(r["msgs_sent"] for r in rows)
        lines.append(f"{site:4d} {n:8d} {q_mean:7.1f} {q_max:6d} "
                     f"{busy:5.0f}% {steals:7d} {help_sent:5d} "
                     f"{msgs_in:8d} {msgs_out:9d}")

    ticks = list(log.ticks())
    shown = ticks[-last:] if last > 0 else ticks
    sites = log.sites()
    lines.append("")
    lines.append(f"{key} per site, last {len(shown)} tick(s):")
    header = "       t  " + " ".join(f"s{site:<6d}" for site in sites)
    lines.append(header)
    for t, rows in shown:
        by_site = {r["site"]: r for r in rows}
        cells = []
        for site in sites:
            row = by_site.get(site)
            value = row[key] if row is not None else 0
            cells.append(f"{value:<7g}")
        lines.append(f"{t:8.3f}  " + " ".join(cells))
    return "\n".join(lines)
