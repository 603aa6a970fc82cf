"""Critical-path extraction and per-category time attribution ("blame").

Answers the question the paper's Table 1 raises but cannot answer: *where
did the missing speedup go?*  An 8-site run that achieves 6.6x left 1.4
sites of capacity on the floor — this module attributes every virtual
second of every site to one of seven categories:

``compute``
    CPU busy executing microthread work (busy minus overhead).
``protocol``
    CPU busy on runtime overhead: message costs, compiles, scheduling
    decisions, crypto.
``steal-wait``
    Idle while a help request was in flight (send to reply/timeout).
``code-fetch``
    Idle while a remote code fetch (and any resulting on-the-fly compile)
    was outstanding.
``checkpoint-pause``
    Idle inside a checkpoint wave (global pause window).
``message-latency``
    Idle while a dataflow result (APPLY_RESULT / FRAME_TRANSFER) was in
    transit toward this site.
``idle``
    Residual idle time no instrumented wait explains.

Wait windows come from the trace journal; overlapping windows are claimed
once, in the priority order above, and the claimed total is capped by the
site's true idle time (``horizon - cpu.busy_total``) so the seven
categories always sum exactly to the horizon per site.  Summed over sites
they sum to ``nsites * horizon`` — the gap between ideal ``nsites``-fold
speedup and the measured one decomposes exactly into the six non-compute
categories (in units of "lost sites": category seconds / horizon).

The live kernel stamps the journal on the same clock as its horizon (wall
seconds since the build), so a live cluster gets the same report; it
models no CPU, so its ``compute`` and ``protocol`` read 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import SDVMError
from repro.trace.causal import EXEC_TAG, CausalGraph

#: attribution categories, in render order
CATEGORIES = ("compute", "protocol", "steal-wait", "code-fetch",
              "checkpoint-pause", "message-latency", "idle")

#: wait categories, in interval-claim priority order (a second that is
#: both "inside a checkpoint pause" and "waiting for a steal reply" counts
#: as checkpoint pause)
_WAIT_PRIORITY = ("checkpoint-pause", "steal-wait", "code-fetch",
                  "message-latency")

#: message types whose transit counts as dataflow latency at the receiver
_DATAFLOW_TYPES = frozenset({"APPLY_RESULT", "FRAME_TRANSFER"})

Interval = Tuple[float, float]


def _merge(intervals: List[Interval]) -> List[Interval]:
    """Sort + coalesce overlapping intervals."""
    out: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _subtract(intervals: List[Interval],
              claimed: List[Interval]) -> List[Interval]:
    """Clip merged ``intervals`` against merged ``claimed`` regions."""
    out: List[Interval] = []
    for start, end in intervals:
        cursor = start
        for c_start, c_end in claimed:
            if c_end <= cursor:
                continue
            if c_start >= end:
                break
            if c_start > cursor:
                out.append((cursor, c_start))
            cursor = max(cursor, c_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def _total(intervals: List[Interval]) -> float:
    return sum(end - start for start, end in intervals)


def _pair_windows(starts: List[float], ends: List[float],
                  horizon: float) -> List[Interval]:
    """Greedily pair each window start with the earliest later end; an
    unanswered start closes at the next start (retry) or the horizon."""
    out: List[Interval] = []
    ends = sorted(ends)
    used = 0
    for i, start in enumerate(sorted(starts)):
        while used < len(ends) and ends[used] <= start:
            used += 1
        if used < len(ends):
            out.append((start, ends[used]))
            used += 1
        else:
            next_start = starts[i + 1] if i + 1 < len(starts) else horizon
            out.append((start, min(next_start, horizon)))
    return out


class BlameReport:
    """Per-category, per-site, per-program time attribution for one run."""

    def __init__(self, per_site: Dict[int, Dict[str, float]],
                 horizon: float,
                 per_program: Dict[int, dict],
                 critical_path: List[dict],
                 program_names: Optional[Dict[int, str]] = None) -> None:
        self.per_site = per_site
        self.horizon = horizon
        self.nsites = len(per_site)
        self.per_program = per_program
        self.critical_path = critical_path
        self.program_names = program_names or {}
        self.totals: Dict[str, float] = {cat: 0.0 for cat in CATEGORIES}
        for shares in per_site.values():
            for cat in CATEGORIES:
                self.totals[cat] += shares.get(cat, 0.0)

    # ------------------------------------------------------------------
    @property
    def cluster_seconds(self) -> float:
        """Total attributed site-seconds (``nsites * horizon``)."""
        return self.nsites * self.horizon

    @property
    def measured_speedup(self) -> float:
        """Compute seconds per wall second — the effective parallelism."""
        return (self.totals["compute"] / self.horizon
                if self.horizon > 0 else 0.0)

    def lost_sites(self) -> Dict[str, float]:
        """The speedup gap (ideal nsites minus measured), decomposed:
        each non-compute category's seconds expressed in sites."""
        if self.horizon <= 0:
            return {cat: 0.0 for cat in CATEGORIES if cat != "compute"}
        return {cat: self.totals[cat] / self.horizon
                for cat in CATEGORIES if cat != "compute"}

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "nsites": self.nsites,
            "totals": dict(self.totals),
            "measured_speedup": self.measured_speedup,
            "lost_sites": self.lost_sites(),
            "per_site": {str(s): dict(v)
                         for s, v in sorted(self.per_site.items())},
            "per_program": {str(p): dict(v)
                            for p, v in sorted(self.per_program.items())},
            "critical_path": [dict(seg) for seg in self.critical_path],
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [f"blame report — {self.nsites} site(s), "
                 f"horizon {self.horizon:.4f}s "
                 f"({self.cluster_seconds:.4f} site-seconds)"]
        lines.append("time attribution:")
        denom = self.cluster_seconds or 1.0
        for cat in CATEGORIES:
            seconds = self.totals[cat]
            lines.append(f"  {cat:<18s} {seconds:12.4f}s "
                         f"{100.0 * seconds / denom:6.1f}%")
        lines.append(f"speedup: measured {self.measured_speedup:.2f}x of "
                     f"ideal {self.nsites}x — the gap of "
                     f"{self.nsites - self.measured_speedup:.2f} site(s) "
                     "decomposes into:")
        for cat, sites in self.lost_sites().items():
            if sites > 0.005:
                lines.append(f"  {cat:<18s} {sites:6.2f} site(s)")
        lines.append("per-site breakdown (seconds):")
        header = "  site " + " ".join(f"{c:>12s}" for c in CATEGORIES)
        lines.append(header)
        for site_id in sorted(self.per_site):
            shares = self.per_site[site_id]
            row = " ".join(f"{shares.get(c, 0.0):12.4f}"
                           for c in CATEGORIES)
            lines.append(f"  {site_id:<4d} {row}")
        if self.per_program:
            lines.append("per-program breakdown:")
            lines.append(f"  {'program':<24s} {'execs':>7s} "
                         f"{'exec-span s':>12s} {'work':>10s}")
            for pid in sorted(self.per_program):
                row = self.per_program[pid]
                name = self.program_names.get(pid, f"pid {pid}")
                lines.append(f"  {name:<24s} {row['executions']:7d} "
                             f"{row['span_seconds']:12.4f} "
                             f"{row['work_units']:10.4g}")
        if self.critical_path:
            lines.append(render_critical_path(self.critical_path,
                                              summary_only=True))
        return "\n".join(lines)


def render_critical_path(segments: List[dict],
                         summary_only: bool = False) -> str:
    """Render categorized critical-path segments (``repro critical-path``)."""
    if not segments:
        return "critical path: empty (no traced events)"
    start = segments[0]["start"]
    end = max(seg["end"] for seg in segments)
    span = end - start
    by_cat: Dict[str, float] = {}
    for seg in segments:
        by_cat[seg["category"]] = (by_cat.get(seg["category"], 0.0)
                                   + seg["end"] - seg["start"])
    lines = [f"critical path: {len(segments)} segment(s), "
             f"span {span:.4f}s"]
    for cat in sorted(by_cat, key=lambda c: -by_cat[c]):
        pct = 100.0 * by_cat[cat] / span if span > 0 else 0.0
        lines.append(f"  {cat:<18s} {by_cat[cat]:12.4f}s {pct:6.1f}%")
    if summary_only:
        return "\n".join(["critical path (terminal chain):"] + lines[1:])
    lines.append("segments:")
    for seg in segments:
        where = f"s{seg['site']}"
        if "dst" in seg and seg["dst"] != seg["site"]:
            where += f"->s{seg['dst']}"
        lines.append(f"  {seg['start']:.6f} .. {seg['end']:.6f} "
                     f"({seg['end'] - seg['start']:.6f}s) "
                     f"{seg['category']:<16s} {where:<10s} {seg['label']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# attribution


def blame_cluster(cluster) -> BlameReport:  # noqa: ANN001
    """Attribute ``[0, horizon]`` of every running site of a SimCluster or
    LiveCluster to categories, from its journal."""
    tracer = cluster.tracer
    if tracer is None:
        raise SDVMError(
            "blame analysis needs a trace — build the cluster with "
            "SDVMConfig(trace=True)")
    horizon = cluster.horizon
    events = tracer.events
    graph = CausalGraph.from_events(events)

    # -- wait windows per site, per category ---------------------------
    help_starts: Dict[int, List[float]] = {}
    fetch_starts: Dict[int, List[float]] = {}
    fetch_ends: Dict[int, List[float]] = {}
    wave_begin: Dict[int, float] = {}
    pause_windows: List[Interval] = []
    for event in events:
        if event.kind == "help_sent":
            help_starts.setdefault(event.site, []).append(event.ts)
        elif event.kind == "code_fetch":
            fetch_starts.setdefault(event.site, []).append(event.ts)
        elif event.kind == "code_fetch_done":
            fetch_ends.setdefault(event.site, []).append(event.ts)
        elif event.kind == "wave_begin":
            wave_begin[event.fields[0]] = event.ts
        elif event.kind in ("wave_commit", "wave_abort"):
            begin = wave_begin.pop(event.fields[0], None)
            if begin is not None:
                pause_windows.append((begin, event.ts))
    # a wave still open at the horizon pauses through the end of the run
    for begin in wave_begin.values():
        pause_windows.append((begin, horizon))

    help_ends: Dict[int, List[float]] = {}
    dataflow: Dict[int, List[Interval]] = {}
    for node in graph.nodes.values():
        if node.kind != "msg" or node.local:
            continue
        if node.label == "HELP_REPLY":  # a grant or a refusal
            help_ends.setdefault(node.dst, []).append(node.end)
        if node.label in _DATAFLOW_TYPES and node.end > node.start:
            dataflow.setdefault(node.dst, []).append((node.start, node.end))

    # -- per-site attribution ------------------------------------------
    per_site: Dict[int, Dict[str, float]] = {}
    for site in cluster.sites:
        site_id = site.site_id
        if site_id < 0:
            continue
        cpu = site.kernel.cpu
        busy = cpu.busy_total if cpu is not None else 0.0
        overhead = cpu.overhead_total if cpu is not None else 0.0
        busy = min(busy, horizon)
        overhead = min(overhead, busy)
        windows: Dict[str, List[Interval]] = {
            "checkpoint-pause": pause_windows,
            "steal-wait": _pair_windows(help_starts.get(site_id, []),
                                        help_ends.get(site_id, []),
                                        horizon),
            "code-fetch": _pair_windows(fetch_starts.get(site_id, []),
                                        fetch_ends.get(site_id, []),
                                        horizon),
            "message-latency": dataflow.get(site_id, []),
        }
        claimed: List[Interval] = []
        waits: Dict[str, float] = {}
        for cat in _WAIT_PRIORITY:
            merged = _merge([(max(s, 0.0), min(e, horizon))
                             for s, e in windows[cat]])
            fresh = _subtract(merged, claimed)
            waits[cat] = _total(fresh)
            claimed = _merge(claimed + fresh)
        idle_budget = max(horizon - busy, 0.0)
        wait_sum = sum(waits.values())
        if wait_sum > idle_budget and wait_sum > 0.0:
            # waits overlapped busy time (e.g. one lane begging while the
            # others compute) — only their truly idle share may claim blame
            scale = idle_budget / wait_sum
            waits = {cat: sec * scale for cat, sec in waits.items()}
            wait_sum = idle_budget
        per_site[site_id] = {
            "compute": busy - overhead,
            "protocol": overhead,
            **waits,
            "idle": idle_budget - wait_sum,
        }

    # -- per-program breakdown -----------------------------------------
    frame_program: Dict[int, int] = {}
    for event in events:
        if event.kind == "frame_enqueued":
            frame_program[event.fields[0]] = event.fields[1]
    per_program: Dict[int, dict] = {}
    for node in graph.nodes.values():
        if node.kind != "exec":
            continue
        pid = frame_program.get(node.node_id ^ EXEC_TAG, -1)
        row = per_program.setdefault(
            pid, {"executions": 0, "span_seconds": 0.0, "work_units": 0.0})
        row["executions"] += 1
        row["span_seconds"] += node.duration
        row["work_units"] += node.work

    names = {handle.pid: handle.program.name
             for handle in cluster.handles if handle.pid >= 0}
    return BlameReport(per_site, horizon, per_program,
                       graph.critical_path(), names)
