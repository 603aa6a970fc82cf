"""Build and render per-site execution timelines from tracer events."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.trace.blame import _merge
from repro.trace.tracer import TracerEvent

#: the tracer event kinds a timeline draws (``frame`` is the first field
#: of both exec kinds)
_KINDS = ("exec_begin", "exec_end", "steals_in")


class Timeline:
    """Per-site busy intervals + steal arrivals, reconstructed from the
    tracer's ``exec_begin``/``exec_end`` pairs.  Lanes are logical site
    ids, as the tracer records them."""

    def __init__(self, events: List[TracerEvent], horizon: float) -> None:
        self.events = sorted((e for e in events if e.kind in _KINDS),
                             key=lambda e: (e.ts, e.site))
        self.horizon = max(horizon, 0.0)
        #: events pre-bucketed per site, so render() stays
        #: O(events) instead of rescanning the full list per site
        self._by_site: Dict[int, List[TracerEvent]] = {}
        for event in self.events:
            self._by_site.setdefault(event.site, []).append(event)
        self._busy = self._pair_intervals()

    @classmethod
    def from_cluster(cls, cluster) -> "Timeline":  # noqa: ANN001
        """The timeline of a SimCluster or LiveCluster run with
        ``SDVMConfig(trace=True)`` (empty without it)."""
        tracer = cluster.tracer
        return cls([] if tracer is None else tracer.events, cluster.horizon)

    # ------------------------------------------------------------------
    def _pair_intervals(self) -> Dict[int, List[Tuple[float, float]]]:
        """Match exec_begin/exec_end by frame id, per site."""
        open_frames: Dict[Tuple[int, int], float] = {}
        busy: Dict[int, List[Tuple[float, float]]] = {}
        for event in self.events:
            if event.kind == "exec_begin":
                open_frames[(event.site, event.fields[0])] = event.ts
            elif event.kind == "exec_end":
                start = open_frames.pop((event.site, event.fields[0]), None)
                if start is not None:
                    busy.setdefault(event.site, []).append(
                        (start, event.ts))
        # still-open executions run to the horizon
        for (site, _frame), start in open_frames.items():
            busy.setdefault(site, []).append((start, self.horizon))
        for intervals in busy.values():
            intervals.sort()
        return busy

    def sites(self) -> List[int]:
        return sorted(self._by_site)

    def busy_fraction(self, site: int) -> float:
        """Fraction of the horizon the site had executions in flight."""
        if self.horizon <= 0.0:
            return 0.0
        merged = _merge(self._busy.get(site, []))
        return min(sum(hi - lo for lo, hi in merged) / self.horizon, 1.0)

    # ------------------------------------------------------------------
    def render(self, width: int = 72) -> str:
        """ASCII Gantt: one lane per site; '#' busy, 's' steal arrival."""
        if not self.events:
            return "(no trace events — enable SDVMConfig(trace=True))"
        if self.horizon <= 0.0:
            return (f"(all {len(self.events)} trace events at t=0 — "
                    f"zero horizon, nothing to draw)")
        scale = width / self.horizon
        lines = [f"timeline 0 .. {self.horizon:.3f}s "
                 f"({self.horizon / width:.4f}s per column)"]
        for site in self.sites():
            row = [" "] * width
            for lo, hi in self._busy.get(site, []):
                a = min(int(lo * scale), width - 1)
                b = min(int(hi * scale), width - 1)
                for column in range(a, b + 1):
                    row[column] = "#"
            for event in self._by_site.get(site, ()):
                if event.kind == "steals_in":
                    column = min(int(event.ts * scale), width - 1)
                    if row[column] == " ":
                        row[column] = "s"
            busy_pct = 100.0 * self.busy_fraction(site)
            lines.append(f"site{site:<3d}|{''.join(row)}| "
                         f"{busy_pct:4.0f}%")
        return "\n".join(lines)
