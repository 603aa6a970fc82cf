"""Tests for ``repro.trace.timeline``: interval pairing, horizon edge
cases (the zero-horizon guard is a shipped-bug regression), merging, and
the empty-trace render paths."""

from __future__ import annotations

from repro.common.config import SDVMConfig
from repro.site.simcluster import SimCluster
from repro.trace.timeline import Timeline
from repro.trace.tracer import TracerEvent


def exec_pair(site, frame, start, end):
    return [TracerEvent(start, site, "exec_begin", (frame,)),
            TracerEvent(end, site, "exec_end", (frame,))]


class TestIntervalPairing:
    def test_pairs_by_site_and_frame(self):
        events = (exec_pair(0, 1, 0.0, 1.0) + exec_pair(0, 2, 2.0, 3.0)
                  + exec_pair(1, 1, 0.5, 2.5))
        timeline = Timeline(events, horizon=4.0)
        assert timeline._busy[0] == [(0.0, 1.0), (2.0, 3.0)]
        assert timeline._busy[1] == [(0.5, 2.5)]
        assert timeline.busy_fraction(0) == 0.5
        assert timeline.busy_fraction(1) == 0.5

    def test_open_execution_runs_to_the_horizon(self):
        events = [TracerEvent(1.0, 0, "exec_begin", (9,))]
        timeline = Timeline(events, horizon=3.0)
        assert timeline._busy[0] == [(1.0, 3.0)]
        assert timeline.busy_fraction(0) == (3.0 - 1.0) / 3.0

    def test_unmatched_end_is_ignored(self):
        events = [TracerEvent(1.0, 0, "exec_end", (9,))]
        timeline = Timeline(events, horizon=2.0)
        assert timeline._busy == {}
        assert timeline.busy_fraction(0) == 0.0

    def test_overlapping_intervals_merge_for_busy_fraction(self):
        # two frames in flight at once must not double-count wall time
        events = exec_pair(0, 1, 0.0, 2.0) + exec_pair(0, 2, 1.0, 3.0)
        timeline = Timeline(events, horizon=4.0)
        assert timeline._merge(timeline._busy[0]) == [(0.0, 3.0)]
        assert timeline.busy_fraction(0) == 0.75

    def test_busy_fraction_is_capped_at_one(self):
        events = exec_pair(0, 1, 0.0, 5.0)
        timeline = Timeline(events, horizon=2.0)
        assert timeline.busy_fraction(0) == 1.0


class TestHorizonEdgeCases:
    def test_zero_horizon_busy_fraction_is_zero(self):
        # regression: all events at t=0 used to divide by a 0 horizon
        events = exec_pair(0, 1, 0.0, 0.0)
        timeline = Timeline(events, horizon=0.0)
        assert timeline.busy_fraction(0) == 0.0

    def test_zero_horizon_render_says_so(self):
        events = exec_pair(0, 1, 0.0, 0.0)
        rendered = Timeline(events, horizon=0.0).render()
        assert "zero horizon" in rendered

    def test_negative_horizon_is_clamped(self):
        timeline = Timeline([], horizon=-1.0)
        assert timeline.horizon == 0.0
        assert timeline.busy_fraction(0) == 0.0


class TestEmptyAndRendering:
    def test_empty_journal_render_message(self):
        rendered = Timeline([], horizon=1.0).render()
        assert "no trace events" in rendered

    def test_render_marks_busy_and_steals(self):
        events = exec_pair(0, 1, 0.0, 1.0)
        events.append(TracerEvent(1.5, 0, "steal_in", ()))
        rendered = Timeline(events, horizon=2.0).render(width=8)
        lane = rendered.splitlines()[1]
        assert "#" in lane and "s" in lane

    def test_summary_counts_executions_and_steals(self):
        events = (exec_pair(0, 1, 0.0, 1.0) + exec_pair(0, 2, 1.0, 2.0))
        events.append(TracerEvent(0.5, 0, "steal_in", ()))
        summary = Timeline(events, horizon=2.0).summary()
        assert summary.splitlines()[1].split() == ["0", "100%", "2", "1"]

    def test_from_cluster_without_journal_is_empty(self):
        cluster = SimCluster(nsites=2, config=SDVMConfig(trace=False))
        timeline = Timeline.from_cluster(cluster)
        assert timeline.events == []
        assert "no trace events" in timeline.render()
