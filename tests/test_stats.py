"""Tests for the statistics primitives."""

from __future__ import annotations

import pytest

from repro.common.stats import Counter, Gauge, Histogram, StatSet


class TestCounter:
    def test_add(self):
        c = Counter()
        c.add(2.0)
        c.add(4.0)
        assert c.count == 2
        assert c.total == 6.0
        assert c.mean == 3.0

    def test_empty_mean(self):
        assert Counter().mean == 0.0

    def test_merge(self):
        a, b = Counter(), Counter()
        a.add(1.0)
        b.add(2.0)
        a.merge(b)
        assert a.count == 2 and a.total == 3.0


class TestStatSet:
    def test_autovivify(self):
        s = StatSet()
        s.inc("x")
        s.add("y", 5.0)
        assert s["x"].count == 1
        assert s["y"].total == 5.0

    def test_get_does_not_create(self):
        s = StatSet()
        assert s.get("nothing").count == 0
        assert "nothing" not in s.as_dict()

    def test_merge(self):
        a, b = StatSet(), StatSet()
        a.inc("x")
        b.inc("x")
        b.inc("y")
        a.merge(b)
        assert a["x"].count == 2
        assert a["y"].count == 1

    def test_items_sorted(self):
        s = StatSet()
        s.inc("zebra")
        s.inc("alpha")
        assert [k for k, _ in s.items()] == ["alpha", "zebra"]


class TestGauge:
    def test_tracks_value_and_peak(self):
        g = Gauge()
        g.set(3.0)
        g.set(7.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.peak == 7.0

    def test_merge_takes_max_not_overwrite(self):
        """Cross-site merge semantics: instantaneous levels from different
        sites are not time-ordered, so the merged value is the max level
        any site reported — never the last operand's, never a sum."""
        a, b = Gauge(), Gauge()
        a.set(5.0)
        b.set(3.0)
        a.merge(b)
        assert a.value == 5.0
        assert a.peak == 5.0

    def test_merge_does_not_sum_values(self):
        sites = [Gauge() for _ in range(4)]
        for g in sites:
            g.set(2.0)
        merged = Gauge()
        for g in sites:
            merged.merge(g)
        assert merged.value == 2.0   # not 8.0
        assert merged.peak == 2.0

    def test_merge_takes_larger_incoming_value(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(6.0)
        a.merge(b)
        assert a.value == 6.0
        assert a.peak == 6.0

    def test_statset_gauges_in_as_dict(self):
        s = StatSet()
        s.set_gauge("queue_depth", 4.0)
        s.set_gauge("queue_depth", 1.0)
        d = s.as_dict()
        assert d["queue_depth"] == 1.0
        assert d["queue_depth_peak"] == 4.0

    def test_statset_gauge_merge(self):
        a, b = StatSet(), StatSet()
        a.set_gauge("depth", 9.0)
        b.set_gauge("depth", 2.0)
        a.merge(b)
        assert a.gauge("depth").peak == 9.0

    def test_locked_statset_counts_concurrently(self):
        import threading
        s = StatSet(locked=True)

        def spin():
            for _ in range(5000):
                s.inc("hits")

        workers = [threading.Thread(target=spin) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert s["hits"].count == 20000


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.p50 == 0.0 and h.p95 == 0.0 and h.mean == 0.0
        assert h.as_dict() == {"count": 0, "mean": 0.0, "p50": 0.0,
                               "p95": 0.0, "max": 0.0}

    def test_percentiles_are_conservative(self):
        """A bucketed percentile never under-reports: it returns the
        bucket's upper bound, clamped to the true observed max."""
        h = Histogram()
        for value in (0.001, 0.002, 0.003, 0.004, 0.100):
            h.observe(value)
        assert h.count == 5
        assert h.p50 >= 0.002
        assert h.p95 >= 0.100 * 0.99
        assert h.p95 <= h.max == 0.100

    def test_single_value(self):
        h = Histogram()
        h.observe(0.5)
        assert h.p50 == 0.5 and h.p95 == 0.5 and h.max == 0.5
        assert h.mean == 0.5

    def test_out_of_range_values_clamped_to_edge_buckets(self):
        h = Histogram()
        h.observe(1e-9)    # below the first bound
        h.observe(1e6)     # above the last bound
        assert h.count == 2
        assert h.max == 1e6
        assert h.percentile(1.0) == 1e6

    def test_merge(self):
        a, b = Histogram(), Histogram()
        for value in (0.01, 0.02):
            a.observe(value)
        b.observe(0.04)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(0.07)
        assert a.max == 0.04

    def test_statset_observe_and_dump(self):
        s = StatSet()
        s.observe("help_latency", 0.010)
        s.observe("help_latency", 0.020)
        assert s.hist("help_latency").count == 2
        d = s.as_dict()
        assert d["help_latency_count"] == 2
        assert d["help_latency_p95"] >= 0.020 * 0.99

    def test_statset_hist_merge(self):
        a, b = StatSet(), StatSet()
        a.observe("lat", 0.01)
        b.observe("lat", 0.03)
        a.merge(b)
        assert a.hist("lat").count == 2
        assert a.hist("lat").max == 0.03

    def test_locked_statset_observe(self):
        s = StatSet(locked=True)
        s.observe("lat", 0.5)
        assert s.hist("lat").count == 1
