"""Tests for the tracer-fed timeline tooling."""

from __future__ import annotations

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.trace import Timeline, TracerEvent
from repro.trace.blame import _merge
from repro.site.simcluster import SimCluster


@pytest.fixture
def traced_cluster(fast_config):
    config = fast_config.with_(trace=True)
    cluster = SimCluster(nsites=3, config=config)
    handle = cluster.submit(build_primes_program(),
                            args=(25, 6, 400.0, 4000.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == first_n_primes(25)
    return cluster


class TestJournal:
    def test_disabled_by_default(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.submit(build_primes_program(), args=(5, 2, 100.0, 1000.0))
        cluster.run(progress_timeout=60.0)
        assert cluster.tracer is None

    def test_events_recorded(self, traced_cluster):
        kinds = {e.kind for e in traced_cluster.tracer.select(site=0)}
        assert "exec_begin" in kinds
        assert "exec_end" in kinds

    def test_start_end_balanced(self, traced_cluster):
        """Ends may trail starts by at most the in-flight executions the
        simulation stopped on (the run halts the instant the result lands)."""
        for site in traced_cluster.sites:
            tracer = traced_cluster.tracer
            starts = len(tracer.select("exec_begin", site.site_id))
            ends = len(tracer.select("exec_end", site.site_id))
            slack = site.site_config.max_parallel + 2
            assert ends <= starts <= ends + slack


class TestTimeline:
    def test_busy_fractions_sane(self, traced_cluster):
        timeline = Timeline.from_cluster(traced_cluster)
        fractions = [timeline.busy_fraction(i) for i in timeline.sites()]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert max(fractions) > 0.3  # somebody actually worked

    def test_steals_visible(self, traced_cluster):
        timeline = Timeline.from_cluster(traced_cluster)
        assert any(e.kind == "steals_in" for e in timeline.events)

    def test_render_shape(self, traced_cluster):
        timeline = Timeline.from_cluster(traced_cluster)
        art = timeline.render(width=40)
        lines = art.splitlines()
        assert len(lines) == 1 + len(timeline.sites())
        assert all("|" in line for line in lines[1:])
        assert "#" in art

    def test_summary_counts_match_stats(self, traced_cluster):
        timeline = Timeline.from_cluster(traced_cluster)
        total_execs = sum(
            s.processing_manager.stats.get("executions").count
            for s in traced_cluster.sites)
        assert sum(1 for e in timeline.events
                   if e.kind == "exec_end") == total_execs

    def test_empty_timeline(self):
        timeline = Timeline([], horizon=1.0)
        assert "no trace events" in timeline.render()

    def test_interval_merge(self):
        # the timeline merges busy intervals with blame's own helper
        merged = _merge([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
        assert merged == [(0.0, 2.0), (3.0, 4.0)]

    def test_open_interval_runs_to_horizon(self):
        events = [TracerEvent(0.5, 0, "exec_begin", (1,))]
        timeline = Timeline(events, horizon=2.0)
        assert timeline.busy_fraction(0) == pytest.approx(0.75)


class TestMemoryProtocolPrices:
    """``dir_updates_per_alloc`` and ``msgs_per_remote_read`` on the
    cluster report: what the attraction memory charges, in messages."""

    def derived(self, cluster):
        report = cluster.cluster_report()
        assert "dir_updates_per_alloc" in report.render()
        assert "msgs_per_remote_read" in report.render()
        return report.derived

    def test_primes_allocates_and_reads_nothing(self, traced_cluster):
        derived = self.derived(traced_cluster)
        assert derived["dir_updates_per_alloc"] == 0.0
        assert derived["msgs_per_remote_read"] == 0.0
        assert derived["msgs_per_exec"] == pytest.approx(
            derived["messages_sent"] / derived["executions"])

    def test_memstress_pays_two_messages_a_read(self, fast_config):
        """Every memstress object is read once, away from its homesite:
        the homesite records each hop as the object leaves, so a read
        costs its MEM_READ and MEM_READ_REPLY and an allocation nothing."""
        from repro.apps import build_memstress_program, memstress_expected
        cluster = SimCluster(nsites=3, config=fast_config)
        handle = cluster.submit(build_memstress_program(), args=(16, 50.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == memstress_expected(16)
        stats = cluster.total_stats()
        assert stats.get("objects_allocated").count == 16
        assert stats.get("migrations_in").count > 0
        derived = self.derived(cluster)
        assert derived["dir_updates_per_alloc"] == 0.0
        assert derived["msgs_per_remote_read"] == 2.0

    def test_a_wandering_object_is_priced_per_hop(self, fast_config):
        """One object read from b, c and back home over the message
        protocol: 4 MEM_READs and their 4 replies (one a redirect), one
        DIR_UPDATE and its DIR_ACK, for 3 migrations."""
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        addr = a.attraction_memory.alloc_object("v")
        for step, reader in enumerate((b, c, a)):
            reader.attraction_memory.live_read(addr, lambda v, e=None: None)
            cluster.sim.run(until=0.4 + 0.2 * step)
        derived = self.derived(cluster)
        assert derived["dir_updates_per_alloc"] == 1.0
        assert derived["msgs_per_remote_read"] == pytest.approx(10 / 3)
