"""Tests for the in-run telemetry plane: the metrics sampler and the
``sdvm-metrics/1`` schema, the online health detectors, the flight dumps
the tracer freezes out of its journal, report parity on the live runtime,
and the bench trace-dir retention helper.

The two acceptance scenarios from the chaos side live here too: a
partition plan that stalls a checkpoint wave must trip the wave-stall
detector, and a crash plan must leave a flight-recorder dump holding the
crashed site's final events.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.chaos import FaultPlan, run_plan
from repro.common.config import SDVMConfig
from repro.common.errors import SDVMError
from repro.common.stats import Histogram
from repro.runtime.live_cluster import LiveCluster
from repro.site.simcluster import SimCluster
from repro.trace import (
    DETECTORS,
    FLIGHT_DEPTH,
    HealthMonitor,
    METRICS_SCHEMA,
    MetricsLog,
    SAMPLE_FIELDS,
    Timeline,
    Tracer,
    TracerEvent,
    analyze_log,
    blame_cluster,
    render_top,
    validate_metrics,
)
from repro.trace.health import (
    IDLE_BACKLOG_MIN,
    RECOVERY_WEDGED_INTERVALS,
    STALL_INTERVALS,
    WAVE_STALL_INTERVALS,
)
from tests.test_live_runtime import fanout_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "chaos_corpus")

#: sha256 of the flight dumps below as the ring-buffer recorder that the
#: tracer replaced took them (JSON, sorted keys): a freeze must cut the
#: same events, in the same order, at the same instant.  The crash dump
#: was re-pinned when any message became a heartbeat: ``crash_during_wave``
#: skips the HEARTBEATs its traffic made redundant, so its lead-up differs.
#: Both were re-pinned when frames and program infos went positional on
#: the wire: the journal's message events carry each envelope's size.
#: And again when the envelope became an eight-varint header without the
#: causal stamp: sizes shrank, and the message and execution events lost
#: their ``origin`` field.  The crash dump was re-pinned when four kinds
#: took their counter's name and ``steal_out`` moved after its HELP_REPLY
#: (``Manager.note``); with the kinds mapped back its events sort equal
#: to the old dump's.  The invariant dumps hold none of those kinds
CRASH_DUMP_SHA256 = (
    "d6070a7766b184ee789989a30118db5aa78da9469b00ae99b11a7ff473542724")
INVARIANT_DUMPS_SHA256 = (
    "09b794c4c17c6d4430c9660ec9fd64712766fa05248b2f8364080eb99995a2ee")


def sha256_json(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def run_primes_cluster(metrics_interval=0.05, nsites=4, seed=0, trace=False):
    cluster = SimCluster(
        nsites=nsites,
        config=SDVMConfig(seed=seed, metrics_interval=metrics_interval,
                          trace=trace))
    handle = cluster.submit(build_primes_program(),
                            args=(40, 6, 400.0, 4000.0))
    cluster.run()
    assert handle.result == first_n_primes(40)
    return cluster


def sample_row(**overrides):
    """A healthy baseline row; tests override the fields under study."""
    row = {name: 0 for name in SAMPLE_FIELDS}
    row.update(t=0.0, site=0, alive=1, busy_frac=0.5, queue=1,
               in_flight=1, msgs_sent=2, msgs_recv=2, wave_age=0.0)
    row.update(overrides)
    return row


# ---------------------------------------------------------------------------
# the sampler + schema


class TestMetricsSampler:
    def test_sim_run_samples_every_site_every_tick(self):
        cluster = run_primes_cluster()
        log = cluster.metrics
        assert log.sites() == [0, 1, 2, 3]
        ticks = list(log.ticks())
        assert len(ticks) >= 3
        for t, rows in ticks:
            assert len(rows) == 4
            assert all(row["t"] == t for row in rows)
        validate_metrics(log.header(), log.rows)

    def test_a_healthy_run_journals_no_health_event(self):
        """No detector fires on a healthy traced run, so nothing reaches
        the journal and no flight dump is frozen."""
        cluster = run_primes_cluster(trace=True)
        assert cluster.health.ok, cluster.health.detections
        assert "health" not in cluster.tracer.kinds()
        assert cluster.tracer.dumps == {}

    def test_counters_are_interval_deltas_not_cumulative(self):
        cluster = run_primes_cluster()
        log = cluster.metrics
        # cumulative counters would sum to far more than the run total;
        # deltas reconstruct to at most it (the run ends mid-interval,
        # so the final partial interval is legitimately unsampled)
        for index, site in enumerate(cluster.sites):
            total = site.scheduling_manager.stats.get("steals_in").count
            deltas = [row["steals_in"] for row in log.rows
                      if row["site"] == site.site_id]
            assert all(delta >= 0 for delta in deltas)
            assert sum(deltas) <= total
        assert all(0.0 <= row["busy_frac"] <= 1.0 for row in log.rows)

    def test_metrics_off_builds_no_telemetry_objects(self):
        cluster = run_primes_cluster(metrics_interval=0.0)
        assert cluster.metrics is None
        assert cluster.health is None
        assert cluster.tracer is None

    def test_metrics_off_runs_are_bit_identical(self):
        from repro.chaos import journal_fingerprint
        prints = []
        for _ in range(2):
            cluster = SimCluster(nsites=4, config=SDVMConfig(trace=True))
            cluster.submit(build_primes_program(),
                           args=(40, 6, 400.0, 4000.0))
            cluster.run()
            prints.append(journal_fingerprint(cluster.tracer))
        assert prints[0] == prints[1]

    def test_flight_recorder_does_not_change_the_journal(self):
        from repro.chaos import journal_fingerprint
        cluster = SimCluster(nsites=4, config=SDVMConfig(trace=True))
        cluster.submit(build_primes_program(), args=(40, 6, 400.0, 4000.0))
        cluster.run()
        before = journal_fingerprint(cluster.tracer)
        cluster.tracer.freeze(1, cluster.sim.now)
        assert cluster.tracer.freeze_all(cluster.sim.now, "test") >= 3
        assert journal_fingerprint(cluster.tracer) == before

    def test_jsonl_round_trip(self, tmp_path):
        cluster = run_primes_cluster()
        path = str(tmp_path / "run.metrics.jsonl")
        count = cluster.metrics.write_jsonl(path)
        reloaded = MetricsLog.load(path)
        assert len(reloaded.rows) == count == len(cluster.metrics.rows)
        assert reloaded.interval == cluster.metrics.interval
        assert reloaded.rows == cluster.metrics.rows
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == METRICS_SCHEMA
        assert header["fields"] == list(SAMPLE_FIELDS)


class TestMetricsValidation:
    def header(self):
        return MetricsLog(interval=0.05).header()

    def test_rejects_wrong_schema_tag(self):
        header = self.header()
        header["schema"] = "sdvm-metrics/0"
        with pytest.raises(SDVMError, match="schema"):
            validate_metrics(header, [])

    def test_rejects_bad_interval(self):
        header = self.header()
        header["interval"] = 0
        with pytest.raises(SDVMError, match="interval"):
            validate_metrics(header, [])

    def test_rejects_field_list_mismatch(self):
        header = self.header()
        header["fields"] = header["fields"][:-1]
        with pytest.raises(SDVMError, match="field list"):
            validate_metrics(header, [])

    def test_rejects_missing_and_extra_row_keys(self):
        row = sample_row()
        del row["queue"]
        with pytest.raises(SDVMError, match="keys mismatch"):
            validate_metrics(self.header(), [row])
        row["bogus"] = 1
        with pytest.raises(SDVMError, match="keys mismatch"):
            validate_metrics(self.header(), [row])

    def test_rejects_non_numeric_and_negative_counts(self):
        with pytest.raises(SDVMError, match="non-numeric"):
            validate_metrics(self.header(), [sample_row(queue="three")])
        with pytest.raises(SDVMError, match="non-negative"):
            validate_metrics(self.header(), [sample_row(queue=-1)])
        with pytest.raises(SDVMError, match="non-negative"):
            validate_metrics(self.header(), [sample_row(steals_in=1.5)])

    def test_rejects_time_going_backwards(self):
        rows = [sample_row(t=0.10), sample_row(t=0.05)]
        with pytest.raises(SDVMError, match="backwards"):
            validate_metrics(self.header(), rows)

    def test_rejects_empty_and_non_jsonl_documents(self):
        with pytest.raises(SDVMError, match="empty"):
            MetricsLog.from_lines([])
        with pytest.raises(SDVMError, match="JSONL"):
            MetricsLog.from_lines(["not json at all\n"])

    def test_render_top_rejects_unknown_key(self):
        log = MetricsLog(interval=0.05)
        log.append(sample_row())
        with pytest.raises(SDVMError, match="unknown metrics field"):
            render_top(log, key="bogus")


# ---------------------------------------------------------------------------
# Histogram.percentile (the generalized-quantile satellite)


class TestHistogramPercentile:
    def test_percentile_is_conservative_upper_bound(self):
        hist = Histogram()
        for value in (0.001,) * 90 + (0.5,) * 10:
            hist.observe(value)
        # the true p50 is 0.001; the reported bound may round up to the
        # bucket edge but never under-reports
        assert hist.percentile(0.50) >= 0.001
        assert hist.percentile(0.50) < 0.5
        # the tail lands in the 0.5 bucket, clamped to the observed max
        assert 0.5 <= hist.percentile(0.99) <= hist.max

    def test_percentile_empty_and_extremes(self):
        hist = Histogram()
        assert hist.percentile(0.5) == 0.0
        hist.observe(3.0)
        assert hist.percentile(0.0) <= hist.percentile(1.0) == 3.0

    def test_percentile_clamps_to_observed_max(self):
        hist = Histogram()
        hist.observe(250.0)  # beyond the last bucket bound (100 s)
        assert hist.percentile(0.5) == 250.0

    def test_p50_p95_delegate_to_percentile(self):
        hist = Histogram()
        for value in (0.01, 0.02, 0.04, 5.0):
            hist.observe(value)
        assert hist.p50 == hist.percentile(0.50)
        assert hist.p95 == hist.percentile(0.95)


# ---------------------------------------------------------------------------
# the detectors, on synthetic rows


class TestHealthDetectors:
    def monitor(self):
        return HealthMonitor(0.05)

    def feed(self, monitor, tick_rows, dt=0.05):
        for index, rows in enumerate(tick_rows):
            t = (index + 1) * dt
            for row in rows:
                row["t"] = t
            monitor.observe(t, rows)

    def test_detector_names_are_stable(self):
        assert DETECTORS == ("idle_stall", "steal_storm", "wave_stall",
                             "recovery_wedged", "partition_suspect",
                             "sdc_mismatch")

    def test_idle_stall_fires_once_per_episode(self):
        monitor = self.monitor()
        idle = lambda: sample_row(site=0, queue=0, in_flight=0,  # noqa: E731
                                  busy_frac=0.0)
        busy_peer = lambda: sample_row(site=1,  # noqa: E731
                                       queue=IDLE_BACKLOG_MIN)
        # one tick short of the streak: quiet
        self.feed(monitor, [[idle(), busy_peer()]
                            for _ in range(STALL_INTERVALS - 1)])
        assert monitor.ok
        # fires at the streak's last tick, not again on the next two
        self.feed(monitor, [[idle(), busy_peer()] for _ in range(3)])
        firings = [d for d in monitor.detections
                   if d.detector == "idle_stall"]
        assert len(firings) == 1
        assert firings[0].site == 0
        # clears, then stalls again: a second episode fires
        self.feed(monitor, [[sample_row(site=0, queue=2), busy_peer()]])
        self.feed(monitor, [[idle(), busy_peer()]
                            for _ in range(STALL_INTERVALS)])
        assert len([d for d in monitor.detections
                    if d.detector == "idle_stall"]) == 2

    def test_idle_without_cluster_backlog_is_fine(self):
        monitor = self.monitor()
        rows = lambda: [sample_row(site=0, queue=0, in_flight=0,  # noqa: E731
                                   busy_frac=0.0),
                        sample_row(site=1, queue=IDLE_BACKLOG_MIN - 1)]
        self.feed(monitor, [rows() for _ in range(6)])
        assert monitor.ok

    def test_steal_storm_fires_on_fruitless_starved_begging(self):
        monitor = self.monitor()
        beggar = lambda: sample_row(site=0, queue=0, in_flight=0,  # noqa: E731
                                    busy_frac=0.0, help_sent=6,
                                    steals_in=0)
        hoarder = lambda: sample_row(site=1,  # noqa: E731
                                     queue=IDLE_BACKLOG_MIN)
        self.feed(monitor, [[beggar(), hoarder()]
                            for _ in range(STALL_INTERVALS)])
        assert [d.detector for d in monitor.detections
                if d.site == 0].count("steal_storm") == 1

    def test_busy_begging_is_not_a_storm(self):
        # healthy runs beg constantly while busy — must stay quiet
        monitor = self.monitor()
        beggar = lambda: sample_row(site=0, busy_frac=0.8,  # noqa: E731
                                    help_sent=10, steals_in=0)
        hoarder = lambda: sample_row(site=1, queue=20)  # noqa: E731
        self.feed(monitor, [[beggar(), hoarder()] for _ in range(6)])
        assert monitor.ok

    def test_begging_into_a_workless_cluster_is_not_a_storm(self):
        # the serial tail phase: everyone begs, nobody has work
        monitor = self.monitor()
        beggar = lambda site: sample_row(site=site, queue=0,  # noqa: E731
                                         in_flight=0, busy_frac=0.0,
                                         help_sent=8, steals_in=0)
        self.feed(monitor, [[beggar(0), beggar(1)] for _ in range(6)])
        assert all(d.detector != "steal_storm" for d in monitor.detections)

    def test_wave_stall_fires_and_rearms_after_commit(self):
        monitor = self.monitor()
        threshold = WAVE_STALL_INTERVALS * 0.05
        self.feed(monitor, [[sample_row(site=0, wave_age=threshold)]])
        assert monitor.ok  # at the threshold, not over it
        self.feed(monitor, [[sample_row(site=0, wave_age=threshold + 0.01)]])
        self.feed(monitor, [[sample_row(site=0, wave_age=threshold + 0.06)]])
        assert [d.detector for d in monitor.detections] == ["wave_stall"]
        # the wave commits (age back to 0), then a new wave stalls
        self.feed(monitor, [[sample_row(site=0, wave_age=0.0)]])
        self.feed(monitor, [[sample_row(site=0, wave_age=threshold + 0.01)]])
        assert [d.detector for d in monitor.detections] == ["wave_stall",
                                                            "wave_stall"]

    def test_recovery_wedged_needs_a_long_streak(self):
        monitor = self.monitor()
        recovering = lambda: sample_row(site=2, recovering=1)  # noqa: E731
        assert RECOVERY_WEDGED_INTERVALS == 8
        self.feed(monitor, [[recovering()]
                            for _ in range(RECOVERY_WEDGED_INTERVALS - 1)])
        assert monitor.ok
        self.feed(monitor, [[recovering()]])
        assert [d.detector for d in monitor.detections] == [
            "recovery_wedged"]

    def test_partition_suspect_fires_for_one_sided_traffic(self):
        monitor = self.monitor()
        deaf = lambda: sample_row(site=0, msgs_sent=5, msgs_recv=0)  # noqa: E731
        chatty = lambda: sample_row(site=1, msgs_sent=5, msgs_recv=5)  # noqa: E731
        self.feed(monitor, [[deaf(), chatty()]
                            for _ in range(STALL_INTERVALS - 1)])
        assert monitor.ok
        self.feed(monitor, [[deaf(), chatty()]])
        assert [d.detector for d in monitor.detections] == [
            "partition_suspect"]

    def test_detections_emit_health_events_into_the_sink(self):
        events = []
        monitor = HealthMonitor(0.05, emit=lambda *args: events.append(args))
        monitor.observe(0.05, [sample_row(site=3, wave_age=1.0)])
        assert len(events) == 1
        ts, site, kind, detector, _detail = events[0]
        assert (site, kind, detector) == (3, "health", "wave_stall")

    def test_verdict_counts_and_percentiles(self):
        monitor = self.monitor()
        self.feed(monitor, [[sample_row(site=0, queue=q)]
                            for q in (0, 1, 2, 50)])
        verdict = monitor.verdict()
        assert verdict["ok"] and verdict["ticks"] == 4
        assert set(verdict["by_detector"]) == set(DETECTORS)
        assert verdict["queue_p90"] <= 50.0
        assert "OK" in monitor.render()

    def test_analyze_log_uses_the_log_interval(self):
        log = MetricsLog(interval=0.5)
        threshold = WAVE_STALL_INTERVALS * 0.5
        log.append(sample_row(t=0.5, wave_age=threshold - 0.1))
        monitor = analyze_log(log)
        assert monitor.ok  # under the log-interval threshold
        log.append(sample_row(t=1.0, wave_age=threshold + 0.1))
        assert not analyze_log(log).ok


# ---------------------------------------------------------------------------
# flight dumps: the journal's last events per site


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        tracer = Tracer()
        for i in range(FLIGHT_DEPTH + 10):
            tracer.emit(float(i), 0, "msg_send", "X", 1, 0, i, -1, -1)
            tracer.emit(float(i), 1, "exec_end", i, 1.0)
        events = tracer.freeze(0, 1e3)["events"]
        assert len(events) == FLIGHT_DEPTH
        assert [e["ts"] for e in events] == [
            float(i) for i in range(10, FLIGHT_DEPTH + 10)]
        assert {e["site"] for e in events} == {0}

    def test_journal_is_not_ring_bounded(self):
        tracer = Tracer()
        for i in range(FLIGHT_DEPTH + 5):
            tracer.emit(float(i), 1, "exec_end", i, 1.0)
        tracer.freeze(1, 1e3)
        assert len(tracer) == FLIGHT_DEPTH + 5

    def test_record_crash_freezes_first_wins(self):
        tracer = Tracer()
        tracer.emit(1.0, 2, "exec_end", 7, 1.0)
        dump = tracer.freeze(2, 1.5)
        assert dump["reason"] == "crash" and dump["at"] == 1.5
        assert [e["kind"] for e in dump["events"]] == ["exec_end"]
        tracer.emit(2.0, 2, "exec_end", 8, 1.0)
        assert tracer.freeze(2, 2.5, "late") is None
        assert tracer.dumps[2]["at"] == 1.5  # evidence not overwritten
        assert len(tracer.dumps[2]["events"]) == 1

    def test_dump_all_skips_already_frozen_sites(self):
        tracer = Tracer()
        tracer.emit(0.1, 0, "exec_end", 1, 1.0)
        tracer.emit(0.2, 1, "exec_end", 2, 1.0)
        tracer.emit(0.2, -1, "chaos_fault", "crash", "site 1")
        tracer.freeze(0, 0.15)
        assert tracer.freeze_all(0.3, "invariant_violation") == 2
        assert tracer.dumps[0]["reason"] == "crash"
        assert tracer.dumps[1]["reason"] == "invariant_violation"
        assert tracer.dumps[-1]["reason"] == "invariant_violation"

    def test_write_dumps_to_disk(self, tmp_path):
        # a dump is plain JSON: written and read back, it is unchanged
        tracer = Tracer()
        tracer.emit(0.1, 3, "msg_send", "X", 1, 0, 1, -1, -1)
        dump = tracer.freeze(3, 0.2)
        path = tmp_path / "flight_site3.json"
        path.write_text(json.dumps(dump, indent=2, sort_keys=True))
        assert json.loads(path.read_text()) == dump


# ---------------------------------------------------------------------------
# the chaos acceptance scenarios


class TestChaosTelemetry:
    def test_wave_stall_plan_trips_the_detector(self):
        plan = FaultPlan.load(os.path.join(CORPUS_DIR, "wave_stall.json"))
        result = run_plan(plan, metrics_interval=0.02)
        assert result.ok  # the partition heals; the run itself is clean
        health = result.cluster.health
        stalls = [d for d in health.detections
                  if d.detector == "wave_stall"]
        assert stalls, f"no wave_stall among {health.detections}"
        # the stall is seen while the partition holds the wave open
        assert all(plan.faults[0].start < d.t for d in stalls)
        assert not health.ok

    def test_crash_plan_leaves_a_flight_dump(self):
        plan = FaultPlan.load(
            os.path.join(CORPUS_DIR, "crash_during_wave.json"))
        result = run_plan(plan)  # chaos runs always trace
        assert result.ok
        dumps = result.cluster.tracer.dumps
        crashed = plan.faults[0].site
        dump = dumps.get(crashed)
        assert dump is not None and dump["reason"] == "crash"
        assert dump["at"] == pytest.approx(plan.faults[0].at, abs=1e-6)
        assert len(dump["events"]) == FLIGHT_DEPTH
        # the evidence is the lead-up, never post-mortem noise
        assert all(event["ts"] <= dump["at"] for event in dump["events"])
        # sites that did not crash are not frozen
        assert set(dumps) == {crashed}
        assert sha256_json(dump) == CRASH_DUMP_SHA256

    def test_invariant_violation_freezes_every_ring(self):
        from repro.chaos.invariants import InvariantChecker
        cluster = SimCluster(nsites=2, config=SDVMConfig(trace=True))
        handle = cluster.submit(build_primes_program(),
                                args=(20, 4, 400.0, 4000.0))
        cluster.run()
        assert handle.result == first_n_primes(20)
        # lie about the expected result to force a violation
        checker = InvariantChecker(cluster, expect_complete=True,
                                   expected_results=[["wrong"]])
        violations = checker.check()
        assert violations
        dumps = cluster.tracer.dumps
        assert sorted(dumps) == [-1, 0, 1]  # -1: before sign-on
        assert all(d["reason"] == "invariant_violation"
                   and d["at"] == cluster.sim.now for d in dumps.values())
        assert sha256_json(dumps) == INVARIANT_DUMPS_SHA256


# ---------------------------------------------------------------------------
# live runtime parity


class TestLiveTelemetry:
    def test_live_kernel_wall_clock_metrics(self):
        config = SDVMConfig(metrics_interval=0.01)
        with LiveCluster(nsites=2, config=config) as cluster:
            assert cluster.run(fanout_program(), args=(6,)) == sum(
                i * i for i in range(6))
            wall = cluster.wall_clock_metrics()
            assert wall["wall_seconds"] > 0
            assert wall["events_executed"] > 0
            assert wall["events_per_sec"] > 0
        # shutdown joins the sampler thread, then takes one last sample
        assert not cluster._sampler_thread.is_alive()
        rows = list(cluster.metrics.rows)
        assert rows
        validate_metrics(cluster.metrics.header(), rows)

    def test_run_shorter_than_the_interval_gets_one_row_per_site(self):
        config = SDVMConfig(metrics_interval=60.0)
        with LiveCluster(nsites=2, config=config) as cluster:
            cluster.run(fanout_program(), args=(6,))
        rows = cluster.metrics.rows
        assert sorted(row["site"] for row in rows) == [0, 1]
        # taken while the sites still run; the horizon ends once they stop
        assert all(row["alive"] == 1 for row in rows)
        assert len({row["t"] for row in rows}) == 1
        assert all(0.0 < row["t"] <= cluster.horizon for row in rows)

    def test_live_horizon_is_the_time_since_the_build(self):
        start = time.monotonic()
        with LiveCluster(nsites=2, config=SDVMConfig(trace=True)) as cluster:
            cluster.run(fanout_program(), args=(6,))
        elapsed = time.monotonic() - start
        horizon = cluster.cluster_report().horizon
        assert 0.0 < horizon <= elapsed
        assert cluster.horizon == horizon  # frozen at shutdown
        assert blame_cluster(cluster).cluster_seconds == pytest.approx(
            2 * horizon)

    def test_both_facades_expose_the_same_reports(self):
        reports = ("cluster_report", "write_chrome_trace", "total_stats",
                   "accounting_report", "invoices", "energy_report",
                   "wall_clock_metrics", "horizon")
        for name in reports:
            assert hasattr(SimCluster, name) and hasattr(LiveCluster, name)
        # the simulator, its CPU model and its network stay the sim's
        for name in ("sim", "cpu_report", "network_stats"):
            assert not hasattr(LiveCluster, name)
        with LiveCluster(nsites=2) as cluster:
            cluster.run(fanout_program(), args=(6,))
        assert not hasattr(cluster, "sim")
        # main, six workers, collect
        assert cluster.total_stats().get("executions").count == 8
        report = cluster.cluster_report()
        assert report.nsites == 2 and report.derived["executions"] == 8
        assert "fanout" in cluster.accounting_report()
        assert cluster.wall_clock_metrics()["wall_seconds"] == cluster.horizon

    def test_traced_live_crash_dump_is_the_sites_journal_tail(self):
        with LiveCluster(nsites=2, config=SDVMConfig(trace=True)) as cluster:
            cluster.run(fanout_program(), args=(6,))
            site_id = cluster.sites[1].site_id
            cluster.crash_site(1)
        events = cluster.tracer.dumps[site_id]["events"]
        assert events and cluster.tracer.dumps[site_id]["reason"] == "crash"
        # the site's last events in emission order, up to the freeze (its
        # reactor may still emit while it goes down)
        journal = [TracerEvent(*raw).as_dict()
                   for raw in cluster.tracer._raw if raw[1] == site_id]
        assert any(journal[max(0, k - FLIGHT_DEPTH):k] == events
                   for k in range(len(events), len(journal) + 1))


@pytest.fixture(scope="module")
def traced_live_primes():
    """A traced 2-site live primes(10, 4) run, and the monotonic instant
    before its build."""
    start = time.monotonic()
    with LiveCluster(nsites=2, config=SDVMConfig(trace=True)) as cluster:
        assert cluster.run(build_primes_program(),
                           args=(10, 4, 400.0, 4000.0)) == first_n_primes(10)
    return cluster, start


class TestLiveReportsShareTheRunsClock:
    """A live cluster's journal, horizon and reports count the same wall
    seconds since the build, so the sim's reports mean the same live."""

    def test_every_journal_stamp_lies_inside_the_horizon(
            self, traced_live_primes):
        cluster, _start = traced_live_primes
        horizon = cluster.horizon
        stamps = [event.ts for event in cluster.tracer.events]
        assert stamps and all(0.0 <= ts <= horizon for ts in stamps)

    def test_blame_sums_to_the_horizon_with_waits(self, traced_live_primes):
        cluster, _start = traced_live_primes
        report = blame_cluster(cluster)
        assert sum(report.totals.values()) == pytest.approx(
            2 * cluster.horizon, rel=0.01)
        # the live kernel models no CPU
        assert report.totals["compute"] == report.totals["protocol"] == 0.0
        assert any(report.totals[category] > 0.0 for category in
                   ("steal-wait", "code-fetch", "message-latency"))

    def test_energy_idle_is_at_most_the_run_so_far(self, traced_live_primes):
        cluster, start = traced_live_primes
        energy = cluster.energy_report()
        elapsed = time.monotonic() - start
        assert sorted(energy) == [0, 1]
        assert all(0.0 < row["idle_s"] <= elapsed for row in energy.values())

    def test_timeline_renders(self, traced_live_primes):
        cluster, _start = traced_live_primes
        rendered = Timeline.from_cluster(cluster).render(width=40)
        assert rendered.startswith(f"timeline 0 .. {cluster.horizon:.3f}s")
        assert "site0" in rendered and "#" in rendered


# ---------------------------------------------------------------------------
# bench trace-dir retention


class TestTraceDirRetention:
    def make_run(self, dirpath, stem, mtime):
        for suffix in (".trace.json", ".stats.txt"):
            path = os.path.join(dirpath, stem + suffix)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{}")
            os.utime(path, (mtime, mtime))

    def test_prunes_oldest_run_groups_whole(self, tmp_path):
        from repro.bench.harness import _prune_trace_dir
        for index in range(5):
            self.make_run(str(tmp_path), f"run{index}", 1000.0 + index)
        removed = _prune_trace_dir(str(tmp_path), keep=2)
        assert sorted(os.path.basename(p) for p in removed) == [
            "run0.stats.txt", "run0.trace.json",
            "run1.stats.txt", "run1.trace.json",
            "run2.stats.txt", "run2.trace.json"]
        survivors = sorted(os.listdir(str(tmp_path)))
        assert survivors == ["run3.stats.txt", "run3.trace.json",
                             "run4.stats.txt", "run4.trace.json"]

    def test_under_limit_and_disabled_are_no_ops(self, tmp_path):
        from repro.bench.harness import _prune_trace_dir
        self.make_run(str(tmp_path), "only", 1000.0)
        assert _prune_trace_dir(str(tmp_path), keep=5) == []
        assert _prune_trace_dir(str(tmp_path), keep=0) == []
        assert _prune_trace_dir(str(tmp_path / "missing"), keep=2) == []
        assert len(os.listdir(str(tmp_path))) == 2
