"""Tests for the structured tracer, the Chrome exporter, and the
cluster-wide metrics aggregator."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.common.errors import SDVMError
from repro.site.simcluster import SimCluster
from repro.trace import (
    EVENT_FIELDS,
    Tracer,
    TracerEvent,
    aggregate_cluster,
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture
def traced_run(fast_config):
    """A finished primes run with structured tracing on."""
    cluster = SimCluster(nsites=3, config=fast_config.with_(trace=True))
    handle = cluster.submit(build_primes_program(),
                            args=(25, 6, 400.0, 4000.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == first_n_primes(25)
    return cluster, handle


class TestTracerUnit:
    def test_emit_and_read_back(self):
        tracer = Tracer()
        tracer.emit(0.5, 2, "steals_in", 1, 0x20001)
        tracer.emit(0.2, 0, "help_sent", 2)
        assert len(tracer) == 2
        # the events property sorts the cluster-wide stream by (ts, site)
        assert [e.kind for e in tracer.events] == ["help_sent", "steals_in"]
        event = tracer.events[1]
        assert isinstance(event, TracerEvent)
        assert event.as_dict() == {"ts": 0.5, "site": 2, "kind": "steals_in",
                                   "victim": 1, "frame": 0x20001}

    def test_select_and_kinds(self):
        tracer = Tracer()
        tracer.emit(0.1, 0, "site_join", 0)
        tracer.emit(0.2, 1, "site_join", 1)
        tracer.emit(0.3, 1, "site_sleep")
        assert tracer.kinds() == {"site_join": 2, "site_sleep": 1}
        assert len(tracer.select(kind="site_join")) == 2
        assert len(tracer.select(kind="site_join", site=1)) == 1
        assert tracer.select(site=1)[-1].kind == "site_sleep"

    def test_select_equals_filtering_events_on_an_out_of_order_journal(
            self):
        """A live kernel's reactor threads append out of time order, and
        events at one (ts, site) keep their append order.  ``select``
        filters before it sorts; every answer must still be the filter of
        the sorted stream, entry for entry."""
        tracer = Tracer()
        kinds = ("wave_begin", "wave_commit", "site_sleep", "site_wake")
        for n in range(60):
            kind = kinds[(n * 7) % 4]
            fields = () if kind.startswith("site_") else (n, 3)
            tracer.emit(((n * 37) % 11) * 0.125, (n * 5) % 3, kind, *fields)
        # the reference: wrap and sort the whole journal, then filter
        events = sorted((TracerEvent(*raw) for raw in tracer._raw),
                        key=lambda e: (e.ts, e.site))
        assert tracer.events == events

        def old(kind=None, site=None):
            return [e for e in events
                    if (kind is None or e.kind == kind)
                    and (site is None or e.site == site)]

        for kind in kinds:
            assert tracer.select(kind) == old(kind) != []
            for site in range(3):
                assert tracer.select(kind, site=site) == old(kind, site)
        for site in range(3):
            assert tracer.select(site=site) == old(site=site) != []
        pair = {"wave_begin", "site_wake"}
        assert tracer.select(pair) == [e for e in events if e.kind in pair]
        assert tracer.select(frozenset(pair), site=2) \
            == [e for e in events if e.kind in pair and e.site == 2]
        assert tracer.select(["no_such_kind"]) == []

    def test_validate_rejects_unknown_kind(self):
        tracer = Tracer()
        tracer.emit(0.0, 0, "warp_core_breach")
        with pytest.raises(SDVMError, match="unknown"):
            tracer.validate()

    def test_validate_rejects_arity_mismatch(self):
        tracer = Tracer()
        tracer.emit(0.0, 0, "steals_in", 1)  # schema wants (victim, frame)
        with pytest.raises(SDVMError, match="fields"):
            tracer.validate()

    def test_validate_rejects_bad_ts_and_site(self):
        bad_ts = Tracer()
        bad_ts.emit("soon", 0, "site_sleep")
        with pytest.raises(SDVMError, match="ts"):
            bad_ts.validate()
        bad_site = Tracer()
        bad_site.emit(0.0, "zero", "site_sleep")
        with pytest.raises(SDVMError, match="site"):
            bad_site.validate()

    def test_schema_field_names_unique_per_kind(self):
        for kind, names in EVENT_FIELDS.items():
            assert len(names) == len(set(names)), kind


class TestClusterTracing:
    def test_disabled_by_default(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        assert cluster.tracer is None
        for site in cluster.sites:
            assert site.tracer is None
            for manager in site.managers.values():
                assert manager.tracer is None

    def test_all_managers_share_the_cluster_tracer(self, traced_run):
        cluster, _handle = traced_run
        assert cluster.tracer is not None
        for site in cluster.sites:
            for manager in site.managers.values():
                assert manager.tracer is cluster.tracer

    def test_events_validate_and_cover_the_lifecycle(self, traced_run):
        cluster, _handle = traced_run
        tracer = cluster.tracer
        tracer.validate()
        kinds = tracer.kinds()
        for expected in ("frame_enqueued", "exec_begin", "exec_end",
                         "help_sent", "steals_in", "steal_out",
                         "code_hit", "code_compile", "msg_send", "msg_recv",
                         "site_join", "program_register", "program_exit",
                         "io_output"):
            assert kinds[expected] > 0, expected

    def test_exec_events_match_stats(self, traced_run):
        cluster, _handle = traced_run
        stats = cluster.total_stats()
        ends = cluster.tracer.select(kind="exec_end")
        assert len(ends) == stats.get("executions").count
        assert (sum(e.fields[1] for e in ends)
                == pytest.approx(stats.get("work_units").total))

    def test_tracing_does_not_perturb_determinism(self, fast_config):
        outcomes = []
        for trace in (False, True):
            cluster = SimCluster(nsites=3,
                                 config=fast_config.with_(trace=trace))
            handle = cluster.submit(build_primes_program(),
                                    args=(25, 6, 400.0, 4000.0))
            cluster.run(progress_timeout=120.0)
            stats = cluster.total_stats()
            outcomes.append((handle.result, handle.duration,
                             stats.get("executions").count,
                             stats.get("sent").count,
                             stats.get("steals_in").count))
        assert outcomes[0] == outcomes[1]


class TestChromeExporter:
    def test_empty_tracer_exports_empty_doc(self):
        assert to_chrome(Tracer()) == {"traceEvents": [],
                                       "displayTimeUnit": "ms"}

    def test_artifact_round_trip(self, traced_run, tmp_path):
        cluster, _handle = traced_run
        path = tmp_path / "primes.trace.json"
        count = cluster.write_chrome_trace(str(path))
        assert count > 0
        report = validate_chrome_trace(str(path))
        assert report["events"] == count
        assert report["slices"] > 0       # executions became "X" slices
        assert report["instants"] > 0
        # every execution produces exactly one slice (plus wave slices and
        # any still-open slices closed at the horizon)
        execs = cluster.total_stats().get("executions").count
        assert report["slices"] >= execs

    def test_checkpoint_waves_become_one_slice_each(self, tmp_path):
        """A wave's begin and its commit or abort export as one ``X``
        slice on the checkpoint lane of the coordinator."""
        from repro.chaos import FaultPlan, run_plan
        from repro.trace.chrome import CHECKPOINT_LANE
        plan = FaultPlan.load(str(pathlib.Path(__file__).parent
                                  / "chaos_corpus" / "crash_during_wave.json"))
        cluster = run_plan(plan).cluster
        kinds = cluster.tracer.kinds()
        assert kinds["wave_commit"] >= 1 and kinds["wave_abort"] >= 1
        path = tmp_path / "waves.trace.json"
        cluster.write_chrome_trace(str(path))
        validate_chrome_trace(str(path))
        waves = [e for e in json.loads(path.read_text())["traceEvents"]
                 if e.get("cat") == "checkpoint"]
        assert len(waves) == kinds["wave_commit"] + kinds["wave_abort"]
        assert all(e["ph"] == "X" and e["tid"] == CHECKPOINT_LANE
                   for e in waves)
        aborted = [e for e in waves if e["name"].endswith("(aborted)")]
        assert len(aborted) == kinds["wave_abort"]

    def test_site_names_in_metadata(self, traced_run, tmp_path):
        cluster, _handle = traced_run
        path = tmp_path / "named.trace.json"
        cluster.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert len(meta) >= 3
        assert all(e["args"]["name"] for e in meta)

    def test_validator_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "ts": 5.0, "dur": 1.0},
            {"ph": "X", "ts": 1.0, "dur": 1.0},  # ts goes backwards
        ]}))
        with pytest.raises(SDVMError, match="monotonic"):
            validate_chrome_trace(str(path))

    def test_write_chrome_trace_requires_tracing(self, fast_config,
                                                 tmp_path):
        cluster = SimCluster(nsites=1, config=fast_config)
        with pytest.raises(SDVMError, match="trace"):
            cluster.write_chrome_trace(str(tmp_path / "nope.json"))


class TestAggregator:
    def test_report_matches_total_stats(self, traced_run):
        cluster, handle = traced_run
        report = cluster.cluster_report()
        stats = cluster.total_stats()
        assert report.nsites == 3
        assert report.horizon >= handle.duration
        assert report.derived["executions"] == stats.get("executions").count
        assert (report.derived["work_units"]
                == pytest.approx(stats.get("work_units").total))
        assert 0.0 <= report.derived["steal_success_rate"] <= 1.0
        assert 0.0 < report.derived["code_hit_rate"] <= 1.0
        assert 0.0 < report.derived["busy_fraction_mean"] <= 1.0

    def test_message_breakdown_accounts_for_every_send(self, traced_run):
        cluster, _handle = traced_run
        report = cluster.cluster_report()
        sends = cluster.tracer.select(kind="msg_send")
        assert sum(int(row["count"])
                   for row in report.message_breakdown.values()) == len(sends)
        assert all(row["bytes"] > 0
                   for row in report.message_breakdown.values())

    def test_render_and_as_dict(self, traced_run):
        cluster, _handle = traced_run
        report = cluster.cluster_report()
        text = report.render(top=8)
        assert "derived metrics" in text
        assert "messages by type" in text
        doc = report.as_dict()
        json.dumps(doc)  # must be JSON-serialisable as-is
        assert doc["nsites"] == 3

    def test_aggregate_without_tracer(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(10, 4, 200.0, 2000.0))
        cluster.run(progress_timeout=60.0)
        assert handle.result == first_n_primes(10)
        report = aggregate_cluster(cluster)
        assert report.message_breakdown == {}
        assert report.derived["executions"] > 0


class TestBenchArtifacts:
    def test_trace_dir_smoke(self, monkeypatch, tmp_path):
        """The trace-dir path: run one benchmark with SDVM_TRACE_DIR set and
        validate the dumped artifact."""
        from repro.bench import harness
        monkeypatch.setattr(harness, "TRACE_DIR", str(tmp_path))
        duration, cluster = harness.run_primes(10, 4, 2, 200.0, 2000.0)
        assert duration > 0
        trace_path = tmp_path / "primes_p10_w4_s2.trace.json"
        stats_path = tmp_path / "primes_p10_w4_s2.stats.txt"
        assert trace_path.exists() and stats_path.exists()
        report = validate_chrome_trace(str(trace_path))
        assert report["slices"] > 0
        assert "derived metrics" in stats_path.read_text()

    def test_dump_is_noop_without_trace_dir(self, monkeypatch, tmp_path):
        from repro.bench import harness
        monkeypatch.setattr(harness, "TRACE_DIR", "")
        _duration, cluster = harness.run_primes(10, 4, 2, 200.0, 2000.0)
        assert cluster.tracer is None
        assert harness.dump_trace_artifact(cluster, "nope") is None
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# one ledger: a fact is counted and journaled by one call under one name

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
#: kinds emitted straight to the tracer, without a same-named counter
_DIRECT_KINDS = ("chaos_fault", "health")
_BUMP = re.compile(
    r'(?:stats\.(?:inc|add|observe|set_gauge)|\.note)\(\s*"([a-z_0-9]+)"')
#: a bump on any StatSet, a test's own included
_OWN_BUMP = re.compile(r'\.(?:inc|add|observe|set_gauge)\(\s*"([a-z_0-9]+)"')


def _ledger_runs():
    from repro.apps import build_memstress_program
    from repro.chaos import FaultPlan, run_plan
    from repro.common.config import SDVMConfig
    corpus = pathlib.Path(__file__).resolve().parent / "chaos_corpus"
    runs = {}
    for name, program, args in (
            ("primes", build_primes_program(), (25, 6, 400.0, 4000.0)),
            ("memstress", build_memstress_program(), (32, 50.0))):
        cluster = SimCluster(nsites=3, config=SDVMConfig(trace=True))
        cluster.submit(program, args=args)
        cluster.run(progress_timeout=120.0)
        runs[name] = cluster
    for plan in ("crash_during_wave", "sdc_detected"):
        result = run_plan(FaultPlan.load(str(corpus / f"{plan}.json")))
        assert result.ok, result.violations
        runs[plan] = result.cluster
    return runs


class TestOneLedger:
    def test_every_journaled_kind_equals_its_counter(self):
        for name, cluster in _ledger_runs().items():
            stats = cluster.total_stats()
            kinds = cluster.tracer.kinds()
            noted = [kind for kind in kinds
                     if not kind.startswith("msg_")
                     and kind not in _DIRECT_KINDS]
            assert "exec_end" in noted, name
            for kind in noted:
                assert stats.get(kind).count == kinds[kind], (name, kind)

    def test_managers_record_facts_only_through_note(self):
        emits = {}
        bumped_kinds = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            text = path.read_text()
            count = len(re.findall(r"\.emit\(", text))
            if count and not rel.startswith(("trace/", "chaos/")):
                emits[rel] = count
            bumped_kinds += [
                (rel, name) for name in re.findall(
                    r'stats\.(?:inc|add)\(\s*"([a-z_0-9]+)"', text)
                if name in EVENT_FIELDS]
        # Manager.note's one emit, and msg_send / msg_recv / msg_local
        assert emits == {"site/manager_base.py": 1,
                         "site/message_manager.py": 3}
        assert bumped_kinds == []

    def test_every_counter_has_a_reader(self):
        bumped = set()
        for path in SRC.rglob("*.py"):
            bumped.update(_BUMP.findall(path.read_text()))
        repo = SRC.parent.parent
        tests = list((repo / "tests").rglob("*.py"))
        readers = [*tests,
                   *(repo / "benchmarks").rglob("*.py"),
                   *(SRC / "trace").rglob("*.py"),
                   *(SRC / "bench").rglob("*.py"),
                   SRC / "cli.py", SRC / "site" / "facade.py"]
        texts = {path: "\n".join(line
                                 for line in path.read_text().splitlines()
                                 if not _BUMP.search(line))
                 for path in readers}
        # a name a test bumps on a StatSet of its own (``s.observe("x")``)
        # is read back from that StatSet, not from a manager's
        own = {path: set(_OWN_BUMP.findall(path.read_text()))
               for path in tests}
        unread = sorted(
            name for name in bumped
            if not any(
                name not in own.get(path, ()) and re.search(
                    rf"\b{name}(_peak|_p50|_p95|_max|_mean)?\b", text)
                for path, text in texts.items()))
        assert unread == []
