"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import APPS, _coerce_args, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestApps:
    def test_lists_all(self):
        code, text = run_cli("apps")
        assert code == 0
        for name in APPS:
            assert name in text


class TestCoercion:
    def test_types_follow_defaults(self):
        assert _coerce_args(["7", "2.5"], (1, 1.0, 3)) == (7, 2.5, 3)

    def test_padding_with_defaults(self):
        assert _coerce_args([], (1, 2)) == (1, 2)


class TestRun:
    def test_run_primes(self):
        code, text = run_cli("run", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000")
        assert code == 0
        assert "result: [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]" in text
        assert "virtual time" in text

    def test_run_matmul_default_args(self):
        code, text = run_cli("run", "matmul", "--sites", "2")
        assert code == 0
        assert "executions" in text

    def test_run_with_trace(self):
        code, text = run_cli("run", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--trace")
        assert code == 0
        assert "timeline" in text
        assert "#" in text

    def test_run_with_invoice(self):
        code, text = run_cli("run", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--invoice")
        assert code == 0
        assert "primes" in text
        assert "cost" in text

    def test_run_encrypted(self):
        code, text = run_cli("run", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--encrypt")
        assert code == 0

    def test_unknown_app(self):
        code, text = run_cli("run", "doom")
        assert code == 2
        assert "unknown app" in text


class TestTraceAndStats:
    def test_trace_exports_valid_artifact(self, tmp_path):
        from repro.trace import validate_chrome_trace
        out = tmp_path / "primes.trace.json"
        code, text = run_cli("trace", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--out", str(out))
        assert code == 0
        assert "perfetto" in text
        report = validate_chrome_trace(str(out))
        assert report["slices"] > 0

    def test_stats_prints_cluster_report(self):
        code, text = run_cli("stats", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000")
        assert code == 0
        assert "derived metrics" in text
        assert "steal_success_rate" in text
        assert "messages by type" in text

    def test_stats_prices_the_memory_protocol(self):
        """``repro stats`` prints what an allocation and a remote read
        cost in messages, next to the messages per execution; a program
        with no memory objects reads 0, not a division error."""
        def derived(*argv):
            code, text = run_cli("stats", *argv)
            assert code == 0
            rows = (line.split() for line in text.splitlines())
            return {row[0]: float(row[1]) for row in rows
                    if len(row) == 2 and row[0] in (
                        "msgs_per_exec", "dir_updates_per_alloc",
                        "msgs_per_remote_read")}

        # 16 allocations send nothing; 7 first migrations away from the
        # homesite are a MEM_READ and its reply each — what the live
        # kernel pays, because it is the same protocol
        assert derived("memstress", "--sites", "3", "--args", "16", "50") \
            == {"msgs_per_exec": pytest.approx(58 / 33, abs=1e-3),
                "dir_updates_per_alloc": 0.0, "msgs_per_remote_read": 2.0}
        # primes read 49 / 57 until a code reply stopped carrying its
        # thread's metadata: the same seven code messages are 1.6 kB
        # smaller, the run steals differently (HELP_REQUEST 5 -> 8,
        # grants 4 -> 6, refusals 1 -> 2: HELP_REPLY 5 -> 8 since the
        # refusal is a HELP_REPLY without frames), sends one more
        # APPLY_RESULT and runs two more executions
        assert derived("primes", "--sites", "2",
                       "--args", "10", "4", "200", "2000") \
            == {"msgs_per_exec": pytest.approx(56 / 59, abs=1e-3),
                "dir_updates_per_alloc": 0.0, "msgs_per_remote_read": 0.0}

    def test_trace_unknown_app(self):
        code, text = run_cli("trace", "doom")
        assert code == 2
        assert "unknown app" in text


class TestBlameAndCriticalPath:
    def test_blame_report_round_trip(self, tmp_path):
        import json
        dump = tmp_path / "blame.json"
        code, text = run_cli("blame", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--json", str(dump))
        assert code == 0
        assert "time attribution" in text
        assert "speedup: measured" in text
        doc = json.loads(dump.read_text())
        assert doc["nsites"] == 2
        assert "steal-wait" in doc["totals"]

    def test_blame_unknown_app(self):
        code, text = run_cli("blame", "doom")
        assert code == 2
        assert "unknown app" in text

    def test_critical_path_lists_segments(self):
        code, text = run_cli("critical-path", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000")
        assert code == 0
        assert "critical path" in text
        assert "segments:" in text
        assert "compute" in text

    def test_critical_path_summary_only(self):
        code, text = run_cli("critical-path", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--summary")
        assert code == 0
        assert "segments:" not in text

    def test_critical_path_unknown_app(self):
        code, _text = run_cli("critical-path", "doom")
        assert code == 2


class TestBenchGate:
    def _write_baseline(self, directory, metrics, tolerances=None):
        from repro.bench import write_bench_json
        return write_bench_json(str(directory), "fake", metrics,
                                tolerances=tolerances)

    def _patch_fake_suite(self, monkeypatch, metrics):
        import repro.bench
        import repro.bench.suites as suites
        fake = {"fake": lambda: (dict(metrics), {"loose": 0.5}, {})}
        monkeypatch.setattr(suites, "GATE_SUITES", fake)
        monkeypatch.setattr(repro.bench, "GATE_SUITES", fake)

    def test_check_passes_on_matching_baseline(self, tmp_path,
                                               monkeypatch):
        metrics = {"t": 1.0, "loose": 2.0}
        self._patch_fake_suite(monkeypatch, metrics)
        self._write_baseline(tmp_path / "base", metrics, {"loose": 0.5})
        code, text = run_cli("bench", "--check",
                             "--out", str(tmp_path / "results"),
                             "--baselines", str(tmp_path / "base"))
        assert code == 0
        assert "bench gate PASSED" in text
        assert (tmp_path / "results" / "BENCH_fake.json").exists()

    def test_check_fails_on_regression(self, tmp_path, monkeypatch):
        self._patch_fake_suite(monkeypatch, {"t": 2.0, "loose": 2.0})
        self._write_baseline(tmp_path / "base", {"t": 1.0, "loose": 2.0})
        code, text = run_cli("bench", "--check",
                             "--out", str(tmp_path / "results"),
                             "--baselines", str(tmp_path / "base"))
        assert code == 1
        assert "bench gate FAILED" in text
        assert "t " in text or "t\t" in text or " t " in f" {text} "

    def test_check_fails_without_baseline(self, tmp_path, monkeypatch):
        self._patch_fake_suite(monkeypatch, {"t": 1.0})
        code, text = run_cli("bench", "--check",
                             "--out", str(tmp_path / "results"),
                             "--baselines", str(tmp_path / "missing"))
        assert code == 1
        assert "no baseline" in text

    def test_update_baselines_writes_to_baseline_dir(self, tmp_path,
                                                     monkeypatch):
        self._patch_fake_suite(monkeypatch, {"t": 1.0})
        code, _text = run_cli("bench", "--update-baselines",
                              "--out", str(tmp_path / "results"),
                              "--baselines", str(tmp_path / "base"))
        assert code == 0
        assert (tmp_path / "base" / "BENCH_fake.json").exists()
        assert not (tmp_path / "results").exists()

    def test_unknown_suite_rejected(self, tmp_path):
        code, text = run_cli("bench", "--suites", "nonesuch",
                             "--out", str(tmp_path))
        assert code == 2
        assert "unknown suite" in text

    def test_suite_meta_lands_in_artifact(self, tmp_path, monkeypatch):
        import json

        import repro.bench
        import repro.bench.suites as suites
        fake = {"fake": lambda: ({"t": 1.0}, {},
                                 {"events_per_sec": 12345.0})}
        monkeypatch.setattr(suites, "GATE_SUITES", fake)
        monkeypatch.setattr(repro.bench, "GATE_SUITES", fake)
        code, _text = run_cli("bench", "--out", str(tmp_path / "results"))
        assert code == 0
        doc = json.loads(
            (tmp_path / "results" / "BENCH_fake.json").read_text())
        assert doc["meta"]["events_per_sec"] == 12345.0
        assert "events_per_sec" not in doc["metrics"]

    def test_real_suites_report_wall_clock_meta(self):
        from repro.bench import GATE_SUITES
        metrics, _tolerances, meta = GATE_SUITES["overhead_1site"]()
        assert meta["wall_seconds"] > 0.0
        assert meta["events_per_sec"] > 0.0
        # informational only: wall figures must never be gated metrics
        assert "events_per_sec" not in metrics
        assert "wall_seconds" not in metrics


class TestProfile:
    def test_profile_primes(self):
        code, text = run_cli("profile", "primes", "--sites", "2",
                             "--args", "20", "6", "--top", "5")
        assert code == 0
        assert "events/sec" in text
        assert "msgs/sec" in text
        assert "cumtime" in text  # pstats table present

    def test_profile_dump_stats(self, tmp_path):
        out_path = tmp_path / "primes.pstats"
        code, text = run_cli("profile", "primes", "--sites", "1",
                             "--args", "20", "6", "--sort", "tottime",
                             "--out-stats", str(out_path))
        assert code == 0
        assert out_path.exists()
        import pstats
        pstats.Stats(str(out_path))  # parseable

    def test_profile_unknown_app(self):
        code, text = run_cli("profile", "nonesuch")
        assert code == 2
        assert "unknown app" in text


class TestTable1:
    def test_unknown_row_rejected(self):
        code, text = run_cli("table1", "--p", "123")
        assert code == 2
        assert "no paper row" in text

    @pytest.mark.slow
    def test_row_p100(self):
        code, text = run_cli("table1", "--p", "100")
        assert code == 0
        assert "measured" in text and "paper" in text


class TestHealthTop:
    def metrics_file(self, tmp_path, name="run.metrics.jsonl"):
        path = tmp_path / name
        code, text = run_cli("run", "primes", "--sites", "2",
                             "--args", "10", "4", "200", "2000",
                             "--metrics-json", str(path))
        assert code == 0
        assert "metric samples" in text
        assert path.exists()
        return str(path)

    def test_run_health_round_trip(self, tmp_path):
        path = self.metrics_file(tmp_path)
        code, text = run_cli("health", path)
        assert code == 0
        assert "health: OK" in text
        assert "queue p50/p90" in text

    def test_top_renders_tables(self, tmp_path):
        path = self.metrics_file(tmp_path)
        code, text = run_cli("top", path, "--key", "busy_frac",
                             "--last", "3")
        assert code == 0
        assert "site  samples" in text
        assert "busy_frac per site" in text

    def test_top_unknown_key(self, tmp_path):
        path = self.metrics_file(tmp_path)
        code, text = run_cli("top", path, "--key", "bogus")
        assert code == 2
        assert "unknown metrics field" in text

    def test_health_missing_file(self, tmp_path):
        code, text = run_cli("health", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no metrics file" in text

    def test_health_invalid_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "wrong/9"}\n')
        code, text = run_cli("health", str(path))
        assert code == 2
        assert "invalid metrics file" in text

    def test_health_flags_a_stalled_run(self, tmp_path):
        # hand-craft a document where site 0 goes idle while site 1
        # hoards a backlog: the idle_stall detector must fire -> exit 1
        import json as _json

        from repro.trace import MetricsLog

        log = MetricsLog(interval=0.05, nsites=2)
        header = log.header()
        rows = []
        for tick in range(1, 6):
            t = tick * 0.05
            base = {name: 0 for name in header["fields"]}
            idle = dict(base, t=t, site=0, alive=1)
            busy = dict(base, t=t, site=1, alive=1, queue=12,
                        in_flight=1, busy_frac=1.0)
            rows.extend([idle, busy])
        path = tmp_path / "stalled.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json.dumps(header) + "\n")
            for row in rows:
                fh.write(_json.dumps(row) + "\n")
        code, text = run_cli("health", str(path))
        assert code == 1
        assert "idle_stall" in text
        assert "ANOMALOUS" in text
