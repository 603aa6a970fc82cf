"""Tests for the multicore sweep orchestrator (repro.bench.sweep)."""

from __future__ import annotations

import io
import json

import pytest

from repro.bench.sweep import (
    SWEEP_SCHEMA,
    make_point,
    point_label,
    run_point,
    run_sweep,
    stable_row,
    write_sweep_json,
)
from repro.common.errors import SDVMError

#: tiny workloads — every sweep in this file finishes in well under a
#: second per point
_TREESUM = dict(leaves=32, scale=200.0)


def _points():
    return [make_point("treesum", nsites=1, seed=0, **_TREESUM),
            make_point("treesum", nsites=2, seed=0, **_TREESUM)]


class TestPoints:
    def test_unknown_app_rejected(self):
        with pytest.raises(SDVMError):
            make_point("quicksort")

    def test_unknown_param_rejected(self):
        with pytest.raises(SDVMError):
            make_point("treesum", sieve=3)

    def test_label_stable(self):
        point = make_point("treesum", nsites=8, seed=3, leaves=64,
                           gossip_interval=0.01)
        assert point_label(point) == "treesum/l64/s8/seed3/g0.01"

    def test_primes_label(self):
        assert point_label(make_point("primes", nsites=2, p=20,
                                      width=4)) == "primes/p20w4/s2/seed0"


class TestRunPoint:
    def test_ok_row_shape(self):
        row = run_point(make_point("treesum", nsites=2, **_TREESUM))
        assert row["status"] == "ok"
        assert row["error"] is None
        assert row["virtual_duration"] > 0
        assert row["events"] > 0
        assert len(row["fingerprint"]) == 64
        assert row["metrics"]
        assert row["meta"]["wall_seconds"] >= 0

    def test_failed_run_isolated(self):
        """A broken point lands in its row; siblings still complete."""
        bad = make_point("treesum", nsites=1, leaves=32, scale=-5.0)
        report = run_sweep([_points()[0], bad], workers=1)
        assert report["ok"] is False
        statuses = [row["status"] for row in report["rows"]]
        assert statuses == ["ok", "error"]
        assert "SDVMError" in report["rows"][1]["error"]
        assert report["failures"] == [point_label(bad)]

    def test_deterministic_row(self):
        point = make_point("treesum", nsites=2, **_TREESUM)
        assert stable_row(run_point(point)) == stable_row(run_point(point))


class TestRunSweep:
    def test_worker_count_independence(self):
        """Same configs -> same stable rows on 1 worker and on N."""
        seq = run_sweep(_points(), workers=1)
        par = run_sweep(_points(), workers=2)
        assert [stable_row(r) for r in seq["rows"]] == \
            [stable_row(r) for r in par["rows"]]
        assert seq["ok"] and par["ok"]

    def test_selfcheck_passes_on_deterministic_runs(self):
        report = run_sweep(_points(), workers=2, selfcheck=True)
        assert report["ok"] is True
        assert report["determinism"] == {"checked": 2, "mismatches": []}

    def test_schema_and_report_shape(self, tmp_path):
        report = run_sweep(_points()[:1], workers=1)
        assert report["schema"] == SWEEP_SCHEMA
        assert report["points"] == 1
        path = write_sweep_json(str(tmp_path / "sweep.json"), report)
        loaded = json.loads(open(path, encoding="utf-8").read())
        assert loaded["schema"] == SWEEP_SCHEMA
        assert loaded["rows"][0]["fingerprint"] == \
            report["rows"][0]["fingerprint"]

    def test_invalid_point_rejected(self):
        with pytest.raises(SDVMError):
            run_sweep([{"nsites": 2}], workers=1)


class TestSweepCli:
    def _main(self, argv):
        from repro.cli import main
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_round_trip_ok(self, tmp_path):
        out_path = str(tmp_path / "report.json")
        for leaves, scale in (("32", "200"), ("64", "500")):
            code, text = self._main(
                ["sweep", "--sites", "1,2", "--seeds", "0",
                 "--leaves", leaves, "--scale", scale, "--workers", "2",
                 "--selfcheck", "--out", out_path])
            assert code == 0, text
            assert "sweep ok" in text
            report = json.loads(open(out_path, encoding="utf-8").read())
            assert report["ok"] is True
            assert len(report["rows"]) == 2

    def test_failure_exits_1(self):
        code, text = self._main(
            ["sweep", "--sites", "1", "--seeds", "0",
             "--leaves", "32", "--scale", "-5"])
        assert code == 1
        assert "FAIL" in text

    def test_bad_app_exits_2(self):
        code, text = self._main(["sweep", "--app", "quicksort"])
        assert code == 2
        assert "unknown sweep app" in text

    def test_bad_seed_spec_exits_2(self):
        code, text = self._main(["sweep", "--seeds", "x,y"])
        assert code == 2

    def test_seed_range_spec(self, tmp_path):
        out_path = str(tmp_path / "report.json")
        code, _text = self._main(
            ["sweep", "--sites", "1", "--seeds", "0:2",
             "--leaves", "32", "--scale", "200", "--out", out_path])
        assert code == 0
        report = json.loads(open(out_path, encoding="utf-8").read())
        labels = [row["label"] for row in report["rows"]]
        assert labels == ["treesum/l32/s1/seed0", "treesum/l32/s1/seed1"]
