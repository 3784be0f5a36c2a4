"""Tests for the unified perf ledger (repro.obs.ledger) and its CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import TelemetryError
from repro.obs.ledger import (
    compare,
    load_ledger,
    normalise,
    render_ledger,
    self_check,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _v1_fit_doc(speedup=10.0, vb2_diff=0.0):
    return {
        "schema": 1,
        "generated_by": "benchmarks/bench_fit_path.py",
        "acceptance": {"nint_speedup_target": 3.0},
        "agreement": {
            "vb2_max_abs_diff": vb2_diff,
            "vb2_inverse_max_rel_residual": 1e-12,
            "nint_max_abs_diff_vs_legacy": 1e-14,
        },
        "modes": {
            "quick": {
                "repeat": 2,
                "workloads": {
                    "DG-Info/nint_grid": {
                        "legacy_s": 1.0,
                        "batched_s": 1.0 / speedup,
                        "speedup": speedup,
                    },
                },
            },
        },
    }


def _v2_doc(identical=True):
    return {
        "schema": 2,
        "kind": "bench",
        "suite": "robustness",
        "generated_by": "benchmarks/bench_robustness.py",
        "speedups": {"parallel4/campaign": 2.0},
        "checks": {
            "serial_parallel_identical": {"value": identical, "expect": True},
        },
        "info": {},
    }


class TestNormalise:
    def test_v1_fit_lifts(self):
        ledger = normalise(_v1_fit_doc())
        assert ledger["schema"] == 2
        assert ledger["suite"] == "fit"
        assert ledger["speedups"]["quick/DG-Info/nint_grid"] == 10.0
        assert ledger["checks"]["vb2_max_abs_diff"] == {
            "value": 0.0, "exact": 0.0,
        }
        assert ledger["checks"]["vb2_inverse_max_rel_residual"] == {
            "value": 1e-12, "max": 1e-9,
        }
        assert ledger["info"]["nint_speedup_target"] == 3.0

    def test_v1_timings_lift(self):
        doc = _v1_fit_doc()
        doc["modes"]["quick"]["timings"] = {
            "DG-Info/vb2_grouped": {
                "best_s": 0.02, "kernel_s": 0.001, "calibrated": 20.0,
            },
        }
        ledger = normalise(doc)
        assert ledger["timings"] == {"quick/DG-Info/vb2_grouped": 20.0}
        assert normalise(_v1_fit_doc())["timings"] == {}

    def test_v2_passes_through(self):
        doc = _v2_doc()
        assert normalise(doc) is doc

    def test_unknown_v1_layout_rejected(self):
        with pytest.raises(TelemetryError, match="unknown schema-1"):
            normalise({"schema": 1, "generated_by": "mystery.py"})

    def test_missing_schema_rejected(self):
        with pytest.raises(TelemetryError, match="schema"):
            normalise({"suite": "fit"})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(TelemetryError, match="unsupported"):
            normalise({"schema": 3})

    def test_v2_wrong_kind_rejected(self):
        with pytest.raises(TelemetryError, match="kind"):
            normalise({"schema": 2, "kind": "trace"})

    def test_v1_missing_check_field_rejected(self):
        doc = _v1_fit_doc()
        del doc["agreement"]["vb2_max_abs_diff"]
        with pytest.raises(TelemetryError, match="missing check"):
            normalise(doc)


class TestSelfCheck:
    def test_clean_doc_passes(self):
        assert self_check(_v1_fit_doc()) == []
        assert self_check(_v2_doc()) == []

    def test_exact_violation_reported(self):
        failures = self_check(_v1_fit_doc(vb2_diff=1e-9))
        assert len(failures) == 1
        assert "vb2_max_abs_diff" in failures[0]

    def test_expect_violation_reported(self):
        failures = self_check(_v2_doc(identical=False))
        assert len(failures) == 1
        assert "serial_parallel_identical" in failures[0]

    def test_committed_baselines_pass(self):
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        assert paths, "no committed BENCH baselines found"
        for path in paths:
            doc = json.loads(path.read_text())
            assert self_check(doc) == [], path.name

    def _min_doc(self, value):
        doc = _v2_doc()
        doc["checks"]["warm_iteration_ratio"] = {"value": value, "min": 3.0}
        return doc

    def test_min_criterion(self):
        assert self_check(self._min_doc(3.15)) == []
        assert self_check(self._min_doc(3.0)) == []
        failures = self_check(self._min_doc(2.4))
        assert failures == [
            "robustness: check warm_iteration_ratio: observed 2.4, "
            "expected >= 3.0"
        ]
        # a non-numeric value can never satisfy a floor
        assert len(self_check(self._min_doc("fast"))) == 1

    def test_failure_messages_name_both_sides(self):
        # every criterion reports observed and expected on one line
        doc = _v2_doc(identical=False)
        doc["checks"]["diff"] = {"value": 2e-9, "max": 1e-9}
        doc["checks"]["count"] = {"value": 1, "exact": 0}
        doc["checks"]["orphan"] = {"value": 5}
        failures = self_check(doc)
        assert len(failures) == 4
        joined = "\n".join(failures)
        assert (
            "check serial_parallel_identical: observed False, "
            "expected True" in joined
        )
        assert "check diff: observed 2e-09, expected <= 1e-09" in joined
        assert "check count: observed 1, expected exactly 0" in joined
        assert "check orphan declares no criterion" in joined


class TestCompare:
    def test_identical_runs_pass(self):
        assert compare(_v1_fit_doc(), _v1_fit_doc()) == []

    def test_injected_regression_fails(self):
        # >20% slowdown of the speedup ratio must trip the gate.
        fresh = _v1_fit_doc(speedup=7.0)
        baseline = _v1_fit_doc(speedup=10.0)
        failures = compare(fresh, baseline)
        assert len(failures) == 1
        assert "fell below" in failures[0]

    def test_small_slowdown_passes(self):
        fresh = _v1_fit_doc(speedup=8.5)
        baseline = _v1_fit_doc(speedup=10.0)
        assert compare(fresh, baseline) == []

    def test_timing_regression_fails(self):
        # A calibrated timing may rise to baseline / 80% and no further.
        baseline = _v2_doc()
        baseline["timings"] = {"quick/sweep": 10.0}
        slower = json.loads(json.dumps(baseline))
        slower["timings"]["quick/sweep"] = 12.0
        assert compare(slower, baseline) == []
        slower["timings"]["quick/sweep"] = 13.0
        failures = compare(slower, baseline)
        assert len(failures) == 1
        assert "quick/sweep" in failures[0]
        assert "rose above 12.5" in failures[0]
        # keys only one side measured are ignored
        assert compare(_v2_doc(), baseline) == []

    def test_suite_mismatch_rejected(self):
        failures = compare(_v1_fit_doc(), _v2_doc())
        assert failures and "suite mismatch" in failures[0]

    def test_fresh_must_pass_own_checks(self):
        failures = compare(_v1_fit_doc(vb2_diff=0.5), _v1_fit_doc())
        assert any("vb2_max_abs_diff" in f for f in failures)

    def test_injected_regression_on_committed_fit_baseline(self):
        baseline = json.loads((RESULTS_DIR / "BENCH_fit.json").read_text())
        degraded = json.loads(json.dumps(baseline))
        for payload in degraded["modes"].values():
            for workload in payload["workloads"].values():
                workload["speedup"] *= 0.5
        failures = compare(degraded, baseline)
        assert failures, "halved speedups must trip the regression gate"


class TestLoadAndRender:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            load_ledger(tmp_path / "BENCH_nope.json")

    def test_load_bad_json(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(TelemetryError, match="not JSON"):
            load_ledger(bad)

    def test_render_shows_checks_and_speedups(self):
        text = render_ledger([normalise(_v1_fit_doc()), _v2_doc()])
        assert "suite fit" in text
        assert "suite robustness" in text
        assert "vb2_max_abs_diff" in text
        assert "ok" in text
        assert "10.0x" in text

    def test_render_shows_timings(self):
        doc = _v2_doc()
        doc["timings"] = {"quick/sweep": 64.25}
        text = render_ledger([doc])
        assert "timing quick/sweep" in text
        assert "64.2 kernel units" in text


class TestBenchCli:
    def test_check_committed_baselines(self, capsys):
        code = main(["bench", "check", "--baseline-dir", str(RESULTS_DIR)])
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_fit.json" in out
        assert "passes its own checks" in out

    def test_check_fresh_within_gate(self, tmp_path, capsys):
        fresh = tmp_path / "BENCH_fit.json"
        baseline = (RESULTS_DIR / "BENCH_fit.json").read_text()
        fresh.write_text(baseline)
        code = main([
            "bench", "check", str(fresh),
            "--baseline-dir", str(RESULTS_DIR),
        ])
        assert code == 0
        assert "within the gate" in capsys.readouterr().out

    def test_check_fresh_regression_fails(self, tmp_path, capsys):
        doc = json.loads((RESULTS_DIR / "BENCH_fit.json").read_text())
        for payload in doc["modes"].values():
            for workload in payload["workloads"].values():
                workload["speedup"] *= 0.5
        fresh = tmp_path / "BENCH_fit.json"
        fresh.write_text(json.dumps(doc))
        code = main([
            "bench", "check", str(fresh),
            "--baseline-dir", str(RESULTS_DIR),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_fresh_without_baseline_exits(self, tmp_path):
        fresh = tmp_path / "BENCH_unknown.json"
        fresh.write_text(json.dumps(_v2_doc()))
        with pytest.raises(SystemExit, match="no committed baseline"):
            main([
                "bench", "check", str(fresh),
                "--baseline-dir", str(tmp_path / "empty"),
            ])

    def test_report_text(self, capsys):
        code = main(["bench", "report", "--dir", str(RESULTS_DIR)])
        assert code == 0
        out = capsys.readouterr().out
        assert "suite fit" in out
        assert "suite robustness" in out

    def test_report_json(self, capsys):
        code = main([
            "bench", "report", "--dir", str(RESULTS_DIR), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        suites = {entry["suite"] for entry in payload}
        assert {"fit", "interval", "mcmc", "robustness"} <= suites

    def test_report_missing_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "report", "--dir", str(tmp_path / "nope")])
