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


def _fit_doc(timing=10.0, vb2_diff=0.0):
    return {
        "schema": 2,
        "kind": "bench",
        "suite": "fit",
        "generated_by": "benchmarks/bench_fit_path.py",
        "timings": {"quick/DG-Info/nint_grid": timing},
        "checks": {
            "vb2_max_abs_diff": {"value": vb2_diff, "exact": 0.0},
            "vb2_inverse_max_rel_residual": {"value": 1e-12, "max": 1e-9},
        },
        "info": {},
    }


def _v2_doc(identical=True):
    return {
        "schema": 2,
        "kind": "bench",
        "suite": "robustness",
        "generated_by": "benchmarks/bench_robustness.py",
        "timings": {},
        "checks": {
            "serial_parallel_identical": {"value": identical, "expect": True},
        },
        "info": {},
    }


class TestNormalise:
    def test_v2_passes_through(self):
        doc = _v2_doc()
        assert normalise(doc) is doc

    def test_unknown_v1_layout_rejected(self):
        # Schema 1 is never lifted; the message names the script to rerun.
        with pytest.raises(TelemetryError, match="rerun mystery.py"):
            normalise({"schema": 1, "generated_by": "mystery.py"})

    def test_retired_ratio_section_rejected(self):
        doc = _v2_doc()
        doc["speedups"] = {"parallel4/campaign": 2.0}
        with pytest.raises(
            TelemetryError, match="rerun benchmarks/bench_robustness.py"
        ):
            normalise(doc)

    def test_missing_required_field_rejected(self):
        doc = _v2_doc()
        del doc["timings"]
        with pytest.raises(TelemetryError, match="'timings'"):
            normalise(doc)

    def test_missing_schema_rejected(self):
        with pytest.raises(TelemetryError, match="schema"):
            normalise({"suite": "fit"})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(TelemetryError, match="unsupported"):
            normalise({"schema": 3})

    def test_v2_wrong_kind_rejected(self):
        with pytest.raises(TelemetryError, match="kind"):
            normalise({"schema": 2, "kind": "trace"})


class TestSelfCheck:
    def test_clean_doc_passes(self):
        assert self_check(_fit_doc()) == []
        assert self_check(_v2_doc()) == []

    def test_exact_violation_reported(self):
        failures = self_check(_fit_doc(vb2_diff=1e-9))
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

    def test_min_criterion(self):
        # Floors retired with the ratios: ``min`` is no criterion.
        doc = _v2_doc()
        doc["checks"]["warm_iteration_ratio"] = {"value": 3.15, "min": 3.0}
        assert self_check(doc) == [
            "robustness: check warm_iteration_ratio declares no criterion "
            "(exact/max/expect)"
        ]

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
        assert compare(_fit_doc(), _fit_doc()) == []

    def test_injected_regression_fails(self):
        # A >25% rise of a calibrated timing must trip the gate.
        failures = compare(_fit_doc(timing=13.0), _fit_doc(timing=10.0))
        assert len(failures) == 1
        assert "rose above" in failures[0]

    def test_small_slowdown_passes(self):
        assert compare(_fit_doc(timing=12.0), _fit_doc(timing=10.0)) == []

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

    def test_missing_timing_fails(self):
        baseline = _fit_doc()
        baseline["timings"]["quick/DG-Info/vb1_grouped"] = 7.3
        failures = compare(_fit_doc(), baseline)
        assert failures == [
            "fit/quick/DG-Info/vb1_grouped: baseline timing missing from "
            "the fresh run"
        ]

    def test_unmeasured_mode_ignored(self):
        # A quick run cannot carry the baseline's full-mode timings.
        baseline = _fit_doc()
        baseline["timings"]["full/DG-Info/nint_grid"] = 14.0
        assert compare(_fit_doc(), baseline) == []
        fresh = _v2_doc()
        baseline = _v2_doc()
        baseline["timings"] = {"quick/sweep": 10.0}
        assert compare(fresh, baseline) == []

    def test_missing_modeless_timing_fails(self):
        # A key without a mode is measured by every run.
        baseline = _fit_doc()
        baseline["timings"]["cache/hit"] = 1.5
        failures = compare(_fit_doc(), baseline)
        assert len(failures) == 1
        assert "cache/hit: baseline timing missing" in failures[0]

    def test_missing_check_fails(self):
        fresh = _fit_doc()
        del fresh["checks"]["vb2_inverse_max_rel_residual"]
        assert compare(fresh, _fit_doc()) == [
            "fit: check vb2_inverse_max_rel_residual: missing from the "
            "fresh run"
        ]

    def test_suite_mismatch_rejected(self):
        failures = compare(_fit_doc(), _v2_doc())
        assert failures and "suite mismatch" in failures[0]

    def test_fresh_must_pass_own_checks(self):
        failures = compare(_fit_doc(vb2_diff=0.5), _fit_doc())
        assert any("vb2_max_abs_diff" in f for f in failures)

    def test_injected_regression_on_committed_fit_baseline(self):
        baseline = json.loads((RESULTS_DIR / "BENCH_fit.json").read_text())
        degraded = json.loads(json.dumps(baseline))
        for key in degraded["timings"]:
            degraded["timings"][key] *= 2.0
        failures = compare(degraded, baseline)
        assert len(failures) == len(baseline["timings"])


class TestLoadAndRender:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            load_ledger(tmp_path / "BENCH_nope.json")

    def test_load_bad_json(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(TelemetryError, match="not JSON"):
            load_ledger(bad)

    def test_render_shows_checks(self):
        text = render_ledger([_fit_doc(), _v2_doc()])
        assert "suite fit" in text
        assert "suite robustness" in text
        assert "check vb2_max_abs_diff" in text
        assert "[exact 0.0] ok" in text

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
        for key in doc["timings"]:
            doc["timings"][key] *= 2.0
        fresh = tmp_path / "BENCH_fit.json"
        fresh.write_text(json.dumps(doc))
        code = main([
            "bench", "check", str(fresh),
            "--baseline-dir", str(RESULTS_DIR),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["timings", "checks"])
    def test_check_fresh_missing_key_fails(self, tmp_path, capsys, section):
        doc = json.loads((RESULTS_DIR / "BENCH_fit.json").read_text())
        doc[section].pop(sorted(doc[section])[0])
        fresh = tmp_path / "BENCH_fit.json"
        fresh.write_text(json.dumps(doc))
        code = main([
            "bench", "check", str(fresh),
            "--baseline-dir", str(RESULTS_DIR),
        ])
        assert code == 1
        assert "missing from the fresh run" in capsys.readouterr().err

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
