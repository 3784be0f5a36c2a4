"""Regression tests for `repro validate` argument plumbing.

PR history: `validate coverage --scale` used to be parsed but silently
ignored — the fitters were always built at campaign defaults. These
tests pin every flag of the three campaign subcommands to the object
that actually consumes it.
"""

import json
import pickle

import pytest

from repro.cli import (
    _campaign_workers,
    _parse_severity_overrides,
    build_parser,
    main,
)
from repro.experiments import PAPER_SCALE, QUICK_SCALE
from repro.validation.fitters import (
    MCMCFitter,
    coverage_fitters,
    fit_nint_via_vb2,
)


class TestParser:
    def test_robustness_defaults(self):
        args = build_parser().parse_args(["validate", "robustness"])
        assert args.validate_command == "robustness"
        assert args.families == "all"
        assert args.severities is None
        assert args.methods == "NINT,LAPL,MCMC,VB1,VB2"
        assert args.no_sandwich is False
        assert args.level == 0.9
        assert args.workers == 1
        assert args.scale == "quick"

    def test_robustness_full_flags(self):
        args = build_parser().parse_args([
            "validate", "robustness",
            "--trace", "/tmp/trace.jsonl",
            "--trace-level", "timing",
            "--families", "contaminated,weibull-hazard",
            "--severities", "contaminated=0,0.4",
            "--severities", "weibull-hazard=0,0.25",
            "--methods", "VB2,LAPL",
            "--no-sandwich",
            "--level", "0.95",
            "--replications", "12",
            "--workers", "0",
            "--seed", "7",
            "--scale", "paper",
            "--out", "/tmp/x.json",
        ])
        assert args.trace == "/tmp/trace.jsonl"
        assert args.trace_level == "timing"
        assert args.families == "contaminated,weibull-hazard"
        assert args.severities == [
            "contaminated=0,0.4", "weibull-hazard=0,0.25",
        ]
        assert args.no_sandwich is True
        assert args.level == 0.95
        assert args.replications == 12
        assert args.workers == 0
        assert args.seed == 7
        assert args.scale == "paper"
        assert args.out == "/tmp/x.json"

    def test_coverage_scale_flag_parses(self):
        args = build_parser().parse_args(
            ["validate", "coverage", "--scale", "paper"]
        )
        assert args.scale == "paper"

    def test_sbc_still_parses(self):
        args = build_parser().parse_args(
            ["validate", "sbc", "--method", "VB1", "--workers", "3"]
        )
        assert args.validate_command == "sbc"
        assert args.method == "VB1"
        assert args.workers == 3

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["validate", "coverage", "--scale", "huge"]
            )


class TestSeverityOverrides:
    def test_none_on_empty(self):
        assert _parse_severity_overrides(None) is None
        assert _parse_severity_overrides([]) is None

    def test_parses_multiple_families(self):
        overrides = _parse_severity_overrides(
            ["contaminated=0,0.4,0.7", "change-point= 0 , 1.0 "]
        )
        assert overrides == {
            "contaminated": (0.0, 0.4, 0.7),
            "change-point": (0.0, 1.0),
        }

    def test_malformed_entry_exits(self):
        with pytest.raises(SystemExit, match="FAMILY=S1,S2"):
            _parse_severity_overrides(["contaminated"])

    def test_bad_float_exits(self):
        with pytest.raises(SystemExit, match="bad severity grid"):
            _parse_severity_overrides(["contaminated=0,high"])


class TestCampaignWorkers:
    @pytest.mark.parametrize("value,expected", [(0, None), (1, 1), (4, 4)])
    def test_zero_means_auto(self, value, expected):
        class Args:
            workers = value

        assert _campaign_workers(Args()) == expected


class TestScalePlumbing:
    """The regression: the scale must reach the fitters themselves."""

    def test_quick_scale_fitters(self):
        fitters = coverage_fitters(["NINT", "MCMC"], scale=QUICK_SCALE)
        nint = fitters["NINT"]
        assert nint.func is fit_nint_via_vb2
        assert nint.keywords == {
            "alpha0": 1.0, "resolution": QUICK_SCALE.nint_resolution
        }
        mcmc = fitters["MCMC"]
        assert isinstance(mcmc, MCMCFitter)
        assert mcmc.settings == QUICK_SCALE.mcmc

    def test_paper_scale_differs_from_quick(self):
        quick = coverage_fitters(["NINT", "MCMC"], scale=QUICK_SCALE)
        paper = coverage_fitters(["NINT", "MCMC"], scale=PAPER_SCALE)
        assert (
            paper["NINT"].keywords["resolution"]
            > quick["NINT"].keywords["resolution"]
        )
        assert paper["MCMC"].settings.n_samples > quick["MCMC"].settings.n_samples

    def test_no_scale_keeps_campaign_defaults(self):
        fitters = coverage_fitters(["NINT", "MCMC"])
        assert fitters["NINT"].func is fit_nint_via_vb2
        assert fitters["NINT"].keywords == {"alpha0": 1.0}
        assert fitters["MCMC"].settings.n_samples == 4_000

    def test_scaled_fitters_are_picklable(self):
        fitters = coverage_fitters(
            ["NINT", "LAPL", "MCMC", "VB1", "VB2"], scale=PAPER_SCALE
        )
        for fitter in fitters.values():
            pickle.loads(pickle.dumps(fitter))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="no coverage fitter"):
            coverage_fitters(["VB3"])


@pytest.mark.slow
class TestEndToEnd:
    def test_robustness_command_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "robustness.json"
        code = main([
            "validate", "robustness",
            "--families", "contaminated",
            "--severities", "contaminated=0,0.7",
            "--methods", "VB2,LAPL",
            "--replications", "4",
            "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "robustness at nominal 90%" in printed
        assert "VB2+SW recovers" in printed
        payload = json.loads(out.read_text())
        assert payload["kind"] == "robustness"
        assert payload["config"]["families"] == ["contaminated"]
        assert payload["config"]["severities"] == {"contaminated": [0.0, 0.7]}
        assert len(payload["results"]["cells"]) == 2
        labels = set(payload["results"]["cells"][0]["methods"])
        assert labels == {"LAPL", "VB2", "VB2+SW"}

    def test_robustness_trace_flag_runs(self, tmp_path, capsys):
        out = tmp_path / "robustness.json"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "validate", "robustness",
            "--trace", str(trace),
            "--families", "truncated-reporting",
            "--severities", "truncated-reporting=0,0.6",
            "--methods", "VB1",
            "--no-sandwich",
            "--replications", "3",
            "--workers", "2",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "robustness" in printed
        # --no-sandwich: the verdict line must not appear.
        assert "recovers" not in printed
        payload = json.loads(out.read_text())
        assert payload["config"]["sandwich"] is False
        assert trace.exists()
        lines = trace.read_text().strip().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_coverage_records_scale_in_artifact(self, tmp_path, capsys):
        out = tmp_path / "coverage.json"
        code = main([
            "validate", "coverage",
            "--methods", "VB2",
            "--replications", "4",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["scale"] == "quick"
