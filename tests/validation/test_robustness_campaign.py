"""Unit tests for the misspecification campaign driver."""

import numpy as np
import pytest

from repro.robustness.campaign import (
    CONTAMINATION_FAMILIES,
    ROBUSTNESS_METHODS,
    ROBUSTNESS_TARGETS,
    SANDWICH_LABEL,
    CellResult,
    RobustnessResult,
    RobustnessSpec,
    _aggregate,
    _interval_levels,
    _robustness_replication,
    run_robustness,
)
from repro.robustness.generators import SCENARIO_FAMILIES, default_severities


def _mini_spec(**overrides):
    base = dict(
        families=("contaminated",),
        severities={"contaminated": (0.0, 0.7)},
        methods=("LAPL", "VB2"),
        sandwich=True,
        replications=6,
        seed=42,
    )
    base.update(overrides)
    return RobustnessSpec(**base)


class TestSpecValidation:
    def test_default_spec_sweeps_all_families(self):
        spec = RobustnessSpec()
        assert set(spec.families) == set(SCENARIO_FAMILIES)
        assert spec.methods == ROBUSTNESS_METHODS

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario families"):
            RobustnessSpec(families=("weibull-hazard", "nosuch"))

    def test_empty_families_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RobustnessSpec(families=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            RobustnessSpec(methods=("VB2", "BOOTSTRAP"))

    def test_nothing_to_score_rejected(self):
        with pytest.raises(ValueError, match="nothing to score"):
            RobustnessSpec(methods=(), sandwich=False)

    def test_sandwich_only_is_allowed(self):
        spec = RobustnessSpec(methods=(), sandwich=True)
        assert spec.labels() == (SANDWICH_LABEL,)

    @pytest.mark.parametrize("kwargs", [
        {"level": 0.0},
        {"level": 1.0},
        {"replications": 0},
        {"horizon": 0.0},
        {"min_failures": 0},
    ])
    def test_bad_numeric_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RobustnessSpec(**kwargs)


class TestSpecGeometry:
    def test_severity_override_and_default(self):
        spec = RobustnessSpec(
            families=("contaminated", "weibull-hazard"),
            severities={"contaminated": (0.0, 0.5)},
        )
        assert spec.family_severities("contaminated") == (0.0, 0.5)
        assert spec.family_severities("weibull-hazard") == default_severities(
            "weibull-hazard"
        )

    def test_cells_enumerate_in_family_major_order(self):
        spec = RobustnessSpec(
            families=("change-point", "contaminated"),
            severities={
                "change-point": (0.0, 1.0),
                "contaminated": (0.0,),
            },
        )
        assert spec.cells() == [
            ("change-point", 0.0),
            ("change-point", 1.0),
            ("contaminated", 0.0),
        ]

    def test_labels_append_sandwich_last(self):
        assert _mini_spec().labels() == ("LAPL", "VB2", SANDWICH_LABEL)
        assert _mini_spec(sandwich=False).labels() == ("LAPL", "VB2")

    def test_config_dict_is_json_ready(self):
        import json

        config = _mini_spec().config_dict()
        assert config["families"] == ["contaminated"]
        assert config["severities"] == {"contaminated": [0.0, 0.7]}
        assert config["scale"] == "quick"
        assert config["seed"] == 42
        json.dumps(config)  # must not raise

    def test_interval_levels(self):
        np.testing.assert_allclose(_interval_levels(0.9), [0.05, 0.95])
        np.testing.assert_allclose(_interval_levels(0.5), [0.25, 0.75])


class TestReplication:
    def test_replication_is_deterministic(self):
        spec = _mini_spec()
        job = 1 * spec.replications + 3  # cell 1, replication 3
        first = _robustness_replication(spec, job)
        second = _robustness_replication(spec, job)
        assert first is not None
        assert first["failures"] == second["failures"]
        for label in ("LAPL", "VB2", SANDWICH_LABEL):
            hits1, widths1 = first["scores"][label]
            hits2, widths2 = second["scores"][label]
            assert hits1 == hits2
            for target in ROBUSTNESS_TARGETS:
                assert widths1[target] == widths2[target]

    def test_different_jobs_differ(self):
        spec = _mini_spec()
        a = _robustness_replication(spec, 0)
        b = _robustness_replication(spec, 1)
        assert a["failures"] != b["failures"] or (
            a["scores"]["VB2"][1] != b["scores"]["VB2"][1]
        )

    def test_min_failures_skip_returns_none(self):
        spec = _mini_spec(min_failures=10_000)
        assert _robustness_replication(spec, 0) is None

    def test_sandwich_scored_even_without_vb2_method(self):
        spec = _mini_spec(methods=("LAPL",), sandwich=True)
        outcome = _robustness_replication(spec, 0)
        assert set(outcome["scores"]) == {"LAPL", SANDWICH_LABEL}


    def test_every_fitter_runs_at_campaign_alpha0(self, monkeypatch):
        # Each method must fit at the campaign's alpha0, the shape its
        # residual truths are scored at.
        from types import SimpleNamespace

        from repro.core.vb1 import fit_vb1
        from repro.validation import fitters

        seen = {}

        def spy(label):
            def fit(data, prior, alpha0=1.0, **kwargs):
                seen[label] = alpha0
                return fit_vb1(data, prior, alpha0)

            return fit

        for label, name in (("NINT", "fit_nint_via_vb2"), ("LAPL", "fit_laplace"),
                            ("VB1", "fit_vb1"), ("VB2", "fit_vb2")):
            monkeypatch.setattr(fitters, name, spy(label))
        mcmc = spy("MCMC")
        monkeypatch.setattr(
            fitters,
            "gibbs_failure_time",
            lambda data, prior, alpha0, **kwargs: SimpleNamespace(
                posterior=lambda: mcmc(data, prior, alpha0)
            ),
        )
        spec = _mini_spec(methods=ROBUSTNESS_METHODS, sandwich=False, alpha0=2.0)
        assert _robustness_replication(spec, 0) is not None
        assert seen == dict.fromkeys(ROBUSTNESS_METHODS, 2.0)


class TestAggregation:
    def test_all_skipped_cell_raises(self):
        spec = _mini_spec(replications=2)
        outcomes = [None, None, {"failures": 5, "scores": {}}, None]
        with pytest.raises(ValueError, match="every replication"):
            _aggregate(spec, outcomes)

    def test_synthetic_counts(self):
        spec = _mini_spec(
            methods=("VB2",), sandwich=False, replications=3
        )

        def outcome(hit_omega, hit_residual, failures):
            return {
                "failures": failures,
                "scores": {
                    "VB2": (
                        {"omega": hit_omega, "residual": hit_residual},
                        {"omega": 2.0, "residual": 1.0},
                    )
                },
            }

        outcomes = [
            outcome(1, 1, 10),
            outcome(1, 0, 14),
            None,
            outcome(0, 0, 6),
            outcome(1, 1, 8),
            outcome(1, 1, 7),
        ]
        result = _aggregate(spec, outcomes)
        first = result.cell("contaminated", 0.0)
        assert first.used == 2 and first.skipped == 1
        assert first.mean_failures == pytest.approx(12.0)
        assert first.coverage("VB2", "omega") == pytest.approx(1.0)
        assert first.coverage("VB2", "residual") == pytest.approx(0.5)
        assert first.mean_width("VB2", "omega") == pytest.approx(2.0)
        second = result.cell("contaminated", 0.7)
        assert second.used == 3 and second.skipped == 0
        assert second.coverage("VB2", "omega") == pytest.approx(2.0 / 3.0)

    def test_unknown_cell_lookup_raises(self):
        spec = _mini_spec(methods=("VB2",), sandwich=False, replications=1)
        result = _aggregate(
            spec,
            [
                {
                    "failures": 4,
                    "scores": {"VB2": (
                        {"omega": 1, "residual": 1},
                        {"omega": 1.0, "residual": 1.0},
                    )},
                }
            ] * 2,
        )
        with pytest.raises(KeyError):
            result.cell("contaminated", 0.123)


def _synthetic_result(coverages):
    """Build a RobustnessResult from {(severity, label, target): coverage}
    over a two-cell contaminated sweep with 10 replications."""
    spec = _mini_spec(methods=("VB2",), replications=10)
    cells = []
    for severity in (0.0, 0.7):
        labels = ("VB2", SANDWICH_LABEL)
        hits = {
            label: {
                target: int(round(10 * coverages[(severity, label, target)]))
                for target in ROBUSTNESS_TARGETS
            }
            for label in labels
        }
        width_sums = {
            label: dict.fromkeys(ROBUSTNESS_TARGETS, 10.0) for label in labels
        }
        cells.append(
            CellResult(
                family="contaminated",
                severity=severity,
                used=10,
                skipped=0,
                mean_failures=12.0,
                hits=hits,
                width_sums=width_sums,
            )
        )
    return RobustnessResult(spec=spec, cells=tuple(cells))


class TestRecoveryMath:
    def _coverages(self, raw, corrected):
        cov = {}
        for target in ROBUSTNESS_TARGETS:
            cov[(0.0, "VB2", target)] = 0.9
            cov[(0.0, SANDWICH_LABEL, target)] = 0.9
            cov[(0.7, "VB2", target)] = raw
            cov[(0.7, SANDWICH_LABEL, target)] = corrected
        return cov

    def test_recovery_fraction(self):
        result = _synthetic_result(self._coverages(raw=0.5, corrected=0.8))
        rows = result.sandwich_recovery()["contaminated"]
        for row in rows:
            assert row["lost"] == pytest.approx(0.4)
            assert row["recovered"] == pytest.approx(0.3)
            assert row["recovery_fraction"] == pytest.approx(0.75)
        assert result.sandwich_recovers_half_on_contamination()

    def test_no_loss_gives_none_fraction(self):
        result = _synthetic_result(self._coverages(raw=0.9, corrected=0.9))
        rows = result.sandwich_recovery()["contaminated"]
        assert all(row["recovery_fraction"] is None for row in rows)
        assert not result.sandwich_recovers_half_on_contamination()

    def test_negative_recovery_clipped_to_zero(self):
        result = _synthetic_result(self._coverages(raw=0.5, corrected=0.4))
        rows = result.sandwich_recovery()["contaminated"]
        for row in rows:
            assert row["recovered"] == pytest.approx(-0.1)
            assert row["recovery_fraction"] == pytest.approx(0.0)

    def test_recovery_empty_without_vb2(self):
        spec = _mini_spec(methods=("LAPL",))
        result = RobustnessResult(spec=spec, cells=())
        assert result.sandwich_recovery() == {}
        assert not result.sandwich_recovers_half_on_contamination()

    def test_degradation_anchored_at_first_severity(self):
        result = _synthetic_result(self._coverages(raw=0.6, corrected=0.8))
        curves = result.degradation_curves()["contaminated"]
        for label, expected in (("VB2", 0.3), (SANDWICH_LABEL, 0.1)):
            points = curves[label]["omega"]
            assert points[0]["degradation"] == pytest.approx(0.0)
            assert points[1]["degradation"] == pytest.approx(expected)

    def test_to_dict_includes_recovery_sections(self):
        result = _synthetic_result(self._coverages(raw=0.5, corrected=0.8))
        payload = result.to_dict()
        assert "sandwich_recovery" in payload
        assert payload["sandwich_recovers_half_on_contamination"] is True
        assert len(payload["cells"]) == 2
        assert "degradation_curves" in payload


class TestDriver:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_robustness(_mini_spec(), workers=1)

    def test_structure(self, serial_result):
        assert len(serial_result.cells) == 2
        for cell in serial_result.cells:
            assert cell.used + cell.skipped == 6
            assert cell.used >= 1
            for label in ("LAPL", "VB2", SANDWICH_LABEL):
                for target in ROBUSTNESS_TARGETS:
                    assert 0.0 <= cell.coverage(label, target) <= 1.0
                    assert cell.mean_width(label, target) > 0.0

    def test_parallel_matches_serial(self, serial_result):
        parallel = run_robustness(_mini_spec(), workers=2)
        assert parallel.to_dict() == serial_result.to_dict()

    def test_sandwich_never_below_vb2_coverage(self, serial_result):
        """The conservative floor makes VB2+SW intervals supersets of
        VB2's, so per-cell coverage can only be equal or higher."""
        for cell in serial_result.cells:
            for target in ROBUSTNESS_TARGETS:
                assert (
                    cell.coverage(SANDWICH_LABEL, target)
                    >= cell.coverage("VB2", target)
                )

    def test_contamination_families_constant(self):
        assert set(CONTAMINATION_FAMILIES) <= set(SCENARIO_FAMILIES)
