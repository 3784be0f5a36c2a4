"""Unit and oracle tests for the sandwich variance correction.

The oracle pair at the bottom is the scientific contract: on
well-specified Goel–Okumoto data the correction is (nearly) a no-op;
on contaminated data it strictly widens the intervals.
"""

import math

import numpy as np
import pytest

from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import (
    KAPPA_CEILING,
    ScaledPosterior,
    apply_sandwich,
    observed_information,
    sandwich_covariance,
    score_covariance,
    variance_inflation,
    _g_dbeta,
    _g_dbeta2,
    _g_value,
)
from repro.bayes.laplace import fit_laplace
from repro.bayes.normal_posterior import NormalPosterior
from repro.core.reliability import ResidualSurvival
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.data.simulation import simulate_failure_times
from repro.models.goel_okumoto import GoelOkumoto
from repro.robustness.generators import ContaminatedScenario

PRIOR = ModelPrior.informative(40.0, 12.0, 0.1, 0.04)
LEVELS = np.array([0.05, 0.95])


def _well_specified_data(seed=3, horizon=25.0):
    rng = np.random.default_rng(seed)
    return simulate_failure_times(GoelOkumoto(omega=40.0, beta=0.1), horizon, rng)


class TestDerivatives:
    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 5.0, 30.0])
    def test_g_dbeta_matches_finite_difference(self, alpha0, t):
        beta = 0.1
        h = 1e-6
        numeric = (
            _g_value(np.array([t]), alpha0, beta + h)
            - _g_value(np.array([t]), alpha0, beta - h)
        ) / (2 * h)
        analytic = _g_dbeta(np.array([t]), alpha0, beta)
        assert analytic[0] == pytest.approx(numeric[0], rel=1e-5)

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 5.0, 30.0])
    def test_g_dbeta2_matches_finite_difference(self, alpha0, t):
        beta = 0.1
        h = 1e-5
        numeric = (
            _g_dbeta(np.array([t]), alpha0, beta + h)
            - _g_dbeta(np.array([t]), alpha0, beta - h)
        ) / (2 * h)
        analytic = _g_dbeta2(np.array([t]), alpha0, beta)
        assert analytic[0] == pytest.approx(numeric[0], rel=1e-4)

    def test_derivatives_vanish_at_nonpositive_times(self):
        out = _g_dbeta(np.array([-1.0, 0.0]), 1.0, 0.1)
        np.testing.assert_array_equal(out, [0.0, 0.0])
        out2 = _g_dbeta2(np.array([-1.0, 0.0]), 1.0, 0.1)
        np.testing.assert_array_equal(out2, [0.0, 0.0])


class TestInformation:
    def test_times_information_structure(self):
        data = _well_specified_data()
        a = observed_information(data, 40.0, 0.1)
        assert a.shape == (2, 2)
        assert a[0, 1] == a[1, 0]
        assert a[0, 0] == pytest.approx(data.count / 40.0**2)
        assert np.all(np.linalg.eigvalsh(a) > 0.0)

    def test_grouped_information_close_to_times(self):
        data = _well_specified_data()
        boundaries = np.linspace(0.0, data.horizon, 2001)[1:]
        counts, _ = np.histogram(data.times, bins=np.r_[0.0, boundaries])
        grouped = GroupedData(counts, boundaries)
        a_times = observed_information(data, 40.0, 0.1)
        a_grouped = observed_information(grouped, 40.0, 0.1)
        # Fine grouping loses little information; ω-block is identical.
        assert a_grouped[0, 0] == pytest.approx(a_times[0, 0])
        assert a_grouped[0, 1] == pytest.approx(a_times[0, 1], rel=1e-6)

    @pytest.mark.parametrize("omega,beta", [(0.0, 0.1), (40.0, -1.0),
                                            (float("inf"), 0.1)])
    def test_invalid_point_rejected(self, omega, beta):
        with pytest.raises(ValueError):
            observed_information(_well_specified_data(), omega, beta)

    def test_unsupported_data_type(self):
        with pytest.raises(TypeError):
            observed_information(object(), 40.0, 0.1)


class TestScoreCovariance:
    def test_well_specified_b_tracks_a(self):
        """E[B] = A under the true model: averaged over campaigns the
        block estimate must come out near the information."""
        ratios = []
        for seed in range(40):
            data = _well_specified_data(seed=seed)
            a = observed_information(data, 40.0, 0.1)
            b = score_covariance(data, 40.0, 0.1)
            ratios.append(np.diag(b) / np.diag(a))
        mean_ratio = np.mean(ratios, axis=0)
        np.testing.assert_allclose(mean_ratio, [1.0, 1.0], atol=0.25)

    def test_block_count_override(self):
        data = _well_specified_data()
        b_default = score_covariance(data, 40.0, 0.1)
        b_eight = score_covariance(data, 40.0, 0.1, n_blocks=8)
        assert b_default.shape == b_eight.shape == (2, 2)
        assert not np.allclose(b_default, b_eight)

    def test_too_few_blocks_rejected(self):
        data = _well_specified_data()
        with pytest.raises(ValueError, match="blocks"):
            score_covariance(data, 40.0, 0.1, n_blocks=1)

    def test_grouped_uses_recorded_intervals(self):
        counts = np.array([5, 9, 7, 4, 2, 1])
        grouped = GroupedData.from_equal_intervals(counts, interval_length=4.0)
        b = score_covariance(grouped, 30.0, 0.1)
        assert b.shape == (2, 2)
        assert b[0, 0] > 0.0

    def test_symmetric_and_psd(self):
        data = _well_specified_data(seed=11)
        b = score_covariance(data, 40.0, 0.1)
        assert b[0, 1] == pytest.approx(b[1, 0])
        assert np.all(np.linalg.eigvalsh(b) >= -1e-12)


class TestVarianceInflation:
    def test_b_equals_a_gives_identity(self):
        a = np.array([[4.0, 1.0], [1.0, 9.0]])
        np.testing.assert_allclose(variance_inflation(a, a), [1.0, 1.0])

    def test_inflated_b_widens(self):
        a = np.array([[4.0, 0.5], [0.5, 9.0]])
        kappa = variance_inflation(a, 4.0 * a)
        np.testing.assert_allclose(kappa, [2.0, 2.0])

    def test_conservative_floor(self):
        a = np.array([[4.0, 0.0], [0.0, 9.0]])
        b = 0.25 * a  # raw kappa would be 0.5
        np.testing.assert_allclose(variance_inflation(a, b), [1.0, 1.0])
        np.testing.assert_allclose(
            variance_inflation(a, b, conservative=False), [0.5, 0.5]
        )

    def test_non_positive_definite_a_is_identity(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # det < 0
        b = np.eye(2)
        np.testing.assert_allclose(variance_inflation(a, b), [1.0, 1.0])

    def test_ceiling_clip(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = 1e12 * np.eye(2)
        np.testing.assert_allclose(
            variance_inflation(a, b), [KAPPA_CEILING, KAPPA_CEILING]
        )

    def test_sandwich_covariance_symmetrised(self):
        a = np.array([[4.0, 0.5], [0.5, 9.0]])
        b = np.array([[5.0, 0.1], [0.1, 10.0]])
        s = sandwich_covariance(a, b)
        assert s[0, 1] == pytest.approx(s[1, 0])


class TestApplySandwich:
    def test_vb2_wraps_in_scaled_posterior(self):
        data = _well_specified_data()
        base = fit_vb2(data, PRIOR)
        corrected = apply_sandwich(base, data)
        assert isinstance(corrected, ScaledPosterior)
        assert corrected.method_name == "VB2+SW"
        assert corrected.base is base
        diag = corrected.diagnostics
        assert diag["variance_correction"] == "sandwich"
        assert diag["kappa_omega"] >= 1.0
        assert diag["kappa_beta"] >= 1.0
        assert diag["kappa_omega"] >= diag["kappa_omega_raw"]

    def test_normal_posterior_stays_normal(self):
        data = _well_specified_data()
        base = fit_laplace(data, PRIOR)
        corrected = apply_sandwich(base, data)
        assert isinstance(corrected, NormalPosterior)
        assert corrected.mean("omega") == pytest.approx(base.mean("omega"))
        kappa = corrected.diagnostics["kappa_omega"]
        assert corrected.variance("omega") == pytest.approx(
            kappa**2 * base.variance("omega")
        )


class TestOracle:
    """The scientific contract of the correction."""

    def test_well_specified_is_nearly_a_noop(self):
        """On data truly from the fitted Goel–Okumoto model, the
        corrected intervals stay within a few percent of the raw ones
        on average — the correction does not destroy calibration."""
        survival = ResidualSurvival(alpha0=1.0, te=25.0)
        ratios_omega, ratios_residual = [], []
        for seed in range(20):
            data = _well_specified_data(seed=seed)
            base = fit_vb2(data, PRIOR)
            corrected = apply_sandwich(base, data)
            lo, hi = base.quantile_batch("omega", LEVELS)
            clo, chi = corrected.quantile_batch("omega", LEVELS)
            ratios_omega.append((chi - clo) / (hi - lo))
            rlo, rhi = base.residual_quantile_batch(LEVELS, survival)
            crlo, crhi = corrected.residual_quantile_batch(LEVELS, survival)
            ratios_residual.append((crhi - crlo) / (rhi - rlo))
        assert np.mean(ratios_omega) == pytest.approx(1.0, abs=0.10)
        assert np.mean(ratios_residual) == pytest.approx(1.0, abs=0.12)
        # Conservative one-sided correction: never narrower.
        assert np.min(ratios_omega) >= 1.0 - 1e-9

    def test_contaminated_is_strictly_wider(self):
        """On heavy-tailed contaminated data the correction must
        strictly widen both the ω and the residual intervals (averaged
        over campaigns, and strictly on the bulk of them)."""
        scenario = ContaminatedScenario(severity=0.7)
        survival = ResidualSurvival(alpha0=1.0, te=25.0)
        widened = 0
        total = 0
        width_ratio = []
        for seed in range(20):
            data = scenario.simulate(25.0, np.random.default_rng(seed))
            if data.count < 3:
                continue
            total += 1
            base = fit_vb2(data, PRIOR)
            corrected = apply_sandwich(base, data)
            lo, hi = base.residual_quantile_batch(LEVELS, survival)
            clo, chi = corrected.residual_quantile_batch(LEVELS, survival)
            width_ratio.append((chi - clo) / (hi - lo))
            if chi - clo > hi - lo + 1e-12:
                widened += 1
        assert total >= 15
        assert np.mean(width_ratio) > 1.05
        assert widened >= total // 2

    def test_corrected_intervals_nest_the_raw_ones(self):
        """κ ≥ 1 scaling about the posterior mean makes every corrected
        interval a superset of the raw one — the structural property
        that lets the campaign's coverage only improve, never degrade,
        under the conservative correction."""
        scenario = ContaminatedScenario(severity=0.7)
        survival = ResidualSurvival(alpha0=1.0, te=25.0)
        checked = 0
        for seed in range(12):
            data = scenario.simulate(25.0, np.random.default_rng(seed))
            if data.count < 3:
                continue
            checked += 1
            base = fit_vb2(data, PRIOR)
            corrected = apply_sandwich(base, data)
            lo, hi = base.quantile_batch("omega", LEVELS)
            clo, chi = corrected.quantile_batch("omega", LEVELS)
            assert clo <= lo + 1e-9
            assert chi >= hi - 1e-9
            rlo, rhi = base.residual_quantile_batch(LEVELS, survival)
            crlo, crhi = corrected.residual_quantile_batch(LEVELS, survival)
            assert crlo <= rlo + 1e-9
            assert crhi >= rhi - 1e-9
        assert checked >= 8
