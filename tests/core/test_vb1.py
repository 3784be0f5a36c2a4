"""Tests for the fully factorised VB1 baseline."""

import math

import pytest
from scipy import special

from repro.core.config import VBConfig
from repro.core.fleet import fit_vb1_fleet
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData
from repro.experiments.config import paper_scenarios


class TestStructure:
    def test_single_component_product_posterior(self, vb1_times):
        assert vb1_times.n_components == 1
        assert vb1_times.method_name == "VB1"

    def test_zero_covariance_by_construction(self, vb1_times):
        # The defining failure of VB1 (paper Table 1).
        assert vb1_times.covariance() == pytest.approx(0.0, abs=1e-12)
        assert vb1_times.correlation() == pytest.approx(0.0, abs=1e-12)

    def test_expected_n_above_observed(self, vb1_times, times_data):
        assert vb1_times.diagnostics["expected_n"] > times_data.count

    def test_grouped_fit(self, grouped_data, info_prior_grouped):
        posterior = fit_vb1(grouped_data, info_prior_grouped)
        assert posterior.covariance() == 0.0
        assert posterior.mean("omega") > grouped_data.total_count

    @pytest.mark.parametrize("alpha0", [-1.0, math.nan, math.inf])
    def test_invalid_alpha0(self, times_data, info_prior_times, alpha0):
        # rejected up front, not after an outer budget of NaN
        # iterations blamed on convergence ("last lambda* = nan")
        with pytest.raises(ValueError, match="alpha0 must be positive and finite"):
            fit_vb1(times_data, info_prior_times, alpha0=alpha0)

    @pytest.mark.parametrize("alpha0", [-1.0, math.nan, math.inf])
    def test_invalid_alpha0_fleet(self, times_data, info_prior_times, alpha0):
        with pytest.raises(
            ValueError, match="dataset 1: alpha0 must be positive and finite"
        ):
            fit_vb1_fleet(
                [times_data, times_data], info_prior_times, [1.0, alpha0]
            )

    def test_unsupported_data_type(self, info_prior_times):
        with pytest.raises(TypeError):
            fit_vb1({"not": "data"}, info_prior_times)


class TestAgainstVB2:
    def test_means_close_to_vb2(self, vb1_times, vb2_times):
        # VB1 biases means slightly but stays in the same neighbourhood.
        assert vb1_times.mean("omega") == pytest.approx(
            vb2_times.mean("omega"), rel=0.05
        )
        assert vb1_times.mean("beta") == pytest.approx(
            vb2_times.mean("beta"), rel=0.10
        )

    def test_underestimates_variances(self, vb1_times, vb2_times):
        # The paper's central observation about VB1.
        assert vb1_times.variance("omega") < vb2_times.variance("omega")
        assert vb1_times.variance("beta") < vb2_times.variance("beta")

    def test_narrower_intervals_than_vb2(self, vb1_times, vb2_times):
        lo1, hi1 = vb1_times.credible_interval("beta", 0.99)
        lo2, hi2 = vb2_times.credible_interval("beta", 0.99)
        assert hi1 - lo1 < hi2 - lo2

    def test_elbo_below_vb2(self, times_data, info_prior_times, vb1_times):
        # VB2's variational family strictly contains VB1's, so the
        # optimised bound must be at least as tight.
        vb2 = fit_vb2(times_data, info_prior_times)
        assert vb1_times.elbo is not None
        assert vb1_times.elbo <= vb2.elbo + 1e-9

    def test_grouped_elbo_below_vb2(self, grouped_data, info_prior_grouped):
        vb1 = fit_vb1(grouped_data, info_prior_grouped)
        vb2 = fit_vb2(grouped_data, info_prior_grouped)
        assert vb1.elbo <= vb2.elbo + 1e-9


class TestConvergence:
    def test_deterministic(self, times_data, info_prior_times):
        a = fit_vb1(times_data, info_prior_times)
        b = fit_vb1(times_data, info_prior_times)
        assert a.mean("omega") == b.mean("omega")

    def test_flat_prior_runs(self, times_data, flat_prior):
        posterior = fit_vb1(times_data, flat_prior)
        assert math.isfinite(posterior.mean("omega"))
        assert posterior.elbo is None

    def test_single_failure(self, info_prior_times):
        data = FailureTimeData([1000.0], horizon=240_000.0)
        posterior = fit_vb1(data, info_prior_times)
        assert posterior.mean("omega") > 0

    def test_iterations_recorded(self, vb1_times):
        assert vb1_times.diagnostics["iterations"] >= 1

    def test_tolerance_config_respected(self, times_data, info_prior_times):
        config = VBConfig(fixed_point_rtol=1e-6, fixed_point_max_iter=50)
        posterior = fit_vb1(times_data, info_prior_times, config=config)
        loose = posterior.diagnostics["lambda_star"]
        tight = fit_vb1(times_data, info_prior_times).diagnostics["lambda_star"]
        assert loose == pytest.approx(tight, rel=1e-4)


def _zeta(data, alpha0, xi, lam):
    """Expected total lifetime under the optimal ``q(T, N)``: observed
    times (or interval-truncated means) plus ``λ E[T | T > te]``."""
    if isinstance(data, FailureTimeData):
        total = data.total_time
    else:
        total = 0.0
        for lo, hi, count in data.intervals():
            if count:
                mass = special.gammainc(alpha0, xi * hi) - special.gammainc(
                    alpha0, xi * lo
                )
                first = special.gammainc(
                    alpha0 + 1.0, xi * hi
                ) - special.gammainc(alpha0 + 1.0, xi * lo)
                total += count * (alpha0 / xi) * first / mass
    tail_mean = (alpha0 / xi) * special.gammaincc(
        alpha0 + 1.0, xi * data.horizon
    ) / special.gammaincc(alpha0, xi * data.horizon)
    return total + lam * tail_mean


def _observed(data):
    return data.count if isinstance(data, FailureTimeData) else data.total_count


class TestMeanFieldFixedPoint:
    """The returned posterior satisfies the coordinate-ascent optimality
    conditions of the fully factorised family, each evaluated
    independently of the fitting code (scipy.special for ψ and the
    gamma tails), with ξ = E[β]."""

    @pytest.fixture(
        scope="class",
        params=[
            (name, alpha0)
            for name in ("DT-Info", "DT-NoInfo", "DG-Info", "DG-NoInfo")
            for alpha0 in (1.0, 1.5, 2.0)
        ],
        ids=lambda p: f"{p[0]}-{p[1]}",
    )
    def case(self, request):
        name, alpha0 = request.param
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        posterior = fit_vb1(data, prior, alpha0)
        (q_omega,) = posterior._omega_components
        (q_beta,) = posterior._beta_components
        lam = posterior.diagnostics["lambda_star"]
        return data, prior, alpha0, q_omega, q_beta, lam

    def test_omega_factor(self, case):
        data, prior, _, q_omega, _, lam = case
        expected_n = _observed(data) + lam
        assert q_omega.shape == pytest.approx(
            prior.omega.shape + expected_n, rel=1e-10
        )
        assert q_omega.rate == pytest.approx(prior.omega.rate + 1.0, rel=1e-10)

    def test_beta_factor(self, case):
        data, prior, alpha0, _, q_beta, lam = case
        xi = q_beta.shape / q_beta.rate
        expected_n = _observed(data) + lam
        assert q_beta.shape == pytest.approx(
            prior.beta.shape + expected_n * alpha0, rel=1e-10
        )
        assert q_beta.rate == pytest.approx(
            prior.beta.rate + _zeta(data, alpha0, xi, lam), rel=1e-10
        )

    def test_residual_intensity(self, case):
        data, _, alpha0, q_omega, q_beta, lam = case
        xi = q_beta.shape / q_beta.rate
        mean_log_omega = special.digamma(q_omega.shape) - math.log(q_omega.rate)
        mean_log_beta = special.digamma(q_beta.shape) - math.log(q_beta.rate)
        expected = math.exp(
            mean_log_omega + alpha0 * (mean_log_beta - math.log(xi))
        ) * special.gammaincc(alpha0, xi * data.horizon)
        assert lam == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("name", ["DT-Info", "DT-NoInfo"])
    def test_goel_okumoto_closed_form(self, name):
        # α0 = 1: E[T | T > te] = te + 1/ξ, so the β update solves to
        # ξ = (m_β + m) / (φ_β + Σ t_i + λ te)
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        posterior = fit_vb1(data, prior, 1.0)
        (q_beta,) = posterior._beta_components
        lam = posterior.diagnostics["lambda_star"]
        closed = (prior.beta.shape + data.count) / (
            prior.beta.rate + data.total_time + lam * data.horizon
        )
        assert q_beta.shape / q_beta.rate == pytest.approx(closed, rel=1e-12)
