"""Tests for the MAP finder and the Laplace approximation."""

import math
import warnings

import numpy as np
import pytest

from repro.bayes.laplace import _Profile, find_map, fit_laplace, log_posterior_fn
from repro.bayes.normal_posterior import NormalPosterior
from repro.bayes.priors import ModelPrior
from repro.core.reliability import reliability_increment
from repro.data.datasets import ntds_failure_times
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import EstimationError
from repro.experiments.config import paper_scenarios


def _central_hessian(log_post, point: np.ndarray, rel: float) -> np.ndarray:
    """Central-difference Hessian with steps ``rel`` times each coordinate."""
    steps = rel * point

    def f(p: np.ndarray) -> float:
        return log_post(p[0], p[1])

    hess = np.empty((2, 2))
    f0 = f(point)
    for i in range(2):
        e = np.zeros(2)
        e[i] = steps[i]
        hess[i, i] = (f(point + e) - 2.0 * f0 + f(point - e)) / steps[i] ** 2
    e0 = np.array([steps[0], 0.0])
    e1 = np.array([0.0, steps[1]])
    hess[0, 1] = hess[1, 0] = (
        f(point + e0 + e1) - f(point + e0 - e1)
        - f(point - e0 + e1) + f(point - e0 - e1)
    ) / (4.0 * steps[0] * steps[1])
    return hess


class TestLogPosterior:
    def test_out_of_domain_is_minus_inf(self, times_data, info_prior_times):
        log_post = log_posterior_fn(times_data, info_prior_times, 1.0)
        assert log_post(-1.0, 1e-5) == -math.inf
        assert log_post(40.0, 0.0) == -math.inf


class TestFindMap:
    def test_map_is_local_maximum(self, times_data, info_prior_times):
        log_post = log_posterior_fn(times_data, info_prior_times, 1.0)
        omega_hat, beta_hat = find_map(times_data, info_prior_times)
        centre = log_post(omega_hat, beta_hat)
        for d_omega in (-1e-3, 1e-3):
            for d_beta in (-1e-9, 1e-9):
                assert log_post(omega_hat + d_omega, beta_hat + d_beta) <= centre + 1e-9

    def test_flat_prior_map_equals_mle(self, times_data, flat_prior):
        # With flat priors the MAP is the MLE (paper Section 4.2): the
        # Goel-Okumoto likelihood equations hold at it,
        # ω = m / G(te; β) and a zero β-score.
        omega_hat, beta_hat = find_map(times_data, flat_prior)
        m, te = times_data.count, times_data.horizon
        assert omega_hat == pytest.approx(
            m / -math.expm1(-beta_hat * te), rel=1e-6
        )
        beta_score = (
            m / beta_hat
            - times_data.times.sum()
            - omega_hat * te * math.exp(-beta_hat * te)
        )
        assert beta_hat * beta_score / m == pytest.approx(0.0, abs=1e-6)

    def test_informative_prior_shrinks_towards_prior_mean(
        self, times_data, info_prior_times, flat_prior
    ):
        map_info, _ = find_map(times_data, info_prior_times)
        map_flat, _ = find_map(times_data, flat_prior)
        # Prior mean for omega is 50; the informative MAP moves toward it.
        assert abs(map_info - 50.0) < abs(map_flat - 50.0)

    def test_grouped_data(self, grouped_data, info_prior_grouped):
        omega_hat, beta_hat = find_map(grouped_data, info_prior_grouped)
        assert 35.0 < omega_hat < 55.0
        assert 0.01 < beta_hat < 0.08

    @pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("scenario", sorted(paper_scenarios()))
    def test_profile_newton_is_stationary(self, scenario, alpha0):
        # The Newton step left at the returned MAP, |p'(s)/p''(s)| on the
        # profile in s = log(beta), is at rounding level; and omega is
        # the profile's closed-form maximiser, a zero of the omega score.
        spec = paper_scenarios()[scenario]
        data, prior = spec.load_data(), spec.prior()
        omega_hat, beta_hat = find_map(data, prior, alpha0)
        profile = _Profile(data, prior, alpha0)
        slope, curvature = profile(math.log(beta_hat))
        assert curvature < 0.0
        assert abs(slope / curvature) <= 1e-10
        log_post = log_posterior_fn(data, prior, alpha0)
        step = 1e-6 * omega_hat
        omega_score = (
            log_post(omega_hat + step, beta_hat) - log_post(omega_hat - step, beta_hat)
        ) / (2.0 * step)
        assert abs(omega_score) * omega_hat <= 1e-6

    @pytest.mark.parametrize("counts", [
        [5000, 0, 0, 0, 1],
        [100] + [0] * 18 + [1],
    ], ids=["5-intervals", "20-intervals"])
    def test_walk_backs_off_where_interval_mass_underflows(self, counts):
        # The bracket walk's doubling steps overshoot into betas where
        # the last interval has no model mass (a non-finite profile);
        # it retries shorter steps and still brackets the mode. Near the
        # mode that interval's mass is ~1e-14, so its increment must come
        # from the survival function, not from two CDF values near 1.
        data = GroupedData(counts, np.arange(1.0, len(counts) + 1.0))
        prior = ModelPrior.noninformative()
        _, beta_hat = find_map(data, prior)
        slope, curvature = _Profile(data, prior, 1.0)(math.log(beta_hat))
        assert abs(slope / curvature) <= 1e-10


class TestNoInteriorMode:
    """A posterior whose mode lies on the boundary of the parameter
    space has no Laplace approximation: the fit raises a typed error
    instead of returning a normal centred on the boundary."""

    def test_ntds_flat_prior_at_half_shape(self):
        # The profile rises toward beta -> 0 with omega -> infinity.
        with pytest.raises(EstimationError, match="no interior mode"):
            fit_laplace(ntds_failure_times(), ModelPrior.noninformative(), 0.5)

    @pytest.mark.parametrize("data", [
        FailureTimeData(np.array([]), horizon=100.0),
        GroupedData([0, 0, 0], [1.0, 2.0, 3.0]),
    ], ids=["times", "grouped"])
    def test_zero_failures_under_flat_priors(self, data):
        # m_omega + m = 1: the omega mode is at 0.
        with pytest.raises(EstimationError, match="no interior mode"):
            fit_laplace(data, ModelPrior.noninformative())

    def test_grouped_profile_rising_to_a_plateau(self):
        # Every failure in the first interval: the profile increases
        # toward beta -> infinity, where its slope underflows to 0.
        with pytest.raises(EstimationError, match="no interior mode"):
            find_map(GroupedData([5, 0, 0], [1.0, 2.0, 3.0]),
                     ModelPrior.noninformative())

    def test_dt_noinfo_half_shape_keeps_its_interior_mode(self):
        # A flat but interior profile: its slope near the MAP is ~1e-3
        # per unit of log(beta) away from it.
        spec = paper_scenarios()["DT-NoInfo"]
        _, beta_hat = find_map(spec.load_data(), spec.prior(), 0.5)
        assert beta_hat == pytest.approx(2.83e-7, rel=2e-3)

    def test_bracket_emits_no_numpy_warning(self):
        # Walks down to the beta*t_e floor, up through a plateau whose
        # slope underflows, and into betas where an occupied interval
        # has no model mass left in double precision.
        flat = ModelPrior.noninformative()
        cases = [
            (ntds_failure_times(), 0.5),
            (GroupedData([5, 0, 0], [1.0, 2.0, 3.0]), 1.0),
            (GroupedData([0, 0, 5], [1.0, 2.0, 3.0]), 2.0),
            # The mode puts e^(-101 beta) of mass on the last interval,
            # below the smallest double.
            (GroupedData([10**12] + [0] * 100 + [1], np.arange(1.0, 103.0)), 1.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data, alpha0 in cases:
                with pytest.raises(EstimationError, match="LAPL found no MAP"):
                    find_map(data, flat, alpha0)


class TestFitLaplace:
    def test_mean_is_map(self, times_data, info_prior_times):
        posterior = fit_laplace(times_data, info_prior_times)
        omega_hat, beta_hat = find_map(times_data, info_prior_times)
        assert posterior.mean("omega") == pytest.approx(omega_hat, rel=1e-6)
        assert posterior.mean("beta") == pytest.approx(beta_hat, rel=1e-6)

    def test_map_below_posterior_mean_for_right_skew(
        self, times_data, info_prior_times, nint_times
    ):
        # The paper's explanation of LAPL's bias (Figure 1 discussion):
        # right-skewed posterior => MAP < E[omega].
        posterior = fit_laplace(times_data, info_prior_times)
        assert posterior.mean("omega") < nint_times.mean("omega")

    def test_negative_covariance(self, times_data, info_prior_times):
        posterior = fit_laplace(times_data, info_prior_times)
        assert posterior.covariance() < 0.0

    def test_symmetric_marginals(self, times_data, info_prior_times):
        posterior = fit_laplace(times_data, info_prior_times)
        mean = posterior.mean("omega")
        lo, hi = posterior.credible_interval("omega", 0.99)
        assert hi - mean == pytest.approx(mean - lo, rel=1e-9)
        assert posterior.central_moment("omega", 3) == 0.0

    def test_variance_close_to_nint_for_peaked_posterior(
        self, times_data, info_prior_times, nint_times
    ):
        posterior = fit_laplace(times_data, info_prior_times)
        assert posterior.variance("beta") == pytest.approx(
            nint_times.variance("beta"), rel=0.1
        )

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    @pytest.mark.parametrize("scenario", sorted(paper_scenarios()))
    def test_precision_is_the_exact_hessian(self, scenario, alpha0):
        # The covariance inverts the exact negative Hessian of the log
        # posterior; Richardson-extrapolated central differences reach
        # it to ~2e-8 relative.
        spec = paper_scenarios()[scenario]
        data, prior = spec.load_data(), spec.prior()
        posterior = fit_laplace(data, prior, alpha0)
        point = np.array([posterior.mean("omega"), posterior.mean("beta")])
        log_post = log_posterior_fn(data, prior, alpha0)
        reference = -(
            4.0 * _central_hessian(log_post, point, 1e-3)
            - _central_hessian(log_post, point, 2e-3)
        ) / 3.0
        precision = np.linalg.inv(posterior.covariance_matrix())
        assert np.max(np.abs(precision - reference) / np.abs(reference)) <= 1e-7

    def test_diagnostics_attached(self, times_data, info_prior_times):
        posterior = fit_laplace(times_data, info_prior_times)
        assert "map" in posterior.diagnostics
        assert posterior.diagnostics["alpha0"] == 1.0


class TestNormalPosterior:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormalPosterior(np.array([1.0]), np.eye(2))
        with pytest.raises(ValueError):
            NormalPosterior(np.array([1.0, 1.0]), np.eye(3))
        with pytest.raises(ValueError):
            NormalPosterior(np.array([1.0, 1.0]), -np.eye(2))

    def test_moments(self):
        cov = np.array([[4.0, -0.5], [-0.5, 0.25]])
        posterior = NormalPosterior(np.array([40.0, 2.0]), cov)
        assert posterior.mean("omega") == 40.0
        assert posterior.variance("beta") == 0.25
        assert posterior.covariance() == pytest.approx(-0.5)
        assert posterior.cross_moment() == pytest.approx(40.0 * 2.0 - 0.5)

    def test_normal_central_moments(self):
        posterior = NormalPosterior(np.array([0.0, 0.0]), np.diag([4.0, 1.0]))
        assert posterior.central_moment("omega", 2) == pytest.approx(4.0)
        assert posterior.central_moment("omega", 4) == pytest.approx(48.0)
        assert posterior.central_moment("omega", 3) == 0.0

    def test_quantiles_can_be_negative(self):
        # The known Laplace pathology the paper prints in brackets.
        posterior = NormalPosterior(np.array([1.0, 0.001]), np.diag([1.0, 1.0]))
        assert posterior.quantile("beta", 0.005) < 0.0

    def test_log_pdf_grid(self):
        posterior = NormalPosterior(np.array([1.0, 2.0]), np.eye(2))
        grid = posterior.log_pdf_grid(np.array([0.5, 1.0]), np.array([1.5, 2.0, 2.5]))
        assert grid.shape == (2, 3)
        assert np.argmax(grid) == 1 * 3 + 1  # peak at (1.0, 2.0)

    def test_reliability_plug_in_point(self, times_data):
        posterior = NormalPosterior(
            np.array([40.0, 1e-5]), np.diag([36.0, 4e-12])
        )
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        point = posterior.reliability_point(c)
        expected = math.exp(-40.0 * float(c(1e-5)))
        assert point == pytest.approx(expected, rel=1e-12)

    def test_reliability_interval_can_exceed_one(self, times_data):
        # Small window, large variance: the delta-method upper bound
        # crosses 1 — the paper's <1.0024> phenomenon.
        posterior = NormalPosterior(
            np.array([40.0, 1e-5]), np.diag([100.0, 4e-11])
        )
        c = reliability_increment(1.0, times_data.horizon, 100.0)
        upper = posterior.reliability_quantile(0.9999, c)
        assert upper > 1.0

    def test_reliability_cdf_is_normal(self, times_data):
        posterior = NormalPosterior(np.array([40.0, 1e-5]), np.diag([36.0, 4e-12]))
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        point = posterior.reliability_point(c)
        assert posterior.reliability_cdf(point, c) == pytest.approx(0.5, abs=1e-9)

    def test_sampling(self, rng):
        cov = np.array([[4.0, -0.5], [-0.5, 0.25]])
        posterior = NormalPosterior(np.array([40.0, 2.0]), cov)
        draws = posterior.sample(200_000, rng)
        assert draws[:, 0].mean() == pytest.approx(40.0, abs=0.05)
        assert np.cov(draws.T)[0, 1] == pytest.approx(-0.5, abs=0.02)


#: ``fit_laplace`` MAP and covariance on the paper's four scenarios
#: (``repr`` of each float): the MAP as the profile Newton gives it, the
#: covariance as the inverse of the analytic observed information plus
#: the prior's curvature at that MAP.
_LAPLACE_GOLDEN = {
    "DT-Info": (
        (43.18509747439235, 9.13620884066076e-06),
        ((44.110311364716935, -4.180866261915707e-06),
         (-4.180866261915707e-06, 3.934517992073917e-12)),
    ),
    "DT-NoInfo": (
        (42.53129530230078, 9.33013469868522e-06),
        ((57.86313750622129, -8.429422328481657e-06),
         (-8.429422328481657e-06, 6.9253095886999485e-12)),
    ),
    "DG-Info": (
        (43.20898071500164, 0.034176771100925755),
        ((44.36780374809882, -0.016325889462055133),
         (-0.016325889462055133, 5.724242748849008e-05)),
    ),
    "DG-NoInfo": (
        (41.58660828797968, 0.03829017515530129),
        ((51.92623990706876, -0.02553460887541266),
         (-0.02553460887541266, 0.00010164719139106218)),
    ),
}


@pytest.mark.parametrize("name", sorted(_LAPLACE_GOLDEN))
def test_laplace_fit_unchanged(name):
    scenario = paper_scenarios()[name]
    posterior = fit_laplace(scenario.load_data(), scenario.prior(), scenario.alpha0)
    mean, cov = _LAPLACE_GOLDEN[name]
    assert np.array_equal(posterior.map_estimate, np.array(mean))
    assert np.array_equal(posterior._cov, np.array(cov))
