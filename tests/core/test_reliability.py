"""Tests for the reliability-increment helper and the user-facing API."""

import math

import numpy as np
import pytest

from repro.core.reliability import (
    ReliabilityEstimate,
    ReliabilityIncrement,
    ResidualSurvival,
    estimate_reliability,
    reliability_increment,
)
from repro.models.gamma_srm import GammaSRM


class TestIncrement:
    def test_matches_model_cdf_difference(self):
        c = reliability_increment(2.0, 10.0, 3.0)
        model = GammaSRM(omega=1.0, beta=0.4, alpha0=2.0)
        expected = model.lifetime_cdf(13.0) - model.lifetime_cdf(10.0)
        assert c(0.4) == pytest.approx(expected, rel=1e-10)

    def test_zero_window(self):
        c = reliability_increment(1.0, 5.0, 0.0)
        assert c(0.3) == 0.0

    def test_vectorised(self):
        c = reliability_increment(1.0, 5.0, 2.0)
        betas = np.array([0.1, 0.2, 0.5])
        out = c(betas)
        assert out.shape == (3,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_deep_tail_stability(self):
        # te so large that both CDFs are 1 to machine precision: the SF
        # difference must return a clean 0, not a negative round-off.
        c = reliability_increment(1.0, 1e9, 1.0)
        assert c(1.0) == 0.0

    def test_derivative_matches_numeric(self):
        c = reliability_increment(2.0, 10.0, 3.0)
        beta = 0.37
        step = 1e-7
        numeric = (c(beta + step) - c(beta - step)) / (2.0 * step)
        assert c.derivative(beta) == pytest.approx(numeric, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            reliability_increment(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            reliability_increment(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            reliability_increment(1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            reliability_increment(1.0, 1.0, 1.0).derivative(0.0)

    def test_hashable_for_caching(self):
        a = reliability_increment(1.0, 5.0, 2.0)
        b = reliability_increment(1.0, 5.0, 2.0)
        assert a == b
        assert hash(a) == hash(b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNanHorizons:
    """A NaN ``te`` or ``u`` made every ``c(beta)`` NaN, so no quadrature
    cell stayed live and the interval collapsed to ``[1, 1]``: a
    silent "ship" verdict. Both now raise up front."""

    @pytest.mark.parametrize("te, u", [(math.nan, 1.0), (10.0, math.nan),
                                       (-1.0, 1.0), (10.0, -0.5)])
    def test_increment_rejects_nan_and_negative(self, te, u):
        with pytest.raises(ValueError, match="non-negative"):
            reliability_increment(1.0, te, u)

    def test_infinite_window_stays_valid(self):
        c = reliability_increment(1.0, 5.0, math.inf)
        assert c(0.2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("te", [math.nan, -2.0])
    def test_residual_survival_rejects_nan_and_negative(self, te):
        with pytest.raises(ValueError, match="non-negative"):
            ResidualSurvival(1.0, te)

    def test_estimate_rejects_nan_horizon(self, vb2_times):
        with pytest.raises(ValueError, match="te must be non-negative"):
            estimate_reliability(vb2_times, math.nan, 1.0)


class TestEstimateReliability:
    def test_estimate_structure(self, vb2_times, times_data):
        estimate = estimate_reliability(vb2_times, times_data.horizon, 1000.0)
        assert isinstance(estimate, ReliabilityEstimate)
        assert estimate.method == "VB2"
        assert 0.0 < estimate.lower < estimate.point < estimate.upper <= 1.0

    def test_longer_window_lower_reliability(self, vb2_times, times_data):
        short = estimate_reliability(vb2_times, times_data.horizon, 1000.0)
        long = estimate_reliability(vb2_times, times_data.horizon, 10_000.0)
        assert long.point < short.point

    def test_level_widens_interval(self, vb2_times, times_data):
        narrow = estimate_reliability(
            vb2_times, times_data.horizon, 5000.0, level=0.5
        )
        wide = estimate_reliability(vb2_times, times_data.horizon, 5000.0, level=0.99)
        assert wide.upper - wide.lower > narrow.upper - narrow.lower

    def test_point_within_model_plugin_neighbourhood(self, vb2_times, times_data):
        estimate = estimate_reliability(vb2_times, times_data.horizon, 1000.0)
        plug_in = GammaSRM(
            omega=vb2_times.mean("omega"),
            beta=vb2_times.mean("beta"),
            alpha0=1.0,
        ).reliability(times_data.horizon, 1000.0)
        assert estimate.point == pytest.approx(plug_in, abs=0.02)

    def test_str_rendering(self, vb2_times, times_data):
        estimate = estimate_reliability(vb2_times, times_data.horizon, 1000.0)
        text = str(estimate)
        assert "VB2" in text
        assert "99%" in text


#: Levels of the bisection-agreement checks.
_AGREEMENT_LEVELS = np.array([0.005, 0.025, 0.5, 0.975, 0.995])

#: The sequential tracker's prior (benchmarks/bench_warmstart.py).
_TRACKER_PRIOR = (100.0, 50.0, 0.2, 0.1)


def _tracker_campaign(seed, periods=34, failures=45):
    """A seeded decaying grouped campaign: ``failures`` spread over unit
    periods with intensity proportional to e^(-t/25)."""
    from repro.data.failure_data import GroupedData

    intensity = np.exp(-np.arange(periods) / 25.0)
    rng = np.random.default_rng(seed)
    return GroupedData(
        counts=rng.multinomial(failures, intensity / intensity.sum()),
        boundaries=np.arange(1.0, periods + 1.0),
    )


def _assert_matches_bisection(posterior, c):
    from repro.bayes.joint import JointPosterior

    fast = posterior.reliability_quantile_batch(_AGREEMENT_LEVELS, c)
    for q, value in zip(_AGREEMENT_LEVELS, fast):
        slow = JointPosterior.reliability_quantile(posterior, q, c)
        # both paths promise xtol = 1e-10 in r
        assert value == pytest.approx(slow, abs=5e-10)


#: ``(posterior, te / horizon, u / horizon)`` windows past the horizon,
#: where ``c(β)`` spans many decades and can be tiny: the moment start
#: degenerates (``s ~ 1e-23`` against a root near ``1e-4``), any two
#: ``s`` below ~1e-11 lie within tolerance in ``r``, and ``ρ = b / c(β)``
#: overflows. The paper grid, plus one window per step-acceptance
#: safeguard that no grid window needs.
_LONG_HORIZON_CASES = [
    (scenario, te_factor, u_factor)
    for scenario in ("DT-Info", "DT-NoInfo", "DG-Info", "DG-NoInfo")
    for te_factor in (3.0, 5.0, 80.0, 100.0, 1000.0)
    for u_factor in (1e-3, 0.1)
] + [
    # the curvature shrinks the Halley step to nothing far from the root
    ("DT-NoInfo", 2.0, 10.0),
    # F is log-flat over decades of tiny s, so a 30-fold Newton step
    # moves r by less than the tolerance
    ("late-failures", 20.0, 0.1),
]


@pytest.fixture(scope="module")
def long_horizon_posteriors():
    """VB2 fits of the paper's four scenarios, and of a small project
    whose last failures come late, keyed by name."""
    from repro.bayes.priors import ModelPrior
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import FailureTimeData
    from repro.experiments.config import paper_scenarios

    fits = {}
    for name, scenario in paper_scenarios().items():
        data = scenario.load_data()
        fits[name] = (
            fit_vb2(data, scenario.prior(), 1.0, scenario.vb_config), data
        )
    data = FailureTimeData(
        [3.44, 4.12, 56.76, 63.44, 72.21, 77.32, 82.38], horizon=88.0
    )
    prior = ModelPrior.informative(30.0, 10.0, 0.01, 0.005)
    fits["late-failures"] = (fit_vb2(data, prior, 1.0), data)
    return fits


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNewtonReliabilityQuantile:
    """VBPosterior's moment-started, safeguarded Halley quantile path vs
    the generic bisection on the full tables (docs/PERFORMANCE.md §5)."""

    def _early_posterior(self, alpha0):
        from repro.bayes.priors import ModelPrior
        from repro.core.vb2 import fit_vb2
        from repro.data.failure_data import GroupedData

        # an early-campaign posterior puts the lower reliability
        # quantile deep in the tail (r ~ 1e-4) — the regime where
        # plain Newton on F degenerates to bisection
        data = GroupedData(
            counts=np.array([5, 7, 4]), boundaries=np.array([1.0, 2.0, 3.0])
        )
        prior = ModelPrior.informative(*_TRACKER_PRIOR)
        return fit_vb2(data, prior, alpha0), data

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    @pytest.mark.parametrize("u", [0.5, 1.0, 5.0])
    def test_matches_generic_bisection(self, alpha0, u):
        posterior, data = self._early_posterior(alpha0)
        _assert_matches_bisection(
            posterior, reliability_increment(alpha0, data.horizon, u)
        )

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    @pytest.mark.parametrize("periods", [3, 17, 34])
    def test_matches_on_tracker_posteriors(self, alpha0, periods):
        from repro.bayes.priors import ModelPrior
        from repro.core.vb2 import fit_vb2

        # the sequential tracker's regime: hundreds of mixture
        # components, most cells far too light to move the CDF
        data = _tracker_campaign(seed=501).truncate(periods)
        posterior = fit_vb2(data, ModelPrior.informative(*_TRACKER_PRIOR), alpha0)
        assert posterior.n_components >= 100
        _assert_matches_bisection(
            posterior, reliability_increment(alpha0, data.horizon, 1.0)
        )

    def test_matches_on_fleet_posterior(self):
        from repro.bayes.priors import ModelPrior
        from repro.core.vb2 import fit_vb2
        from repro.data.simulation import simulate_failure_times
        from repro.models.goel_okumoto import GoelOkumoto

        # one project of a fleet report: a window a tenth of the horizon
        data = simulate_failure_times(
            GoelOkumoto(21.0, 0.012), 80.0, np.random.default_rng(7)
        )
        prior = ModelPrior.informative(30.0, 10.0, 0.01, 0.005)
        posterior = fit_vb2(data, prior, 1.0)
        assert posterior.n_components >= 100
        _assert_matches_bisection(
            posterior, reliability_increment(1.0, data.horizon, 0.1 * data.horizon)
        )

    def test_matches_on_late_posterior(self, vb2_times, times_data):
        _assert_matches_bisection(
            vb2_times, reliability_increment(1.0, times_data.horizon, 1000.0)
        )

    @pytest.mark.parametrize("scenario, te_factor, u_factor",
                             _LONG_HORIZON_CASES)
    def test_matches_at_long_horizons(self, long_horizon_posteriors, scenario,
                                      te_factor, u_factor):
        from repro.core.reliability import ReliabilityIncrement

        posterior, data = long_horizon_posteriors[scenario]
        _assert_matches_bisection(
            posterior,
            ReliabilityIncrement(
                1.0, te_factor * data.horizon, u_factor * data.horizon
            ),
        )

    def test_exhausted_budget_raises(self, vb2_times, times_data, monkeypatch):
        import repro.core.posterior as posterior_module
        from repro.exceptions import ConvergenceError

        # one sweep is too few for any level here: an exhausted budget
        # raises rather than returning a bracket midpoint
        monkeypatch.setattr(posterior_module, "_MAX_SWEEPS", 1)
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        with pytest.raises(ConvergenceError, match="1 sweeps"):
            vb2_times.reliability_quantile_batch(np.array([0.025, 0.975]), c)

    def test_scalar_delegates_to_batch(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        batch = vb2_times.reliability_quantile_batch(np.array([0.25]), c)
        assert vb2_times.reliability_quantile(0.25, c) == batch[0]

    def test_monotone_in_level(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        levels = np.linspace(0.01, 0.99, 9)
        values = vb2_times.reliability_quantile_batch(levels, c)
        assert np.all(np.diff(values) > 0)

    def test_zero_window_is_certain(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 0.0)
        values = vb2_times.reliability_quantile_batch(
            np.array([0.025, 0.975]), c
        )
        np.testing.assert_array_equal(values, 1.0)

    def test_level_validation(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="quantile levels"):
                vb2_times.reliability_quantile_batch(np.array([bad]), c)

    @pytest.mark.parametrize("level", [0.95, 0.99])
    @pytest.mark.parametrize("case", ["late", "early"])
    def test_debug_span_records_solver_work(self, case, level, vb2_times,
                                            times_data):
        from repro import obs

        if case == "late":
            posterior = vb2_times
            c = reliability_increment(1.0, times_data.horizon, 1000.0)
        else:
            posterior, data = self._early_posterior(1.0)
            c = reliability_increment(1.0, data.horizon, 1.0)
        with obs.capture(level="debug") as collector:
            posterior.reliability_interval(level, c)
        (span,) = [
            e for e in collector.events
            if e["kind"] == "span" and e["name"] == "reliability.quantile"
        ]
        assert span["lanes"] == 2
        assert 0 < span["cells"] <= posterior.n_components * 48
        assert 0.0 <= span["dropped_mass"] <= 1e-13
        assert 0 <= span["bracket_exits"] <= 2
        # the moment start plus Halley steps takes 3-4 sweeps here;
        # Newton steps from an omega-quantile start took 7-8
        assert span["sweeps"] <= 5


@pytest.fixture(scope="module")
def five_methods(times_data, info_prior_times, vb2_times, vb1_times, nint_times,
                 quick_chain_settings):
    """DT-Info posteriors of the five methods the paper compares."""
    from repro.bayes.laplace import fit_laplace
    from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time

    chain = gibbs_failure_time(times_data, info_prior_times, 1.0,
                               quick_chain_settings)
    return {
        "NINT": nint_times,
        "LAPL": fit_laplace(times_data, info_prior_times, 1.0),
        "MCMC": chain.posterior(),
        "VB1": vb1_times,
        "VB2": vb2_times,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDegenerateWindows:
    """A window where ``c(β) = 0`` for every β makes ``R = 1`` surely:
    every method reports the point and both bounds as exactly 1."""

    @pytest.mark.parametrize("te_factor, u", [(1.0, 0.0), (math.inf, 1000.0)])
    @pytest.mark.parametrize("method", ["NINT", "LAPL", "MCMC", "VB1", "VB2"])
    def test_reliability_is_surely_one(self, five_methods, times_data, method,
                                       te_factor, u):
        estimate = estimate_reliability(five_methods[method],
                                        te_factor * times_data.horizon, u)
        assert estimate.point == estimate.lower == estimate.upper == 1.0

    @pytest.mark.parametrize("method", ["NINT", "LAPL", "MCMC", "VB1", "VB2"])
    def test_residual_count_is_surely_zero_at_infinite_horizon(
            self, five_methods, method):
        lower, upper = five_methods[method].residual_interval(
            0.9, ResidualSurvival(1.0, math.inf))
        assert lower == upper == 0.0

    def test_increment_slope_vanishes_at_infinite_horizon(self):
        assert ReliabilityIncrement(1.0, math.inf, 1.0).derivative(0.01) == 0.0


class TestResidualQuantiles:
    """Residual-count quantiles are solved in ``s = -log r`` to a
    relative tolerance: bisecting ``r`` to 1e-10 capped every bound at
    ``-log(2.9e-11) = 24.26``."""

    @pytest.mark.parametrize("failures", [20, 8, 3])
    def test_vb2_interval_matches_posterior_draws(self, failures):
        from repro.core.vb2 import fit_vb2
        from repro.data.failure_data import FailureTimeData
        from repro.experiments.config import paper_scenarios

        scenario = paper_scenarios()["DT-Info"]
        times = scenario.load_data().times[:failures]
        data = FailureTimeData(times, horizon=float(times[-1]))
        posterior = fit_vb2(data, scenario.prior(), 1.0, scenario.vb_config)
        survival = ResidualSurvival(1.0, data.horizon)
        interval = posterior.residual_interval(0.9, survival)
        draws = posterior.sample(200_000, np.random.default_rng(2024))
        residual = draws[:, 0] * np.asarray(survival(draws[:, 1]))
        np.testing.assert_allclose(
            interval, np.quantile(residual, [0.05, 0.95]), rtol=0.01
        )

    def test_sample_posterior_bounds_are_reliability_ranks(self, five_methods,
                                                           times_data):
        # (1 - q) n is a whole number at these levels: the empirical CDF
        # of D is flat on a whole order-statistic gap there, where a
        # bisection would settle on the gap's lower end.
        posterior = five_methods["MCMC"]
        assert posterior.n_samples % 20 == 0
        levels = np.array([0.05, 0.1, 0.5, 0.9, 0.95])
        survival = ResidualSurvival(1.0, times_data.horizon)
        reliability = np.sort(np.exp(
            -posterior.samples[:, 0] * survival(posterior.samples[:, 1])
        ))
        ranks = np.rint((1.0 - levels) * posterior.n_samples).astype(int)
        np.testing.assert_array_equal(
            posterior.residual_quantile_batch(levels, survival),
            -np.log(reliability[ranks - 1]),
        )
