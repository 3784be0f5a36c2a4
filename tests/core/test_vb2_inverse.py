"""The VB2 conditional solve checked against its own mathematics.

VB2 finds ``ξ_N = E[β | N]`` for every latent count by inverting the
closed-form ``N(ξ)`` of the conditional equation
``ξ (φ_β + A(ξ) + (N − m) C(ξ)) = m_β + N α0``. The reference is that
equation, evaluated here independently of the fitting code with
``scipy.special``: every lane of every posterior must give back its own
``N`` to 1e-9 relative, and its gamma parameters must satisfy the
conditional updates to 1e-10. ``ξ_N`` is read off the posterior as
``a_β / b_β``, which equals it at the solution.
"""

import math

import numpy as np
import pytest
from scipy import special

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.fleet import fit_vb2_fleet
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import ConvergenceError, TruncationError
from repro.experiments.config import paper_scenarios

IDENTITY_RTOL = 1e-9
EQUATION_RTOL = 1e-10


def _observed(data):
    return data.count if isinstance(data, FailureTimeData) else data.total_count


def _lifetime_sum(data, alpha0, xi):
    """``A(ξ)`` per lane: ``Σ t_i``, or ``Σ x_i E[T | interval_i]``."""
    if isinstance(data, FailureTimeData):
        return np.full(xi.shape, data.total_time)
    total = np.zeros(xi.shape)
    for lo, hi, count in data.intervals():
        if count:
            mass = special.gammainc(alpha0, xi * hi) - special.gammainc(
                alpha0, xi * lo
            )
            first = special.gammainc(alpha0 + 1.0, xi * hi) - special.gammainc(
                alpha0 + 1.0, xi * lo
            )
            total += count * (alpha0 / xi) * first / mass
    return total


def _tail_mean(data, alpha0, xi):
    """``C(ξ) = E[T | T > t_e]``."""
    x = xi * data.horizon
    return (alpha0 / xi) * special.gammaincc(alpha0 + 1.0, x) / (
        special.gammaincc(alpha0, x)
    )


def reference_n_of_xi(data, prior, alpha0, xi):
    """``N(ξ) = (m_β + m ξ C − ξ (φ_β + A)) / (ξ C − α0)``."""
    m = _observed(data)
    c = _tail_mean(data, alpha0, xi)
    a = _lifetime_sum(data, alpha0, xi)
    return (
        prior.beta.shape + m * xi * c - xi * (prior.beta.rate + a)
    ) / (xi * c - alpha0)


def lane_xi(posterior):
    return posterior._beta_shape / posterior._beta_rate


def assert_identity(posterior, data, prior, alpha0):
    n = np.asarray(posterior.n_values, dtype=float)
    got = reference_n_of_xi(data, prior, alpha0, lane_xi(posterior))
    scale = np.maximum(n, 1.0)
    worst = float(np.max(np.abs(got - n) / scale))
    assert worst <= IDENTITY_RTOL, worst


def assert_conditional_equations(posterior, data, prior, alpha0):
    n = np.asarray(posterior.n_values, dtype=float)
    xi = lane_xi(posterior)
    m = _observed(data)
    zeta = _lifetime_sum(data, alpha0, xi) + (n - m) * _tail_mean(
        data, alpha0, xi
    )
    np.testing.assert_allclose(
        posterior._beta_shape, prior.beta.shape + n * alpha0,
        rtol=EQUATION_RTOL,
    )
    np.testing.assert_allclose(
        posterior._beta_rate, prior.beta.rate + zeta, rtol=EQUATION_RTOL
    )
    for component, shape in zip(posterior._omega_components,
                                prior.omega.shape + n):
        assert component.shape == pytest.approx(shape, rel=EQUATION_RTOL)
        assert component.rate == pytest.approx(
            prior.omega.rate + 1.0, rel=EQUATION_RTOL
        )


def _campaign(periods=50, seed=7):
    """The decaying grouped test campaign of the warm-start benchmark."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(6.0 * np.exp(-np.arange(periods) / 25.0))
    return GroupedData(counts=counts, boundaries=np.arange(1.0, periods + 1.0))


CAMPAIGN_PRIOR = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)


class TestPaperScenarios:
    """DT/DG × Info/NoInfo (NoInfo clamped at 1024) at α0 ∈ {1, 2, 1.5}."""

    @pytest.fixture(
        scope="class",
        params=[
            (name, alpha0)
            for name in ("DT-Info", "DT-NoInfo", "DG-Info", "DG-NoInfo")
            for alpha0 in (1.0, 2.0, 1.5)
        ],
        ids=lambda p: f"{p[0]}-{p[1]}",
    )
    def case(self, request):
        name, alpha0 = request.param
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        posterior = fit_vb2(data, prior, alpha0, scenario.vb_config)
        return posterior, data, prior, alpha0

    def test_n_of_xi_is_n(self, case):
        assert_identity(*case)

    def test_conditional_equations(self, case):
        assert_conditional_equations(*case)


class TestGoelOkumotoClosedForm:
    """DESIGN erratum 1: at α0 = 1 on failure times every lane is
    ``ξ_N = (m_β + m) / (φ_β + Σ t_i + (N − m) t_e)``."""

    @pytest.mark.parametrize("name", ["DT-Info", "DT-NoInfo"])
    def test_every_lane(self, name):
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        posterior = fit_vb2(data, prior, 1.0, scenario.vb_config)
        n = np.asarray(posterior.n_values, dtype=float)
        want = (prior.beta.shape + data.count) / (
            prior.beta.rate + data.total_time + (n - data.count) * data.horizon
        )
        np.testing.assert_allclose(lane_xi(posterior), want, rtol=1e-12)
        assert posterior.diagnostics["fixed_point_iterations"] == 0


class TestTrackerPeriods:
    @pytest.mark.parametrize("alpha0", [1.0, 2.0, 1.5])
    @pytest.mark.parametrize("period", [1, 10, 34])
    def test_cold_fit(self, period, alpha0):
        data = _campaign().truncate(period)
        posterior = fit_vb2(data, CAMPAIGN_PRIOR, alpha0)
        assert_identity(posterior, data, CAMPAIGN_PRIOR, alpha0)
        assert_conditional_equations(posterior, data, CAMPAIGN_PRIOR, alpha0)


class TestMixedFleet:
    def test_every_dataset(self):
        scenarios = paper_scenarios()
        datasets, priors, alpha0s = [], [], []
        for k, name in enumerate(("DT-Info", "DG-Info", "DT-Info", "DG-Info")):
            scenario = scenarios[name]
            datasets.append(scenario.load_data())
            priors.append(scenario.prior())
            alpha0s.append((1.0, 2.0, 1.5, 1.5)[k])
        campaign = _campaign()
        for period in (5, 20, 50):
            datasets.append(campaign.truncate(period))
            priors.append(CAMPAIGN_PRIOR)
            alpha0s.append(2.0 if period == 20 else 1.0)
        fleet = fit_vb2_fleet(datasets, priors, alpha0s)
        for i, data in enumerate(datasets):
            posterior = fleet.posterior(i)
            assert_identity(posterior, data, priors[i], alpha0s[i])
            assert_conditional_equations(
                posterior, data, priors[i], alpha0s[i]
            )


class TestBracketStaysNearTheLanes:
    """Past the crossing of ``N = m``, ``N(ξ)`` can fall to a minimum
    below its large-``ξ`` limit and rise again. A prior-moment seed far
    beyond the lanes' crossing must not put nodes on that branch."""

    @pytest.mark.parametrize(
        "counts, edges, beta_mean, beta_std, alpha0",
        [
            # all failures in the first interval, a tight beta prior
            ([12] + [0] * 10,
             [0.5888, 1.3358, 2.3645, 3.1187, 3.8259, 4.1872, 5.0571,
              5.8431, 7.0788, 7.3789, 7.5984],
             0.00280017, 0.000712297, 2.0),
            # no failure yet
            ([0], [322.2783], 0.00232321, 0.000708085, 5.0),
        ],
    )
    def test_far_seed(self, counts, edges, beta_mean, beta_std, alpha0):
        data = GroupedData(counts=np.array(counts), boundaries=np.array(edges))
        prior = ModelPrior.informative(30.0, 20.0, beta_mean, beta_std)
        posterior = fit_vb2(data, prior, alpha0)
        assert_identity(posterior, data, prior, alpha0)
        assert_conditional_equations(posterior, data, prior, alpha0)


class TestSolverRecord:
    def test_inverse_span(self):
        # One debug span per growth round, carrying the solver's health.
        data = _campaign().truncate(20)
        with obs.capture(level="debug") as col:
            posterior = fit_vb2(data, CAMPAIGN_PRIOR, 2.0)
        spans = [
            e for e in col.events
            if e["kind"] == "span" and e["name"] == "vb2.inverse"
        ]
        assert len(spans) == posterior.diagnostics["n_growth_rounds"] + 1
        assert sum(sp["lanes"] for sp in spans) == len(posterior.n_values)
        for sp in spans:
            assert sp["datasets"] == 1 and sp["nodes"] == 64
            assert sp["bracket_steps"] >= 1 and 1 <= sp["sweeps"] <= 10
            assert sp["max_step"] <= VBConfig().fixed_point_rtol


class TestTypedErrors:
    def test_polish_budget_names_the_dataset(self):
        campaign = _campaign()
        datasets = [campaign.truncate(10), campaign.truncate(30)]
        config = VBConfig(fixed_point_max_iter=1)
        with pytest.raises(ConvergenceError, match=r"^dataset 0: polish"):
            fit_vb2_fleet(datasets, CAMPAIGN_PRIOR, 2.0, config)
        with pytest.raises(ConvergenceError, match=r"^polish of xi at N="):
            fit_vb2(datasets[1], CAMPAIGN_PRIOR, 2.0, config)

    @pytest.mark.parametrize("name", ["DT-NoInfo", "DG-NoInfo"])
    def test_improper_prior_at_the_ceiling(self, name):
        # At α0 = 1 the flat prior leaves Pv(N) a polynomial tail.
        scenario = paper_scenarios()[name]
        data, prior, alpha0 = scenario.load_data(), scenario.prior(), 1.0
        assert not prior.is_proper
        small = VBConfig(nmax_ceiling=200)
        with pytest.raises(TruncationError, match="ceiling 200"):
            fit_vb2(data, prior, alpha0, small)
        clamped = VBConfig(nmax_ceiling=200, truncation_policy="clamp")
        posterior = fit_vb2(data, prior, alpha0, clamped)
        assert posterior.diagnostics["truncation_clamped"] is True
        assert posterior.diagnostics["nmax"] == 200
        weights = np.asarray(posterior.weights)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=1e-12)
        assert_identity(posterior, data, prior, alpha0)
        for param in ("omega", "beta"):
            lo, hi = posterior.credible_interval(param, 0.95)
            assert 0.0 < lo < posterior.mean(param) < hi < math.inf
