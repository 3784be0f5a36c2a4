"""Fleet fitting: one vectorized sweep over a portfolio of projects.

The load-bearing property is *bit-identity*: every dataset's fleet
result must equal the scalar fit exactly (max abs diff 0.0 across
weights, components, ELBO and diagnostics), for any mix of data kinds,
shapes, priors and truncation settings sharing the sweep.
"""

import numpy as np
import pytest

from repro.bayes.priors import ModelPrior
from repro.core import fit_vb1_fleet, fit_vb2_fleet
from repro.core.config import VBConfig
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.data.simulation import simulate_failure_times, simulate_grouped
from repro.exceptions import ConvergenceError, TruncationError
from repro.models import GoelOkumoto


@pytest.fixture(scope="module")
def portfolio():
    """Ragged mixed-kind portfolio: failure-time and grouped datasets
    of different sizes and horizons."""
    rng = np.random.default_rng(20260809)
    times = [
        simulate_failure_times(GoelOkumoto(18.0 + 6.0 * i, 0.011), 75.0 + 4.0 * i, rng)
        for i in range(5)
    ]
    grouped = [
        simulate_grouped(
            GoelOkumoto(24.0 + 5.0 * i, 0.013),
            np.linspace(0.0, 85.0 + 6.0 * i, 9 + 2 * i)[1:],
            rng,
        )
        for i in range(4)
    ]
    return times + grouped


@pytest.fixture(scope="module")
def prior():
    return ModelPrior.informative(30.0, 10.0, 0.01, 0.005)


def _components(posterior):
    return [
        (c.shape, c.rate)
        for c in posterior._omega_components + posterior._beta_components
    ]


def assert_identical(fleet_posterior, scalar_posterior):
    """Exact equality: mixture support, weights, every gamma component,
    ELBO and the diagnostics dict (modulo the per-fit telemetry entry)."""
    ns_f, w_f = fleet_posterior.fault_count_pmf()
    ns_s, w_s = scalar_posterior.fault_count_pmf()
    assert list(ns_f) == list(ns_s)
    assert float(np.max(np.abs(w_f - w_s))) == 0.0
    assert _components(fleet_posterior) == _components(scalar_posterior)
    assert fleet_posterior.elbo == scalar_posterior.elbo
    scalar_diag = {
        k: v for k, v in scalar_posterior.diagnostics.items() if k != "telemetry"
    }
    assert fleet_posterior.diagnostics == scalar_diag


class TestVB2Identity:
    def test_mixed_portfolio_goel_okumoto(self, portfolio, prior):
        fleet = fit_vb2_fleet(portfolio, prior, 1.0)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb2(data, prior, 1.0))

    def test_fixed_point_shape(self, portfolio, prior):
        fleet = fit_vb2_fleet(portfolio, prior, 2.0)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb2(data, prior, 2.0))

    def test_per_dataset_alpha0_nmax_and_priors(self, portfolio, prior):
        other = ModelPrior.informative(40.0, 14.0, 0.02, 0.008)
        priors = [prior, other] * 5
        alphas = [1.0, 2.0, 1.0] * 3
        nmaxes = [None, 70, None] * 3
        count = len(portfolio)
        fleet = fit_vb2_fleet(
            portfolio, priors[:count], alphas[:count], nmax=nmaxes[:count]
        )
        for i, data in enumerate(portfolio):
            scalar = fit_vb2(data, priors[i], alphas[i], nmax=nmaxes[i])
            assert_identical(fleet.posterior(i), scalar)

    def test_growth_rounds_match(self, portfolio, prior):
        config = VBConfig(nmax_initial=4, tail_tolerance=1e-13)
        fleet = fit_vb2_fleet(portfolio, prior, 1.0, config)
        saw_growth = False
        for i, data in enumerate(portfolio):
            scalar = fit_vb2(data, prior, 1.0, config)
            assert_identical(fleet.posterior(i), scalar)
            saw_growth |= scalar.diagnostics["n_growth_rounds"] > 0
        assert saw_growth

    def test_clamp_policy(self, portfolio, prior):
        config = VBConfig(
            nmax_initial=4,
            tail_tolerance=1e-300,
            nmax_ceiling=40,
            truncation_policy="clamp",
        )
        fleet = fit_vb2_fleet(portfolio, prior, 1.0, config)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb2(data, prior, 1.0, config))
            assert fleet.diagnostics[i]["truncation_clamped"]

    def test_truncation_error_names_dataset(self, portfolio, prior):
        config = VBConfig(nmax_initial=4, tail_tolerance=1e-300, nmax_ceiling=40)
        with pytest.raises(TruncationError, match="dataset 0"):
            fit_vb2_fleet(portfolio[:1], prior, 1.0, config)

    def test_validation(self, portfolio, prior):
        with pytest.raises(ValueError, match="at least one dataset"):
            fit_vb2_fleet([], prior)
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            fit_vb2_fleet(portfolio[:2], prior, 0.0)
        with pytest.raises(ValueError, match="one entry per dataset"):
            fit_vb2_fleet(portfolio[:2], prior, [1.0])
        with pytest.raises(ValueError, match="below the observed"):
            fit_vb2_fleet(portfolio[:1], prior, 1.0, nmax=1)

    def test_per_dataset_warm_states_stay_identical(self, portfolio, prior):
        from repro.core.warmstart import warm_start_from

        subset = portfolio[:4]
        # mixed warm/cold lanes: datasets 0 and 2 warm-start from their
        # own converged posteriors, 1 and 3 stay cold
        warms = [
            warm_start_from(fit_vb2(subset[0], prior, 1.0)),
            None,
            warm_start_from(fit_vb2(subset[2], prior, 1.0)),
            None,
        ]
        fleet = fit_vb2_fleet(subset, prior, 1.0, warm_start=warms)
        for i, data in enumerate(subset):
            config = VBConfig(warm_start=warms[i])
            assert_identical(fleet.posterior(i), fit_vb2(data, prior, 1.0, config))
            assert fleet.diagnostics[i]["warm_started"] is (warms[i] is not None)

    def test_warm_state_alpha0_mismatch_names_dataset(self, portfolio, prior):
        from repro.core.warmstart import warm_start_from

        warm = warm_start_from(fit_vb2(portfolio[0], prior, 1.0))
        with pytest.raises(ValueError, match="dataset 1.*alpha0"):
            fit_vb2_fleet(portfolio[:2], prior, 2.0, warm_start=[None, warm])


class TestVB1Identity:
    """``fit_vb1`` runs the fleet's lane driver on one dataset, so
    these identities check that lanes never interact; the mathematical
    reference is tests/core/test_vb1.py::TestMeanFieldFixedPoint."""

    def test_mixed_portfolio(self, portfolio, prior):
        fleet = fit_vb1_fleet(portfolio, prior, 1.0)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb1(data, prior, 1.0))

    def test_fixed_point_shape(self, portfolio, prior):
        fleet = fit_vb1_fleet(portfolio, prior, 2.0)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb1(data, prior, 2.0))

    def test_per_dataset_priors_and_alpha0(self, portfolio, prior):
        other = ModelPrior.informative(45.0, 16.0, 0.015, 0.006)
        count = len(portfolio)
        priors = ([prior, other] * 5)[:count]
        alphas = ([1.0, 2.0, 2.0] * 3)[:count]
        fleet = fit_vb1_fleet(portfolio, priors, alphas)
        for i, data in enumerate(portfolio):
            assert_identical(fleet.posterior(i), fit_vb1(data, priors[i], alphas[i]))

    def test_divergence_names_dataset(self, portfolio, prior):
        config = VBConfig(fixed_point_max_iter=2)
        with pytest.raises(ConvergenceError, match="dataset"):
            fit_vb1_fleet(portfolio, prior, 1.0, config)


class TestFleetResult:
    def test_lazy_and_cached(self, portfolio, prior):
        fleet = fit_vb2_fleet(portfolio[:3], prior, 1.0)
        assert len(fleet) == 3
        assert fleet._cache == {}
        p = fleet.posterior(1)
        assert fleet.posterior(1) is p
        assert set(fleet._cache) == {1}

    def test_batched_interval_contracts(self, portfolio, prior):
        fleet = fit_vb2_fleet(portfolio[:3], prior, 1.0)
        levels = np.array([0.025, 0.5, 0.975])
        table = fleet.quantile_batch("omega", levels)
        assert table.shape == (3, 3)
        intervals = fleet.credible_intervals("beta", 0.9)
        assert intervals.shape == (3, 2)
        for i, data in enumerate(portfolio[:3]):
            scalar = fit_vb2(data, prior, 1.0)
            expected = np.asarray(scalar.quantile_batch("omega", levels))
            assert float(np.max(np.abs(table[i] - expected))) == 0.0
            lo, hi = scalar.credible_interval("beta", 0.9)
            assert intervals[i, 0] == lo and intervals[i, 1] == hi

    def test_means_and_expected_faults(self, portfolio, prior):
        fleet = fit_vb2_fleet(portfolio[:2], prior, 1.0)
        scalars = [fit_vb2(d, prior, 1.0) for d in portfolio[:2]]
        assert list(fleet.means("omega")) == [s.mean("omega") for s in scalars]
        assert list(fleet.expected_total_faults()) == [
            s.expected_total_faults() for s in scalars
        ]
