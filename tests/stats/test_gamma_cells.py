"""Tests for the gamma-cell quantile engine (repro.stats.gamma_cells)."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.stats import scipy_special as sc
from repro.stats.gamma_cells import GammaCells
from repro.stats.rootfind import bisect_increasing

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LEVELS = np.array([1e-6, 1e-4, 0.005, 0.025, 0.5, 0.975, 0.995, 1 - 1e-4,
                   1 - 1e-6])


def _direct_tails(weight, shape, rate, x):
    """Reference tails: one incomplete gamma per component."""
    y = np.multiply.outer(x, rate)
    return (sc.gammainc(shape, y) @ weight, sc.gammaincc(shape, y) @ weight)


def _bisection_quantile(weight, shape, rate, q):
    """The reference the engine replaced: bisection of the mixture CDF
    between the extreme component quantiles."""
    lo = float(np.min(sc.gammaincinv(shape, q) / rate))
    hi = float(np.max(sc.gammaincinv(shape, q) / rate))
    return bisect_increasing(
        lambda x: float(_direct_tails(weight, shape, rate, np.array([x]))[0][0])
        - q, lo, hi)


@pytest.fixture(scope="module")
def vb2_posteriors():
    """VB2 posteriors of the paper's four scenarios, a tracker campaign
    early and late, and a fleet project."""
    from repro.bayes.priors import ModelPrior
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import GroupedData
    from repro.data.simulation import simulate_failure_times
    from repro.experiments.config import paper_scenarios
    from repro.models.goel_okumoto import GoelOkumoto

    fits = {
        name: fit_vb2(s.load_data(), s.prior(), 1.0, s.vb_config)
        for name, s in paper_scenarios().items()
    }
    intensity = np.exp(-np.arange(34) / 25.0)
    counts = np.random.default_rng(501).multinomial(45, intensity / intensity.sum())
    campaign = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
    tracker_prior = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)
    for periods in (3, 34):
        fits[f"tracker-{periods}"] = fit_vb2(campaign.truncate(periods),
                                             tracker_prior, 1.0)
    data = simulate_failure_times(GoelOkumoto(21.0, 0.012), 80.0,
                                  np.random.default_rng(7))
    fits["fleet"] = fit_vb2(data, ModelPrior.informative(30.0, 10.0, 0.01,
                                                         0.005), 1.0)
    return fits


class TestLadderKernel:
    def test_vb2_omega_marginal_is_one_ladder_run(self, vb2_posteriors):
        for posterior in vb2_posteriors.values():
            cells = GammaCells(posterior.weights, posterior._omega_shape,
                               posterior._omega_rate)
            assert cells.runs == 1
            assert cells.size == posterior.n_components

    def test_matches_direct_kernel(self, vb2_posteriors):
        # Q(a+1, y) = Q(a, y) + T(a+1, y) and its lower-tail twin
        # against one incomplete gamma per component, on the tail the
        # solver uses (the smaller one) and everywhere
        for name, posterior in vb2_posteriors.items():
            w, a, b = (posterior.weights, posterior._omega_shape,
                       posterior._omega_rate)
            ladder = GammaCells(w, a, b)
            x = posterior.marginal("omega").ppf(np.linspace(1e-6, 1 - 1e-6, 200))
            x = np.concatenate([x, np.linspace(0.5 * x[0], 1.5 * x[-1], 200)])
            want_cdf, want_sf = _direct_tails(w, a, b, x)
            cdf, _, _ = ladder.tails(x, True)
            sf, _, _ = ladder.tails(x, False)
            small_cdf, small_sf = want_cdf <= 0.5, want_sf <= 0.5
            np.testing.assert_allclose(cdf[small_cdf], want_cdf[small_cdf],
                                       rtol=0, atol=1e-15, err_msg=name)
            np.testing.assert_allclose(sf[small_sf], want_sf[small_sf],
                                       rtol=0, atol=1e-15, err_msg=name)
            # near 1 both are sums of hundreds of terms: a few ulps
            np.testing.assert_allclose(cdf, want_cdf, rtol=0, atol=5e-15)
            np.testing.assert_allclose(sf, want_sf, rtol=0, atol=5e-15)

    def test_density_and_slope_match_finite_differences(self, vb2_posteriors):
        posterior = vb2_posteriors["DT-Info"]
        ladder = GammaCells(posterior.weights, posterior._omega_shape,
                            posterior._omega_rate)
        x = posterior.marginal("omega").ppf(np.array([0.1, 0.5, 0.9]))
        h = 1e-5 * x
        _, f, df = ladder.tails(x, True)
        up, _, _ = ladder.tails(x + h, True)
        down, _, _ = ladder.tails(x - h, True)
        np.testing.assert_allclose(f, (up - down) / (2 * h), rtol=1e-6)
        _, f_up, _ = ladder.tails(x + h, True)
        _, f_down, _ = ladder.tails(x - h, True)
        np.testing.assert_allclose(df, (f_up - f_down) / (2 * h), rtol=1e-5,
                                   atol=1e-9)


class TestQuantiles:
    @pytest.mark.parametrize("param", ["omega", "beta"])
    def test_agree_with_bisection(self, vb2_posteriors, param):
        # within the replaced bisection's own tolerance 1e-12 + 1e-10 |x|
        for name, posterior in vb2_posteriors.items():
            w = posterior.weights
            shape = getattr(posterior, f"_{param}_shape")
            rate = getattr(posterior, f"_{param}_rate")
            got, sweeps, _ = GammaCells(w, shape, rate).quantiles(LEVELS)
            want = np.array([_bisection_quantile(w, shape, rate, q)
                             for q in LEVELS])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12,
                                       err_msg=name)
            assert sweeps <= 8

    def test_batch_lanes_are_independent(self, vb2_posteriors):
        posterior = vb2_posteriors["DG-NoInfo"]
        cells = GammaCells(posterior.weights, posterior._omega_shape,
                           posterior._omega_rate)
        batch, _, _ = cells.quantiles(LEVELS)
        for q, value in zip(LEVELS, batch):
            assert cells.quantiles(np.array([q]))[0][0] == value

    def test_upper_levels(self):
        cells = GammaCells([0.3, 0.7], [2.0, 9.0], [1.0, 0.5])
        lower, _, _ = cells.quantiles(np.array([0.2, 0.9]))
        upper, _, _ = cells.quantiles(np.array([0.8, 0.1]), upper=True)
        np.testing.assert_allclose(upper, lower, rtol=1e-10)

    def test_negexp_returns_exp_of_minus_quantile(self):
        cells = GammaCells([0.5, 0.5], [3.0, 4.0], [2.0, 2.0])
        x, _, _ = cells.quantiles(np.array([0.1, 0.9]), upper=True)
        r, _, _ = cells.quantiles(np.array([0.1, 0.9]), upper=True,
                                  negexp=True, xtol=1e-12)
        np.testing.assert_allclose(r, np.exp(-x), atol=1e-12)

    def test_point_mass_at_zero(self):
        # 30% of the mass sits at x = 0: levels inside it resolve there
        cells = GammaCells([0.7], [3.0], [1.0], atom=0.3)
        got, _, _ = cells.quantiles(np.array([0.1, 0.3, 0.65]))
        assert got[0] == 0.0 and got[1] == 0.0
        assert 0.3 + 0.7 * sc.gammainc(3.0, got[2]) == pytest.approx(0.65)
        r, _, _ = cells.quantiles(np.array([0.9]), upper=True, negexp=True)
        assert r[0] == 1.0

    def test_single_cell_is_the_closed_form(self):
        cells = GammaCells([1.0], [3.0], [2.0])
        got, sweeps, _ = cells.quantiles(LEVELS)
        assert sweeps == 0
        np.testing.assert_array_equal(got, sc.gammaincinv(3.0, LEVELS) / 2.0)

    def test_modes_decades_apart(self):
        # a plateau between modes: the log-space bracket crosses it
        w, a, b = [0.5, 0.5], [50.0, 50.0], [1e3, 1e-2]
        got, _, _ = GammaCells(w, a, b).quantiles(np.array([0.25, 0.5, 0.75]))
        cdf, _ = _direct_tails(np.array(w), np.array(a), np.array(b), got)
        np.testing.assert_allclose(cdf, [0.25, 0.5, 0.75], atol=1e-9)

    def test_exhausted_budget_raises(self):
        cells = GammaCells([0.5, 0.5], [50.0, 50.0], [1e3, 1e-2])
        with pytest.raises(ConvergenceError, match="2 sweeps"):
            cells.quantiles(np.array([0.5]), max_sweeps=2)
