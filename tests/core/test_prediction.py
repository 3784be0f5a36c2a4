"""Tests for the posterior-predictive failure-count distribution."""

import numpy as np
import pytest

from repro.bayes.laplace import fit_laplace
from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.core.prediction import predict_failure_counts
from repro.core.reliability import reliability_increment


class TestVBPredictive:
    def test_pmf_is_probability_vector(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 10_000.0)
        assert np.all(pred.pmf >= 0.0)
        assert pred.pmf.sum() + pred.tail_mass == pytest.approx(1.0, abs=1e-8)

    def test_zero_count_probability_equals_reliability(
        self, vb2_times, times_data
    ):
        # P(K = 0) is the software reliability by definition (Eq. 3).
        pred = predict_failure_counts(vb2_times, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        assert pred.probability_of_no_failure() == pytest.approx(
            vb2_times.reliability_point(c), rel=1e-9
        )

    def test_mean_matches_posterior_expectation(self, vb2_times, times_data, rng):
        # E[K] = E[omega c(beta)] under the posterior.
        u = 10_000.0
        pred = predict_failure_counts(vb2_times, times_data.horizon, u)
        draws = vb2_times.sample(400_000, rng)
        c = reliability_increment(1.0, times_data.horizon, u)
        expected = float(np.mean(draws[:, 0] * np.asarray(c(draws[:, 1]))))
        assert pred.mean() == pytest.approx(expected, rel=0.01)

    def test_predictive_is_overdispersed(self, vb2_times, times_data):
        # Parameter uncertainty makes Var[K] > E[K] (negative binomial).
        pred = predict_failure_counts(vb2_times, times_data.horizon, 100_000.0)
        support = pred.support
        mean = float(support @ pred.pmf)
        var = float((support - mean) ** 2 @ pred.pmf)
        assert var > mean

    def test_quantiles_monotone(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 50_000.0)
        q50 = pred.quantile(0.5)
        q95 = pred.quantile(0.95)
        q999 = pred.quantile(0.999)
        assert q50 <= q95 <= q999
        assert pred.cdf(q95) >= 0.95

    def test_zero_window(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 0.0)
        assert pred.probability_of_no_failure() == pytest.approx(1.0)

    def test_quantile_validation(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 1000.0)
        with pytest.raises(ValueError):
            pred.quantile(0.0)

    def test_cdf_below_support(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 1000.0)
        assert pred.cdf(-1) == 0.0


class TestOtherPosteriorTypes:
    def test_empirical_predictive(self, times_data, info_prior_times):
        posterior = gibbs_failure_time(
            times_data,
            info_prior_times,
            settings=ChainSettings(n_samples=4000, burn_in=1500, thin=2, seed=41),
        ).posterior()
        pred = predict_failure_counts(posterior, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        assert pred.probability_of_no_failure() == pytest.approx(
            posterior.reliability_point(c), rel=1e-9
        )

    def test_laplace_predictive_is_plugin_poisson(
        self, times_data, info_prior_times
    ):
        posterior = fit_laplace(times_data, info_prior_times)
        pred = predict_failure_counts(posterior, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        mean = posterior.mean("omega") * float(c(posterior.mean("beta")))
        assert pred.probability_of_no_failure() == pytest.approx(
            np.exp(-mean), rel=1e-9
        )

    def test_agreement_between_vb_and_mcmc_predictives(
        self, vb2_times, times_data, info_prior_times
    ):
        posterior = gibbs_failure_time(
            times_data,
            info_prior_times,
            settings=ChainSettings(n_samples=8000, burn_in=2000, thin=2, seed=42),
        ).posterior()
        u = 10_000.0
        vb_pred = predict_failure_counts(vb2_times, times_data.horizon, u)
        mc_pred = predict_failure_counts(posterior, times_data.horizon, u)
        size = min(vb_pred.pmf.size, mc_pred.pmf.size, 6)
        assert vb_pred.pmf[:size] == pytest.approx(mc_pred.pmf[:size], abs=0.01)


@pytest.fixture(scope="module")
def late_tracker_period():
    """The posterior of the last period of a 34-period tracker campaign,
    and its one-period window."""
    from repro.bayes.priors import ModelPrior
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import GroupedData

    intensity = np.exp(-np.arange(34) / 25.0)
    counts = np.random.default_rng(501).multinomial(45, intensity / intensity.sum())
    data = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
    posterior = fit_vb2(data, ModelPrior.informative(100.0, 50.0, 0.2, 0.1), 1.0)
    return posterior, data.horizon


class TestPredictiveInColumnBlocks:
    def test_kept_pmf_matches_the_dense_formula(self, late_tracker_period):
        # the negative-binomial mixture over every cell and count at once
        # (cells x (max_count + 1) arrays), truncated afterwards
        from repro.stats import scipy_special as sc

        posterior, te = late_tracker_period
        max_count, tail_eps = 200, 1e-10
        c = reliability_increment(1.0, te, 1.0)
        table = posterior.reliability_tables(c).cells()
        weight, c_values, a, b = (v[:, None] for v in table.arrays())
        k = np.arange(max_count + 1)
        dense = np.zeros(max_count + 1)
        dense[0] = table.atom
        log_comb = sc.gammaln(a + k) - sc.gammaln(a) - sc.gammaln(k + 1.0)
        log_odds = np.log(c_values / (b + c_values))
        log_base = a * np.log(b / (b + c_values))
        dense += weight[:, 0] @ np.exp(log_comb + log_base + k * log_odds)
        keep = int(np.searchsorted(np.cumsum(dense), 1.0 - tail_eps)) + 1

        pmf = predict_failure_counts(posterior, te, 1.0, max_count=max_count,
                                     tail_eps=tail_eps).pmf
        assert pmf.size == keep < max_count
        np.testing.assert_allclose(pmf, dense[:keep], rtol=1e-14, atol=0.0)

    def test_memory_does_not_grow_with_max_count(self, late_tracker_period):
        # only a dozen counts survive truncation here: a dense build would
        # grow with max_count (3.5x from 10 to 50), the blocked one stops
        import tracemalloc

        posterior, te = late_tracker_period
        predict_failure_counts(posterior, te, 1.0, max_count=10)  # warm caches
        peaks = {}
        for max_count in (10, 50):
            tracemalloc.start()
            try:
                predict_failure_counts(posterior, te, 1.0, max_count=max_count)
                peaks[max_count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50] <= 1.5 * peaks[10]

    def test_plugin_poisson_matches_the_dense_formula(self, times_data,
                                                       info_prior_times):
        # the Poisson callers take the same blocked build: the kept pmf is
        # the truncated dense one, whatever max_count is
        from scipy import stats

        posterior = fit_laplace(times_data, info_prior_times)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        mean = posterior.mean("omega") * float(c(posterior.mean("beta")))
        dense = stats.poisson.pmf(np.arange(1001), mean)
        keep = int(np.searchsorted(np.cumsum(dense), 1.0 - 1e-10)) + 1
        for max_count in (keep + 3, 1000):
            pmf = predict_failure_counts(posterior, times_data.horizon, 10_000.0,
                                         max_count=max_count).pmf
            np.testing.assert_allclose(pmf, dense[:keep], rtol=1e-12, atol=0.0)
