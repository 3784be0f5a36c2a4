"""Tests for the gamma distribution value class."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as stdist

from repro.stats.gamma_dist import GammaDistribution, gamma_kl_divergence

positive = st.floats(min_value=1e-2, max_value=1e3)


class TestConstruction:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            GammaDistribution(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaDistribution(-1.0, 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            GammaDistribution(1.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GammaDistribution(math.inf, 1.0)
        with pytest.raises(ValueError):
            GammaDistribution(1.0, math.nan)

    def test_from_mean_std_roundtrip(self):
        dist = GammaDistribution.from_mean_std(50.0, 15.8)
        assert dist.mean == pytest.approx(50.0)
        assert dist.std == pytest.approx(15.8)

    def test_from_mean_std_paper_prior(self):
        # The paper's Info prior for omega: (50, 15.8) -> shape ~ 10.02.
        dist = GammaDistribution.from_mean_std(50.0, 15.8)
        assert dist.shape == pytest.approx((50.0 / 15.8) ** 2)


class TestMoments:
    def test_mean_variance(self):
        dist = GammaDistribution(3.0, 2.0)
        assert dist.mean == pytest.approx(1.5)
        assert dist.variance == pytest.approx(0.75)

    def test_mode(self):
        assert GammaDistribution(3.0, 2.0).mode == pytest.approx(1.0)
        assert GammaDistribution(0.5, 2.0).mode == 0.0

    def test_raw_moments_match_scipy(self):
        dist = GammaDistribution(2.5, 0.7)
        ref = stdist.gamma(a=2.5, scale=1.0 / 0.7)
        for k in range(1, 5):
            assert dist.moment(k) == pytest.approx(ref.moment(k), rel=1e-10)

    def test_central_moments(self):
        dist = GammaDistribution(4.0, 1.0)
        assert dist.central_moment(2) == pytest.approx(dist.variance, rel=1e-10)
        # Third central moment of gamma: 2 * shape / rate^3.
        assert dist.central_moment(3) == pytest.approx(8.0, rel=1e-9)

    def test_mean_log(self):
        dist = GammaDistribution(3.0, 2.0)
        samples = dist.sample(200_000, np.random.default_rng(0))
        assert dist.mean_log == pytest.approx(np.log(samples).mean(), abs=5e-3)

    def test_negative_moment_existence(self):
        dist = GammaDistribution(0.5, 1.0)
        with pytest.raises(ValueError):
            dist.moment(-1)


class TestDistributionFunctions:
    def test_pdf_cdf_sf_match_scipy(self):
        dist = GammaDistribution(2.0, 3.0)
        ref = stdist.gamma(a=2.0, scale=1.0 / 3.0)
        x = np.array([0.1, 0.5, 1.0, 2.0])
        assert dist.pdf(x) == pytest.approx(ref.pdf(x), rel=1e-10)
        assert dist.cdf(x) == pytest.approx(ref.cdf(x), rel=1e-10)
        assert dist.sf(x) == pytest.approx(ref.sf(x), rel=1e-10)

    def test_pdf_zero_outside_support(self):
        dist = GammaDistribution(2.0, 3.0)
        assert dist.pdf(0.0) == 0.0
        assert dist.pdf(-1.0) == 0.0
        assert dist.log_pdf(-1.0) == -math.inf

    def test_ppf_inverts_cdf(self):
        dist = GammaDistribution(5.0, 0.1)
        for q in (0.005, 0.025, 0.5, 0.975, 0.995):
            assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-10)

    @given(shape=positive, rate=positive, q=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_ppf_cdf_roundtrip_property(self, shape, rate, q):
        dist = GammaDistribution(shape, rate)
        assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-8)


class TestSampling:
    def test_sample_moments(self, rng):
        dist = GammaDistribution(4.0, 0.5)
        samples = dist.sample(200_000, rng)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.02)
        assert samples.var() == pytest.approx(dist.variance, rel=0.05)


class TestKLDivergence:
    def test_self_divergence_is_zero(self):
        dist = GammaDistribution(3.0, 2.0)
        assert gamma_kl_divergence(dist, dist) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        p = GammaDistribution(3.0, 2.0)
        q = GammaDistribution(5.0, 1.0)
        assert gamma_kl_divergence(p, q) > 0.0

    def test_against_monte_carlo(self):
        p = GammaDistribution(4.0, 1.5)
        q = GammaDistribution(2.0, 0.5)
        samples = p.sample(400_000, np.random.default_rng(7))
        mc = np.mean(p.log_pdf(samples) - q.log_pdf(samples))
        assert gamma_kl_divergence(p, q) == pytest.approx(mc, rel=0.02)

    @given(a1=positive, b1=positive, a2=positive, b2=positive)
    @settings(max_examples=100)
    def test_nonnegativity_property(self, a1, b1, a2, b2):
        p = GammaDistribution(a1, b1)
        q = GammaDistribution(a2, b2)
        assert gamma_kl_divergence(p, q) >= -1e-8
