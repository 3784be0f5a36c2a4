"""Tests for truncated/censored gamma moments and samplers.

These quantities are the heart of the VB E-step (paper Eqs. 24/26), so
they are checked against Monte Carlo, closed forms, and limit cases.
"""

import decimal
import math

import numpy as np
import pytest
import scipy.special as sc
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.truncated import (
    censored_gamma_mean,
    sample_censored_gamma,
    sample_truncated_gamma,
    truncated_gamma_from_uniform,
    truncated_gamma_mean,
)

positive = st.floats(min_value=0.05, max_value=50.0)


class TestCensoredMean:
    def test_exponential_memorylessness(self):
        # shape 1: E[T | T > c] = c + 1/rate exactly.
        assert censored_gamma_mean(3.0, 1.0, 2.0) == pytest.approx(3.5)

    def test_zero_cut_returns_unconditional_mean(self):
        assert censored_gamma_mean(0.0, 2.5, 0.5) == pytest.approx(5.0)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        shape, rate, cut = 2.0, 1.5, 2.0
        samples = rng.gamma(shape, 1.0 / rate, size=2_000_000)
        tail = samples[samples > cut]
        assert censored_gamma_mean(cut, shape, rate) == pytest.approx(
            tail.mean(), rel=5e-3
        )

    def test_deep_tail_stays_finite_and_ordered(self):
        cut = 5_000.0
        value = censored_gamma_mean(cut, 2.0, 1.0)
        assert math.isfinite(value)
        assert value > cut
        # Asymptotically cut + 1/rate for the gamma right tail.
        assert value == pytest.approx(cut + 1.0, rel=1e-3)

    @given(shape=positive, rate=positive, cut=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_exceeds_cut_and_unconditional_mean(self, shape, rate, cut):
        value = censored_gamma_mean(cut, shape, rate)
        assert value >= cut
        assert value >= shape / rate - 1e-9


class TestTruncatedMean:
    def test_inside_interval(self):
        value = truncated_gamma_mean(1.0, 2.0, 2.0, 1.0)
        assert 1.0 <= value <= 2.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(3)
        shape, rate, lo, hi = 3.0, 2.0, 0.5, 2.0
        samples = rng.gamma(shape, 1.0 / rate, size=2_000_000)
        inside = samples[(samples > lo) & (samples <= hi)]
        assert truncated_gamma_mean(lo, hi, shape, rate) == pytest.approx(
            inside.mean(), rel=5e-3
        )

    def test_degenerate_far_tail_interval(self):
        # Negligible mass: must not divide 0/0; returns boundary point.
        value = truncated_gamma_mean(900.0, 901.0, 2.0, 1.0)
        assert 900.0 <= value <= 901.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            truncated_gamma_mean(2.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("rate", [1.0, 0.25])
    @pytest.mark.parametrize("width", [1e-9, 1e-3, 1.0, 50.0, math.inf])
    @pytest.mark.parametrize("lo", [0.0, 30.0, 40.0, 800.0])
    def test_exponential_matches_forty_digit_reference(self, lo, width, rate):
        # shape 1 far out in the tail, where both CDF increments
        # underflow: the definition in 40-digit decimals,
        # ((lo + 1/b) e^(-b lo) - (hi + 1/b) e^(-b hi)) / (e^(-b lo) - e^(-b hi))
        lo, hi = lo / rate, (lo + width) / rate
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            b, a = decimal.Decimal(rate), decimal.Decimal(lo)
            if math.isinf(hi):
                want = a + 1 / b
            else:
                h = decimal.Decimal(hi)
                ea, eh = (-b * a).exp(), (-b * h).exp()
                want = ((a + 1 / b) * ea - (h + 1 / b) * eh) / (ea - eh)
        got = truncated_gamma_mean(lo, hi, 1.0, rate)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    @given(
        shape=positive,
        rate=positive,
        lo=st.floats(min_value=0.0, max_value=20.0),
        width=st.floats(min_value=0.01, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_mean_within_interval_property(self, shape, rate, lo, width):
        value = truncated_gamma_mean(lo, lo + width, shape, rate)
        assert lo - 1e-9 <= value <= lo + width + 1e-9


class TestTruncatedSampler:
    def test_samples_in_interval(self, rng):
        draws = sample_truncated_gamma(1.0, 3.0, 2.0, 1.0, 10_000, rng)
        assert np.all(draws > 1.0)
        assert np.all(draws <= 3.0 + 1e-12)

    def test_sample_mean_matches_analytic(self, rng):
        lo, hi, shape, rate = 0.5, 4.0, 2.5, 1.2
        draws = sample_truncated_gamma(lo, hi, shape, rate, 400_000, rng)
        assert draws.mean() == pytest.approx(
            truncated_gamma_mean(lo, hi, shape, rate), rel=5e-3
        )

    def test_far_tail_fallback_does_not_stall(self, rng):
        draws = sample_truncated_gamma(900.0, 901.0, 2.0, 1.0, 100, rng)
        assert np.all((draws >= 900.0) & (draws <= 901.0))


class TestCensoredSampler:
    def test_samples_beyond_cut(self, rng):
        draws = sample_censored_gamma(2.0, 2.0, 1.0, 10_000, rng)
        assert np.all(draws > 2.0)

    def test_sample_mean_matches_analytic(self, rng):
        cut, shape, rate = 1.5, 3.0, 2.0
        draws = sample_censored_gamma(cut, shape, rate, 400_000, rng)
        assert draws.mean() == pytest.approx(
            censored_gamma_mean(cut, shape, rate), rel=5e-3
        )

    def test_zero_cut_is_plain_gamma(self, rng):
        draws = sample_censored_gamma(0.0, 2.0, 1.0, 200_000, rng)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)

    def test_underflowed_tail_fallback(self, rng):
        draws = sample_censored_gamma(10_000.0, 2.0, 1.0, 1000, rng)
        assert np.all(draws > 10_000.0)
        assert np.all(np.isfinite(draws))


class TestTruncatedGammaFromUniform:
    def test_draws_inside_interval(self):
        rng = np.random.default_rng(10)
        lo = rng.uniform(0.0, 2.0, size=300)
        hi = lo + rng.uniform(0.1, 3.0, size=300)
        rate = rng.uniform(0.05, 4.0, size=300)
        u = rng.random(300)
        for shape in (1.0, 2.5):
            x = truncated_gamma_from_uniform(lo, hi, shape, rate, u)
            assert np.all(x >= lo) and np.all(x <= hi)

    def test_shape_one_closed_form(self):
        lo, hi = np.array([1.0]), np.array([4.0])
        rate, u = np.array([0.7]), np.array([0.42])
        x = truncated_gamma_from_uniform(lo, hi, 1.0, rate, u)[0]
        p = sps.expon(scale=1.0 / 0.7).cdf
        expected = sps.expon(scale=1.0 / 0.7).ppf(
            p(1.0) + 0.42 * (p(4.0) - p(1.0))
        )
        assert x == pytest.approx(expected, rel=1e-12)

    def test_general_shape_matches_cdf_inversion(self):
        lo, hi = np.array([0.5]), np.array([2.0])
        rate, u = np.array([1.3]), np.array([0.8])
        x = truncated_gamma_from_uniform(lo, hi, 3.0, rate, u)[0]
        p_lo = sc.gammainc(3.0, 1.3 * 0.5)
        p_hi = sc.gammainc(3.0, 1.3 * 2.0)
        expected = sc.gammaincinv(3.0, p_lo + 0.8 * (p_hi - p_lo)) / 1.3
        assert x == pytest.approx(expected, rel=1e-12)

    def test_degenerate_interval_jitters_on_support(self):
        # Far right tail of a shape != 1 lifetime: the CDF increment
        # underflows, so the draw falls back to jitter on the interval.
        lo, hi = np.array([4000.0]), np.array([4001.0])
        rate, u = np.array([1.0]), np.array([0.25])
        x = truncated_gamma_from_uniform(lo, hi, 2.0, rate, u)[0]
        assert x == pytest.approx(4000.25)
        # At shape 1 the memoryless inversion needs no fallback:
        # 4000 - log1p(-0.25 (1 - e^-1)).
        x = truncated_gamma_from_uniform(lo, hi, 1.0, rate, u)[0]
        assert x == pytest.approx(4000.172011060757, rel=1e-12)

    @pytest.mark.parametrize("rate, lo", [(1.0, 30.0), (0.5, 80.0), (2.0, 400.0)])
    @pytest.mark.parametrize("entry", ["map", "sampler"])
    def test_far_tail_shape_one_is_truncated_exponential(self, rate, lo, entry):
        # rate * lo = 30, 40, 800: both exponential CDFs round to 1 or
        # nearly, and CDF-space inversion used to return quantized draws
        # (30) or uniform jitter (40, 800). The draws must be distinct
        # truncated exponentials with the exact mean.
        n, hi = 200_000, lo + 1.0 / rate
        rng = np.random.default_rng(31)
        if entry == "map":
            x = truncated_gamma_from_uniform(lo, hi, 1.0, rate, rng.random(n))
        else:
            x = sample_truncated_gamma(lo, hi, 1.0, rate, n, rng)
        assert np.all((x > lo) & (x <= hi))
        assert np.unique(x).size == n
        # Exp(rate) on (lo, lo + 1/rate] is lo + Exp(1) on (0, 1], scaled.
        e = np.exp(-1.0)
        mean = lo + (1.0 - e / (1.0 - e)) / rate
        sd = np.sqrt(1.0 - e / (1.0 - e) ** 2) / rate
        assert abs(x.mean() - mean) <= 4.0 * sd / np.sqrt(n)

    def test_uniform_stream_recovers_distribution(self):
        u = (np.arange(20_000) + 0.5) / 20_000
        x = truncated_gamma_from_uniform(
            np.full_like(u, 1.0), np.full_like(u, 3.0), 2.0,
            np.full_like(u, 1.0), u,
        )
        p_lo, p_hi = sc.gammainc(2.0, 1.0), sc.gammainc(2.0, 3.0)
        grid = np.linspace(1.05, 2.95, 9)
        for g in grid:
            expected = (sc.gammainc(2.0, g) - p_lo) / (p_hi - p_lo)
            assert np.mean(x <= g) == pytest.approx(expected, abs=5e-4)
