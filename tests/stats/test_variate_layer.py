"""Correctness tests for the uniform→variate inverse-CDF layer.

These functions are the bridge between a lane's raw uniform stream and
the Gibbs conditionals, so each one must (a) be an accurate quantile
map and (b) be a *pure elementwise* transform — batching must never
change a value. scipy's own inversions are the accuracy oracle.
"""

import numpy as np
import pytest
import scipy.special as sc
import scipy.stats as st
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st_h

from repro.stats.gamma_dist import gamma_from_uniform
from repro.stats.poisson import poisson_from_uniform
from repro.stats.truncated import (
    censored_gamma_from_uniform,
    sample_truncated_gamma,
    truncated_gamma_from_uniform,
)

_SETTINGS = dict(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestPoissonFromUniform:
    def test_exact_match_with_scipy_ppf(self):
        rng = np.random.default_rng(5)
        u = rng.random(2_000) * 0.999998 + 1e-6
        mean = rng.uniform(0.01, 400.0, size=2_000)
        ours = poisson_from_uniform(u, mean)
        scipys = st.poisson.ppf(u, mean).astype(np.int64)
        assert np.array_equal(ours, scipys)

    def test_extreme_tails(self):
        mean = np.full(4, 50.0)
        u = np.array([1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 1e-16])
        ours = poisson_from_uniform(u, mean)
        scipys = st.poisson.ppf(u, mean).astype(np.int64)
        assert np.array_equal(ours, scipys)

    def test_u_zero_maps_to_zero(self):
        assert np.array_equal(
            poisson_from_uniform(np.zeros(3), np.array([0.0, 1.0, 90.0])),
            [0, 0, 0],
        )

    def test_zero_mean_is_point_mass(self):
        u = np.array([0.0, 0.3, 0.999])
        assert np.array_equal(poisson_from_uniform(u, np.zeros(3)), [0, 0, 0])

    def test_elementwise_purity(self):
        # Batched evaluation equals one-at-a-time evaluation exactly.
        rng = np.random.default_rng(6)
        u = rng.random(50)
        mean = rng.uniform(0.1, 200.0, size=50)
        batched = poisson_from_uniform(u, mean)
        singles = [poisson_from_uniform(u[i : i + 1], mean[i : i + 1])[0]
                   for i in range(50)]
        assert np.array_equal(batched, singles)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_from_uniform(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            poisson_from_uniform(np.array([0.5]), np.array([-1.0]))

    @given(
        u=st_h.floats(1e-9, 1.0 - 1e-9),
        mean=st_h.floats(1e-3, 1e4),
    )
    @settings(**_SETTINGS)
    def test_quantile_definition(self, u, mean):
        k = int(poisson_from_uniform(np.array([u]), np.array([mean]))[0])
        assert sc.pdtr(k, mean) >= u
        if k > 0:
            assert sc.pdtr(k - 1, mean) < u


class TestGammaFromUniform:
    def test_fast_region_accuracy(self):
        rng = np.random.default_rng(7)
        shape = rng.uniform(8.0, 500.0, size=1_000)
        u = rng.random(1_000)
        ours = gamma_from_uniform(shape, u)
        exact = sc.gammaincinv(shape, u)
        np.testing.assert_allclose(ours, exact, rtol=1e-9)

    def test_slow_region_is_exact_inversion(self):
        rng = np.random.default_rng(8)
        shape = rng.uniform(0.2, 7.9, size=500)
        u = rng.random(500)
        assert np.array_equal(
            gamma_from_uniform(shape, u), sc.gammaincinv(shape, u)
        )

    def test_mixed_regions_agree_with_pure_calls(self):
        shape = np.array([2.0, 50.0, 4.0, 120.0])
        u = np.array([0.3, 0.7, 0.01, 0.99])
        mixed = gamma_from_uniform(shape, u)
        for i in range(4):
            alone = gamma_from_uniform(shape[i : i + 1], u[i : i + 1])[0]
            assert mixed[i] == alone

    def test_log_gamma_shape_hint_changes_nothing(self):
        shape = np.full(64, 37.5)
        u = np.random.default_rng(9).random(64)
        assert np.array_equal(
            gamma_from_uniform(shape, u),
            gamma_from_uniform(shape, u, log_gamma_shape=sc.gammaln(shape)),
        )

    def test_monotone_in_u(self):
        u = np.linspace(0.001, 0.999, 200)
        x = gamma_from_uniform(np.full(200, 25.0), u)
        assert np.all(np.diff(x) > 0.0)

    @given(
        shape=st_h.floats(8.0, 1e4),
        u=st_h.floats(1e-8, 1.0 - 1e-8),
    )
    @settings(**_SETTINGS)
    def test_round_trip(self, shape, u):
        x = gamma_from_uniform(np.array([shape]), np.array([u]))[0]
        assert sc.gammainc(shape, x) == pytest.approx(u, abs=1e-9)


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
        p = st.expon(scale=1.0 / 0.7).cdf
        expected = st.expon(scale=1.0 / 0.7).ppf(
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


class TestCensoredGammaFromUniform:
    def test_draws_beyond_cut(self):
        rng = np.random.default_rng(11)
        cut = rng.uniform(0.0, 5.0, size=300)
        rate = rng.uniform(0.05, 4.0, size=300)
        u = rng.random(300) * 0.999 + 5e-4
        for shape in (1.0, 2.5):
            x = censored_gamma_from_uniform(cut, shape, rate, u)
            assert np.all(x >= cut)

    def test_shape_one_memoryless(self):
        cut, rate, u = np.array([2.0]), np.array([0.5]), np.array([0.3])
        x = censored_gamma_from_uniform(cut, 1.0, rate, u)[0]
        assert x == pytest.approx(2.0 - np.log(0.3) / 0.5, rel=1e-12)

    def test_general_shape_survival_inversion(self):
        cut, rate, u = np.array([1.5]), np.array([0.8]), np.array([0.6])
        x = censored_gamma_from_uniform(cut, 3.0, rate, u)[0]
        q_cut = sc.gammaincc(3.0, 0.8 * 1.5)
        expected = sc.gammainccinv(3.0, 0.6 * q_cut) / 0.8
        assert x == pytest.approx(expected, rel=1e-12)

    def test_deep_tail_fallback_stays_beyond_cut(self):
        x = censored_gamma_from_uniform(
            np.array([5000.0]), 2.0, np.array([1.0]), np.array([0.5])
        )[0]
        assert np.isfinite(x) and x > 5000.0
