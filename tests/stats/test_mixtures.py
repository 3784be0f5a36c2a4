"""Tests for the finite mixture distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.gamma_dist import GammaDistribution
from repro.stats.mixtures import MixtureDistribution


def two_component():
    return MixtureDistribution([2.0, 10.0], [1.0, 2.0], [0.3, 0.7])


class TestConstruction:
    def test_weights_normalised(self):
        mix = MixtureDistribution([2.0, 3.0], [1.0, 1.0], [2.0, 6.0])
        assert mix.weights == pytest.approx([0.25, 0.75])

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            MixtureDistribution([], [], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MixtureDistribution([1.0], [1.0], [0.5, 0.5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            MixtureDistribution([1.0, 2.0], [1.0, 1.0], [0.5, -0.5])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            MixtureDistribution([1.0], [1.0], [0.0])


class TestMoments:
    def test_mean_is_weighted_average(self):
        mix = two_component()
        assert mix.mean == pytest.approx(0.3 * 2.0 + 0.7 * 5.0)

    def test_variance_law_of_total_variance(self):
        mix = two_component()
        within = 0.3 * 2.0 + 0.7 * (10.0 / 4.0)
        between = 0.3 * (2.0 - mix.mean) ** 2 + 0.7 * (5.0 - mix.mean) ** 2
        assert mix.variance == pytest.approx(within + between)

    def test_single_component_degenerates(self):
        base = GammaDistribution(3.0, 2.0)
        mix = MixtureDistribution([3.0], [2.0], [1.0])
        assert mix.mean == pytest.approx(base.mean)
        assert mix.variance == pytest.approx(base.variance)
        assert mix.central_moment(3) == pytest.approx(base.central_moment(3), rel=1e-9)

    def test_moment_linearity(self):
        mix = two_component()
        for k in range(4):
            expected = 0.3 * mix.components[0].moment(k) + 0.7 * mix.components[
                1
            ].moment(k)
            assert mix.moment(k) == pytest.approx(expected, rel=1e-10)


class TestDistributionFunctions:
    def test_pdf_integrates_to_one(self):
        mix = two_component()
        x = np.linspace(1e-6, 60.0, 20_001)
        integral = np.trapezoid(mix.pdf(x), x)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_cdf_monotone(self):
        mix = two_component()
        x = np.linspace(0.0, 30.0, 500)
        cdf = mix.cdf(x)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_ppf_inverts_cdf(self):
        mix = two_component()
        for q in (0.005, 0.1, 0.5, 0.9, 0.995):
            assert mix.cdf(mix.ppf(q)) == pytest.approx(q, abs=1e-8)

    def test_ppf_bounded_by_component_quantiles(self):
        mix = two_component()
        q = 0.75
        lo = min(c.ppf(q) for c in mix.components)
        hi = max(c.ppf(q) for c in mix.components)
        assert lo <= mix.ppf(q) <= hi

    def test_interval_levels(self):
        mix = two_component()
        lo, hi = mix.interval(0.99)
        assert mix.cdf(lo) == pytest.approx(0.005, abs=1e-7)
        assert mix.cdf(hi) == pytest.approx(0.995, abs=1e-7)

    def test_invalid_quantile_levels(self):
        mix = two_component()
        with pytest.raises(ValueError):
            mix.ppf(0.0)
        with pytest.raises(ValueError):
            mix.interval(1.5)

    @given(
        w=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60)
    def test_quantile_roundtrip_property(self, w, q):
        mix = MixtureDistribution([2.0, 40.0], [1.0, 2.0], [w, 1.0 - w])
        assert mix.cdf(mix.ppf(q)) == pytest.approx(q, abs=1e-7)


class TestBatchedQuantiles:
    def test_batched_ppf_matches_scalar_exactly(self):
        mix = two_component()
        levels = np.array([0.005, 0.1, 0.5, 0.9, 0.995])
        batch = mix.ppf(levels)
        scalars = np.array([mix.ppf(float(q)) for q in levels])
        assert np.array_equal(batch, scalars)

    def test_empty_level_array(self):
        out = two_component().ppf(np.empty(0))
        assert out.shape == (0,)

    def test_batched_rejects_out_of_range_level(self):
        mix = two_component()
        with pytest.raises(ValueError):
            mix.ppf(np.array([0.5, 1.0]))

    def test_interval_batch_matches_interval(self):
        mix = two_component()
        confs = np.array([0.9, 0.95, 0.99])
        batch = mix.interval_batch(confs)
        assert batch.shape == (3, 2)
        for row, conf in zip(batch, confs):
            lo, hi = mix.interval(float(conf))
            assert row[0] == lo
            assert row[1] == hi

    def test_interval_batch_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            two_component().interval_batch([0.9, 1.0])

    def test_extreme_levels(self):
        mix = two_component()
        levels = np.array([1e-6, 1.0 - 1e-6])
        batch = mix.ppf(levels)
        assert np.all(np.isfinite(batch))
        assert mix.cdf(batch[0]) == pytest.approx(1e-6, abs=1e-9)
        assert mix.cdf(batch[1]) == pytest.approx(1.0 - 1e-6, abs=1e-9)

    def test_single_component_degenerate_bracket(self):
        # One component: the bracket collapses (lo == hi) and the batch
        # bisection pins the root at the exact component quantile.
        base = GammaDistribution(3.0, 2.0)
        mix = MixtureDistribution([3.0], [2.0], [1.0])
        levels = np.array([1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6])
        batch = mix.ppf(levels)
        expected = np.array([base.ppf(float(q)) for q in levels])
        assert batch == pytest.approx(expected, rel=1e-12)


class TestMomentStability:
    def test_variance_of_concentrated_mixture_stays_positive(self):
        # Large-N VB2 posteriors: components centred near 50 with
        # relative width ~1e-4. The raw-moment form E[X²]-E[X]² loses
        # ~8 digits to cancellation here; the shifted form keeps full
        # precision.
        shapes = np.linspace(0.999e8, 1.001e8, 21)
        comps = [GammaDistribution(float(s), float(s) / 50.0) for s in shapes]
        mix = MixtureDistribution(shapes, shapes / 50.0, np.full(21, 1.0 / 21))
        var = mix.variance
        assert var > 0.0
        within = sum(w * c.variance for w, c in zip(mix.weights, comps))
        between = sum(
            w * (c.mean - mix.mean) ** 2 for w, c in zip(mix.weights, comps)
        )
        assert var == pytest.approx(within + between, rel=1e-12)
        assert mix.central_moment(2) == pytest.approx(var, rel=1e-10)

    def test_central_moment_odd_symmetry(self):
        # Two mirrored components about the mean: odd central moments of
        # the between-component part cancel.
        mix = MixtureDistribution([400.0, 400.0], [10.0, 10.0], [0.5, 0.5])
        single = GammaDistribution(400.0, 10.0)
        assert mix.central_moment(3) == pytest.approx(
            single.central_moment(3), rel=1e-9
        )


class TestSampling:
    def test_sample_moments(self, rng):
        mix = two_component()
        draws = mix.sample(300_000, rng)
        assert draws.mean() == pytest.approx(mix.mean, rel=0.01)
        assert draws.var() == pytest.approx(mix.variance, rel=0.03)

    def test_sample_size(self, rng):
        mix = two_component()
        assert mix.sample(1234, rng).shape == (1234,)
