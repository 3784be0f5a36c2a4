"""Property-based tests: the batched quantile path is the scalar path.

The vectorized interval engine promises that ``ppf(q_array)`` is a
*batch of simultaneous scalar inversions* — every level must come out
identical to a one-level call, for any gamma mixture. Hypothesis
drives random mixtures (component counts, shapes, rates, weights) and
random level sets, always including the extreme tails and the
single-component case where the bisection bracket degenerates to a
point.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stats.gamma_dist import GammaDistribution
from repro.stats.mixtures import MixtureDistribution

# Hypothesis strategies -------------------------------------------------

components = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=500.0),   # shape
        st.floats(min_value=1e-3, max_value=100.0),  # rate
    ),
    min_size=1,
    max_size=8,
)

weights = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=8, max_size=8
)

levels_strategy = st.lists(
    st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
    min_size=1,
    max_size=6,
)

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_mixture(params, raw_weights):
    shapes, rates = np.array(params).T
    return MixtureDistribution(shapes, rates, np.asarray(raw_weights[: len(params)]))


class TestBatchedMatchesScalar:
    @given(params=components, raw_weights=weights, raw_levels=levels_strategy)
    @settings(**_SETTINGS)
    def test_batched_ppf_equals_scalar_per_level(
        self, params, raw_weights, raw_levels
    ):
        mix = build_mixture(params, raw_weights)
        # Always exercise the extreme tails alongside the random levels.
        levels = np.array(raw_levels + [1e-6, 1.0 - 1e-6])
        batch = mix.ppf(levels)
        scalars = np.array([mix.ppf(float(q)) for q in levels])
        assert np.array_equal(batch, scalars)
        # And both invert the CDF. Bulk levels only: in the extreme
        # tails of near-zero-quantile components the bisection's
        # absolute x-tolerance (1e-12, same as the scalar and legacy
        # paths) caps the attainable CDF accuracy, so the tails are
        # covered by the bit-equality assertion above instead.
        bulk = (levels >= 1e-4) & (levels <= 1.0 - 1e-4)
        assert mix.cdf(batch[bulk]) == pytest.approx(levels[bulk], abs=1e-7)

    @given(
        shape=st.floats(min_value=0.5, max_value=500.0),
        rate=st.floats(min_value=1e-3, max_value=100.0),
        raw_levels=levels_strategy,
    )
    @settings(**_SETTINGS)
    def test_single_component_degenerate_bracket(self, shape, rate, raw_levels):
        # lo == hi for every level: the batch bisection pins each root
        # at the (exact) component quantile without any iteration.
        base = GammaDistribution(shape, rate)
        mix = MixtureDistribution([shape], [rate], [1.0])
        levels = np.array(raw_levels + [1e-6, 1.0 - 1e-6])
        batch = mix.ppf(levels)
        expected = np.array([base.ppf(float(q)) for q in levels])
        assert batch == pytest.approx(expected, rel=1e-12)
        scalars = np.array([mix.ppf(float(q)) for q in levels])
        assert np.array_equal(batch, scalars)

    @given(params=components, raw_weights=weights)
    @settings(**_SETTINGS)
    def test_batched_quantiles_monotone_in_level(self, params, raw_weights):
        mix = build_mixture(params, raw_weights)
        levels = np.array([1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6])
        batch = mix.ppf(levels)
        assert np.all(np.diff(batch) >= 0.0)

    @given(
        params=components,
        raw_weights=weights,
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(**_SETTINGS)
    def test_interval_batch_equals_interval(self, params, raw_weights, confidence):
        mix = build_mixture(params, raw_weights)
        (row,) = mix.interval_batch([confidence])
        lo, hi = mix.interval(confidence)
        assert row[0] == lo
        assert row[1] == hi
