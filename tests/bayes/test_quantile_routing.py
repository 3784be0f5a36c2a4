"""Tests for the batched quantile contract and its scalar delegations.

Scalar ``quantile`` / ``reliability_quantile`` are now thin wrappers
over the batched entry points, so these tests pin (a) exact agreement
between the two spellings and (b) the rank convention against a naive
sorted-array oracle.
"""

import numpy as np
import pytest

from repro.bayes.sample_posterior import EmpiricalPosterior

_LEVELS = [0.005, 0.025, 0.1, 0.5, 0.9, 0.975, 0.995]


@pytest.fixture(scope="module")
def posterior():
    rng = np.random.default_rng(77)
    samples = np.column_stack(
        [rng.gamma(40.0, 1.4, size=5_000), rng.gamma(3.0, 0.02, size=5_000)]
    )
    return EmpiricalPosterior(samples, method_name="test")


def _window(beta):
    return np.exp(-50.0 * beta) - np.exp(-55.0 * beta)


class TestMarginalQuantiles:
    def test_scalar_delegates_to_batch(self, posterior):
        for param in ("omega", "beta"):
            batched = posterior.quantile_batch(param, np.array(_LEVELS))
            for level, expected in zip(_LEVELS, batched):
                assert posterior.quantile(param, level) == expected

    def test_rank_convention_against_sorted_oracle(self, posterior):
        values = np.sort(posterior.samples[:, 0])
        for level in _LEVELS:
            rank = min(max(int(round(level * values.size)), 1), values.size)
            assert posterior.quantile("omega", level) == values[rank - 1]

    def test_batch_preserves_level_order(self, posterior):
        out = posterior.quantile_batch("beta", np.array(_LEVELS))
        assert np.all(np.diff(out) >= 0.0)

    def test_validation(self, posterior):
        with pytest.raises(ValueError):
            posterior.quantile("omega", 1.0)
        with pytest.raises(ValueError):
            posterior.quantile_batch("omega", np.array([0.5, 0.0]))


class TestReliabilityQuantiles:
    def test_scalar_delegates_to_batch(self, posterior):
        batched = posterior.reliability_quantile_batch(np.array(_LEVELS), _window)
        for level, expected in zip(_LEVELS, batched):
            assert posterior.reliability_quantile(level, _window) == expected

    def test_batch_equals_per_level_loop(self, posterior):
        # The single-sort batch must agree exactly with repeated
        # single-level calls (each of which re-sorts).
        levels = np.array(_LEVELS)
        batched = posterior.reliability_quantile_batch(levels, _window)
        loop = [posterior.reliability_quantile(q, _window) for q in _LEVELS]
        assert np.array_equal(batched, np.array(loop))

    def test_interval_routes_through_batch(self, posterior):
        lo, hi = posterior.reliability_interval(0.95, _window)
        assert lo == posterior.reliability_quantile(0.025, _window)
        assert hi == posterior.reliability_quantile(0.975, _window)
        assert 0.0 <= lo <= hi <= 1.0

    def test_validation(self, posterior):
        with pytest.raises(ValueError):
            posterior.reliability_quantile(0.0, _window)
        with pytest.raises(ValueError):
            posterior.reliability_quantile_batch(np.array([1.5]), _window)

