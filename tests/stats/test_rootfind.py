"""Tests for the bracketing root finder."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import ConvergenceError
from repro.stats.rootfind import bisect_increasing


class TestBisect:
    def test_linear_root(self):
        root = bisect_increasing(lambda x: x - 2.5, 0.0, 10.0)
        assert root == pytest.approx(2.5, abs=1e-9)

    def test_nonlinear_root(self):
        root = bisect_increasing(lambda x: math.tanh(x) - 0.5, 0.0, 5.0)
        assert root == pytest.approx(math.atanh(0.5), abs=1e-9)

    def test_root_at_lower_edge(self):
        assert bisect_increasing(lambda x: x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_bracket_raises(self):
        with pytest.raises(ValueError):
            bisect_increasing(lambda x: x, 2.0, 1.0)

    def test_sign_violation_raises(self):
        with pytest.raises(ConvergenceError):
            bisect_increasing(lambda x: x + 10.0, 1.0, 2.0)

    @given(target=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_cdf_style_inversion(self, target):
        cdf = lambda x: 1.0 - math.exp(-x)
        root = bisect_increasing(lambda x: cdf(x) - target, 0.0, 100.0)
        assert cdf(root) == pytest.approx(target, abs=1e-8)


class TestBisectExhaustion:
    def test_exhaustion_raises_convergence_error(self):
        # A one-iteration budget on a wide bracket cannot converge.
        with pytest.raises(ConvergenceError) as excinfo:
            bisect_increasing(lambda x: x - 2.5, 0.0, 10.0, max_iter=1)
        err = excinfo.value
        assert err.iterations == 1
        # The residual carries the final bracket width.
        assert err.residual is not None
        assert 0.0 < err.residual <= 10.0
        assert "bracket width" in str(err)

    def test_exhaustion_emits_divergence_telemetry(self):
        with obs.capture() as col:
            with pytest.raises(ConvergenceError):
                bisect_increasing(lambda x: x - 2.5, 0.0, 10.0, max_iter=1)
        events = [e for e in col.events if e["name"] == "rootfind.divergence"]
        assert len(events) == 1
        assert events[0]["iterations"] == 1
        assert events[0]["bracket_width"] > 0.0
        assert events[0]["lanes"] == 1
        assert col.counters["rootfind.failures"] == 1
