"""Tests for the bracketing root finders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.fixed_point import RESIDUAL_HISTORY_LEN, solve_fixed_point
from repro.exceptions import ConvergenceError
from repro.stats.rootfind import (
    FIXED_POINT_HISTORY_LEN,
    bisect_increasing,
    solve_fixed_point_batch,
)


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


def _contractive_map(a, b, c):
    """VB-style update family x -> a / (b + c x) for the scalar solver."""
    return lambda x: a / (b + c * x)


def _lane_map(a, b, c):
    """The same family as a lane-indexed batch map: lane ``i`` uses
    coefficients ``a[i], b[i], c[i]``."""
    return lambda x, lanes: a[lanes] / (b[lanes] + c[lanes] * x)


class TestSolveFixedPointBatch:
    """Live-lane fixed-point solver: every lane must replay the scalar
    solver bit for bit, in success and in failure."""

    def _coeffs(self, n, seed=7):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(0.5, 50.0, n),
            rng.uniform(0.1, 10.0, n),
            rng.uniform(0.01, 5.0, n),
            rng.uniform(1e-3, 10.0, n),
        )

    def test_history_length_matches_scalar_solver(self):
        assert FIXED_POINT_HISTORY_LEN == RESIDUAL_HISTORY_LEN

    def test_lanes_match_scalar_bitwise(self):
        a, b, c, x0 = self._coeffs(48)
        result = solve_fixed_point_batch(_lane_map(a, b, c), x0)
        for i in range(48):
            scalar = solve_fixed_point(
                _contractive_map(a[i], b[i], c[i]), float(x0[i])
            )
            assert result.converged[i]
            assert result.values[i] == scalar.value
            assert result.iterations[i] == scalar.iterations
            assert result.residuals[i] == scalar.residual

    def test_single_lane_equals_scalar(self):
        a, b, c, x0 = self._coeffs(1)
        batch = solve_fixed_point_batch(_lane_map(a, b, c), x0[:1].copy())
        scalar = solve_fixed_point(
            _contractive_map(a[0], b[0], c[0]), float(x0[0])
        )
        assert batch.values[0] == scalar.value
        assert batch.iterations[0] == scalar.iterations
        assert batch.residuals[0] == scalar.residual

    def test_no_aitken_matches_scalar_including_failures(self):
        a, b, c, x0 = self._coeffs(48, seed=42)
        result = solve_fixed_point_batch(
            _lane_map(a, b, c), x0,
            use_aitken=False, raise_on_failure=False,
        )
        for i in range(48):
            try:
                scalar = solve_fixed_point(
                    _contractive_map(a[i], b[i], c[i]),
                    float(x0[i]),
                    use_aitken=False,
                )
            except ConvergenceError as err:
                assert not result.converged[i]
                assert result.iterations[i] == err.iterations
                assert result.residuals[i] == err.residual
                assert result.residual_histories[i] == tuple(
                    err.residual_history
                )
            else:
                assert result.converged[i]
                assert result.values[i] == scalar.value
                assert result.iterations[i] == scalar.iterations

    def test_diverging_lane_raises_with_its_own_statistics(self):
        # Lane 2 walks out of the positive domain; the raised error must
        # carry that lane's iterations/residual/history, matching the
        # scalar solver run on the same map.
        def f(x, lanes):
            return np.where(lanes == 2, x - 1.0, 10.0 / (1.0 + x))

        x0 = np.array([1.0, 2.0, 2.5, 3.0])
        with pytest.raises(ConvergenceError) as excinfo:
            solve_fixed_point_batch(f, x0.copy())
        err = excinfo.value
        try:
            solve_fixed_point(lambda x: x - 1.0, 2.5)
        except ConvergenceError as scalar_err:
            assert err.iterations == scalar_err.iterations
            assert err.residual == scalar_err.residual
            assert tuple(err.residual_history) == tuple(
                scalar_err.residual_history
            )
        else:  # pragma: no cover - scalar must fail too
            pytest.fail("scalar solver unexpectedly converged")

    def test_diverging_lane_does_not_poison_converged_lanes(self):
        def f(x, lanes):
            return np.where(lanes == 1, x - 1.0, 10.0 / (1.0 + x))

        x0 = np.array([1.0, 2.5, 4.0])
        result = solve_fixed_point_batch(f, x0.copy(), raise_on_failure=False)
        assert list(result.converged) == [True, False, True]
        for i in (0, 2):
            scalar = solve_fixed_point(lambda x: 10.0 / (1.0 + x), float(x0[i]))
            assert result.values[i] == scalar.value
            assert result.iterations[i] == scalar.iterations
            assert result.residuals[i] == scalar.residual

    def test_budget_exhaustion_matches_scalar_contract(self):
        # x -> 1/x oscillates forever; both solvers must report the same
        # iteration count, residual, and trailing history.
        result = solve_fixed_point_batch(
            lambda x, lanes: 1.0 / x, np.array([2.0]),
            max_iter=20, use_aitken=False, raise_on_failure=False,
        )
        assert not result.converged[0]
        assert result.iterations[0] == 20
        with pytest.raises(ConvergenceError) as excinfo:
            solve_fixed_point(lambda x: 1.0 / x, 2.0, max_iter=20,
                              use_aitken=False)
        err = excinfo.value
        assert err.iterations == result.iterations[0]
        assert err.residual == result.residuals[0]
        assert tuple(err.residual_history) == result.residual_histories[0]
        assert len(result.residual_histories[0]) == FIXED_POINT_HISTORY_LEN

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_fixed_point_batch(
                lambda x, lanes: x, np.array([1.0, -1.0])
            )
        with pytest.raises(ValueError):
            solve_fixed_point_batch(lambda x, lanes: x, np.ones((2, 2)))

    def test_empty_batch(self):
        result = solve_fixed_point_batch(lambda x, lanes: x, np.empty(0))
        assert result.values.size == 0
        assert result.converged.size == 0

    def test_divergence_emits_scalar_compatible_telemetry(self):
        def f(x, lanes):
            return x - 1.0

        with obs.capture() as col:
            with pytest.raises(ConvergenceError):
                solve_fixed_point_batch(f, np.array([0.5, 0.5]))
        events = [
            e for e in col.events if e["name"] == "fixed_point.divergence"
        ]
        assert len(events) == 2
        assert col.counters["fixed_point.failures"] == 2
        for event in events:
            assert event["evaluations"] >= 1

    @given(
        coeffs=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=200.0),
                st.floats(min_value=0.05, max_value=20.0),
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=1e-3, max_value=50.0),
                st.sampled_from([1e-12, 1e-8, 1e-4]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        use_aitken=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_batched_matches_scalar_bitwise(self, coeffs, use_aitken):
        # Random members of the gamma-update family x -> a / (b + c x),
        # each at its own tolerance, mixed with diverging lanes
        # x -> x - a that leave the positive domain: each lane of the
        # batch must replay its scalar solve exactly, in values,
        # iteration counts, residuals, and histories.
        a = np.array([t[0] for t in coeffs])
        b = np.array([t[1] for t in coeffs])
        c = np.array([t[2] for t in coeffs])
        x0 = np.array([t[3] for t in coeffs])
        rtol = np.array([t[4] for t in coeffs])
        diverge = np.array([t[5] for t in coeffs])

        def f(x, lanes):
            return np.where(
                diverge[lanes], x - a[lanes],
                a[lanes] / (b[lanes] + c[lanes] * x),
            )

        result = solve_fixed_point_batch(
            f, x0.copy(), rtol=rtol,
            use_aitken=use_aitken, raise_on_failure=False,
        )
        for i in range(x0.size):
            if diverge[i]:
                fi = lambda x, i=i: x - a[i]
            else:
                fi = _contractive_map(a[i], b[i], c[i])
            try:
                scalar = solve_fixed_point(
                    fi, float(x0[i]), rtol=float(rtol[i]),
                    use_aitken=use_aitken,
                )
            except ConvergenceError as err:
                assert not result.converged[i]
                assert result.iterations[i] == err.iterations
                assert result.residuals[i] == err.residual
                assert result.residual_histories[i] == tuple(
                    err.residual_history
                )
            else:
                assert result.converged[i]
                assert result.values[i] == scalar.value
                assert result.iterations[i] == scalar.iterations
                assert result.residuals[i] == scalar.residual

    def test_frozen_lanes_are_never_evaluated(self):
        # The map records every lane it is asked for. Lanes converge at
        # different steps (per-lane rtol), lane 3 leaves the domain and
        # lane 5 grows until the budget runs out: the map must see
        # each lane exactly `iterations[i]` times, never after it froze.
        a, b, c, x0 = self._coeffs(8, seed=3)
        rtol = np.array([1e-12, 1e-4, 1e-8, 1e-12, 1e-6, 1e-12, 1e-2, 1e-10])
        asked = []

        def f(x, lanes):
            asked.append(lanes.copy())
            out = a[lanes] / (b[lanes] + c[lanes] * x)
            out = np.where(lanes == 3, x - 2.0, out)
            return np.where(lanes == 5, 2.0 * x, out)

        def scalar_map(i):
            if i == 3:
                return lambda x: x - 2.0
            if i == 5:
                return lambda x: 2.0 * x
            return _contractive_map(a[i], b[i], c[i])

        result = solve_fixed_point_batch(
            f, x0.copy(), rtol=rtol, max_iter=60, raise_on_failure=False
        )
        seen = np.bincount(np.concatenate(asked), minlength=8)
        assert sum(len(lanes) for lanes in asked) == result.iterations.sum()
        np.testing.assert_array_equal(seen, result.iterations)
        assert list(np.flatnonzero(~result.converged)) == [3, 5]
        for i in range(8):
            try:
                scalar = solve_fixed_point(
                    scalar_map(i), float(x0[i]), rtol=float(rtol[i]),
                    max_iter=60,
                )
            except ConvergenceError as err:
                assert result.residual_histories[i] == tuple(
                    err.residual_history
                )
                assert result.iterations[i] == err.iterations
            else:
                assert result.values[i] == scalar.value
                assert result.iterations[i] == scalar.iterations
        # The raised error carries the first failed lane's history.
        with pytest.raises(ConvergenceError) as excinfo:
            solve_fixed_point_batch(f, x0.copy(), rtol=rtol, max_iter=60)
        with pytest.raises(ConvergenceError) as scalar_excinfo:
            solve_fixed_point(scalar_map(3), float(x0[3]), max_iter=60)
        assert tuple(excinfo.value.residual_history) == tuple(
            scalar_excinfo.value.residual_history
        )
        assert excinfo.value.iterations == scalar_excinfo.value.iterations

    def test_lane_label_names_the_failed_lane(self):
        def f(x, lanes):
            return np.where(lanes == 1, x - 1.0, 10.0 / (1.0 + x))

        labelled = []

        def label(lane):
            labelled.append(lane)
            return f"N={40 + lane}"

        with pytest.raises(ConvergenceError, match=r"lane 1 \(N=41\)"):
            solve_fixed_point_batch(
                f, np.array([1.0, 2.5, 4.0]), lane_label=label
            )
        assert labelled == [1]

    def test_batch_span_attrs(self):
        a, b, c, x0 = self._coeffs(5)
        with obs.capture(level="debug") as col:
            solve_fixed_point_batch(_lane_map(a, b, c), x0)
        spans = [
            e for e in col.events
            if e["kind"] == "span" and e["name"] == "fixed_point.batch"
        ]
        assert len(spans) == 1
        sp = spans[0]
        assert sp["lanes"] == 5
        assert sp["evaluations"] > 0
        assert sp["max_residual"] <= 1e-12
        assert sp["failed_lanes"] == 0


class TestPerLaneRtol:
    def test_scalar_rtol_array_equivalence(self):
        a, b, c, x0 = TestSolveFixedPointBatch._coeffs(None, 16)
        tight = solve_fixed_point_batch(
            _lane_map(a, b, c), x0.copy(), rtol=1e-12
        )
        lanes = solve_fixed_point_batch(
            _lane_map(a, b, c), x0.copy(),
            rtol=np.full(16, 1e-12),
        )
        np.testing.assert_array_equal(lanes.values, tight.values)
        np.testing.assert_array_equal(lanes.iterations, tight.iterations)

    def test_loose_lanes_stop_earlier(self):
        a, b, c, x0 = TestSolveFixedPointBatch._coeffs(None, 16)
        rtols = np.full(16, 1e-12)
        rtols[::2] = 1e-3
        mixed = solve_fixed_point_batch(
            _lane_map(a, b, c), x0.copy(), rtol=rtols
        )
        tight = solve_fixed_point_batch(
            _lane_map(a, b, c), x0.copy(), rtol=1e-12
        )
        assert np.all(mixed.iterations[::2] <= tight.iterations[::2])
        assert np.any(mixed.iterations[::2] < tight.iterations[::2])
        # tight lanes are untouched by their loose neighbours
        np.testing.assert_array_equal(
            mixed.values[1::2], tight.values[1::2]
        )
        np.testing.assert_array_equal(
            mixed.iterations[1::2], tight.iterations[1::2]
        )

    def test_per_lane_rtol_validation(self):
        f = lambda x, lanes: 0.5 * x + 1.0
        with pytest.raises(ValueError, match="shape"):
            solve_fixed_point_batch(
                f, np.ones(3), rtol=np.full(2, 1e-10)
            )
        with pytest.raises(ValueError, match="positive"):
            solve_fixed_point_batch(
                f, np.ones(2), rtol=np.array([1e-10, 0.0])
            )
        with pytest.raises(ValueError, match="positive"):
            solve_fixed_point_batch(
                f, np.ones(2), rtol=np.array([1e-10, np.inf])
            )
