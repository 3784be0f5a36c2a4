"""Tests for quadrature rules and the tensor grid."""

import math

import numpy as np
import pytest

from repro.stats.quadrature import TensorGrid, simpson_weights


class TestSimpson:
    def test_weights_sum_to_interval_length(self):
        w = simpson_weights(11, 0.1)
        assert w.sum() == pytest.approx(1.0)

    def test_exact_for_cubics(self):
        n, a, b = 21, 0.0, 2.0
        x = np.linspace(a, b, n)
        w = simpson_weights(n, x[1] - x[0])
        f = x**3 - 2 * x**2 + 5
        exact = (b**4 / 4 - 2 * b**3 / 3 + 5 * b)
        assert float(w @ f) == pytest.approx(exact, rel=1e-12)

    def test_rejects_even_point_count(self):
        with pytest.raises(ValueError):
            simpson_weights(10, 0.1)
        with pytest.raises(ValueError):
            simpson_weights(1, 0.1)


class TestTensorGrid:
    def test_simpson_factory_rounds_to_odd(self):
        grid = TensorGrid.simpson((0.0, 1.0), (0.0, 2.0), 10, 16)
        assert grid.x.size % 2 == 1
        assert grid.y.size % 2 == 1

    def test_integrate_separable_function(self):
        grid = TensorGrid.simpson((0.0, 1.0), (0.0, 1.0), 41, 41)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        values = xx**2 * yy
        assert grid.integrate(values) == pytest.approx(1.0 / 6.0, rel=1e-8)

    def test_log_integrate_matches_linear(self):
        grid = TensorGrid.simpson((0.1, 3.0), (0.1, 3.0), 61, 61)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        log_values = -(xx**2) - yy**2
        linear = grid.integrate(np.exp(log_values))
        assert grid.log_integrate(log_values) == pytest.approx(
            math.log(linear), rel=1e-10
        )

    def test_log_integrate_survives_huge_offsets(self):
        # Values that would overflow exp(): log-space path must not care.
        grid = TensorGrid.simpson((0.0, 1.0), (0.0, 1.0), 21, 21)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        log_values = 800.0 - xx - yy
        result = grid.log_integrate(log_values)
        reference = grid.log_integrate(log_values - 800.0) + 800.0
        assert result == pytest.approx(reference, rel=1e-12)

    def test_shape_validation(self):
        grid = TensorGrid.simpson((0.0, 1.0), (0.0, 1.0), 11, 11)
        with pytest.raises(ValueError):
            grid.integrate(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            grid.log_integrate(np.zeros((3, 3)))
