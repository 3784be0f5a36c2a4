"""Dtype-following regression tests for the hot kernels.

``as_float`` and the gamma-cell quantile engine carry no hard-coded
``dtype=float`` casts: dtypes follow the inputs (float32 in ⇒ float32
out), with ints/bools promoting to float64. These tests pin both
directions so a future edit cannot quietly reintroduce an upcast."""

import numpy as np

from repro.stats.special import as_float
from repro.stats.gamma_cells import GammaCells


class TestAsFloat:
    def test_float64_passthrough(self):
        x = np.arange(3.0)
        assert as_float(x).dtype == np.float64
        assert as_float(x) is not None

    def test_float32_preserved(self):
        assert as_float(np.arange(3, dtype=np.float32)).dtype == np.float32

    def test_int_and_bool_promote_to_float64(self):
        assert as_float(np.arange(3)).dtype == np.float64
        assert as_float(np.array([True, False])).dtype == np.float64

    def test_float64_values_bitwise_equal_to_old_cast(self):
        x = np.array([1, 2, 3])
        np.testing.assert_array_equal(
            as_float(x), np.asarray(x, dtype=float)
        )


class TestRootfindDtype:
    def test_gamma_cells_float64_in_float64_out(self):
        cells = GammaCells(np.full(3, 1.0 / 3.0), np.array([4.0, 5.0, 6.0]),
                           np.full(3, 2.0))
        levels = np.array([0.1, 0.5, 0.9], dtype=np.float32)
        roots, _, _ = cells.quantiles(levels)
        assert roots.dtype == np.float64
        tail, _, _ = cells.tails(roots, np.ones(3, dtype=bool))
        np.testing.assert_allclose(tail, levels, atol=1e-7)

