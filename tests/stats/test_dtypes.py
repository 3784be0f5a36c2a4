"""Dtype-following regression tests for the hot kernels.

The uniform→variate layer, the gamma-cell quantile engine and the segment
reductions carry no hard-coded ``dtype=float`` casts: dtypes follow
the inputs (float32 in ⇒ float32 out), with ints/bools promoting to
float64. These tests pin both directions so a future edit cannot
quietly reintroduce an upcast."""

import numpy as np

from repro.stats.special import as_float
from repro.stats.gamma_dist import gamma_from_uniform
from repro.stats.gamma_cells import GammaCells
from repro.stats.uniforms import segment_sums


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


class TestSegmentSumsDtype:
    # reduceat convention: offsets mark segment starts only, so the
    # last segment runs to the end of `values`.
    def test_float64_in_float64_out(self):
        out = segment_sums(np.arange(6.0), np.array([0, 2, 4]))
        assert out.dtype == np.float64

    def test_float32_in_float32_out(self):
        out = segment_sums(
            np.arange(6, dtype=np.float32), np.array([0, 2, 4])
        )
        assert out.dtype == np.float32

    def test_int_in_float64_out(self):
        out = segment_sums(np.arange(6), np.array([0, 2, 4]))
        assert out.dtype == np.float64


class TestVariateLayerDtype:
    def test_gamma_from_uniform_float64(self):
        shape = np.full(8, 3.0)
        u = np.linspace(0.1, 0.9, 8)
        assert gamma_from_uniform(shape, u).dtype == np.float64


class TestRootfindDtype:
    def test_gamma_cells_float64_in_float64_out(self):
        cells = GammaCells(np.full(3, 1.0 / 3.0), np.array([4.0, 5.0, 6.0]),
                           np.full(3, 2.0))
        levels = np.array([0.1, 0.5, 0.9], dtype=np.float32)
        roots, _, _ = cells.quantiles(levels)
        assert roots.dtype == np.float64
        tail, _, _ = cells.tails(roots, np.ones(3, dtype=bool))
        np.testing.assert_allclose(tail, levels, atol=1e-7)

