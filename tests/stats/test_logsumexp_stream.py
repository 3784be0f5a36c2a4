"""Edge-case and property tests for ``log_sum_exp_stream``.

The segmented reduction is the normalisation kernel of every VB2 fit
and of the lane-parallel Gibbs engine, and its raw ``reduceat``
implementation has two classic traps: a zero-width segment
(``starts[k] == starts[k+1]``) silently misread as one element, and a
trailing ``starts[k] == len(values)`` raising. These tests pin the
documented semantics — empty segment ⇒ ``-inf`` (log of an empty sum)
— plus stability properties against the scalar ``log_sum_exp``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.special import log_sum_exp, log_sum_exp_stream


def stream(values, starts):
    return log_sum_exp_stream(
        np.asarray(values, dtype=float), np.asarray(starts)
    )


class TestEdgeCases:
    def test_empty_segment_is_minus_inf(self):
        out = stream([1.0, 2.0, 3.0], [0, 2, 2, 3])
        assert out[1] == -np.inf
        np.testing.assert_allclose(out[0], log_sum_exp([1.0, 2.0]))
        np.testing.assert_allclose(out[2], 3.0)

    def test_leading_and_trailing_empty_segments(self):
        out = stream([5.0], [0, 0, 1, 1])
        assert out[0] == -np.inf
        assert out[1] == 5.0
        assert out[2] == -np.inf

    def test_all_segments_empty(self):
        out = stream([], [0, 0, 0])
        assert np.all(np.isneginf(out))

    def test_single_element_segments(self):
        values = np.array([-3.0, 0.0, 700.0, -745.0])
        out = stream(values, [0, 1, 2, 3])
        np.testing.assert_array_equal(out, values)

    def test_all_minus_inf_lane(self):
        out = stream([-np.inf, -np.inf, 1.0], [0, 2])
        assert out[0] == -np.inf
        np.testing.assert_allclose(out[1], log_sum_exp([-np.inf, 1.0]))

    def test_mixed_magnitude_cancellation(self):
        # A huge and a tiny term in one segment: the shifted form must
        # not overflow and must keep the tiny term's contribution.
        values = np.array([800.0, 800.0 + np.log(1e-16)])
        out = stream(values, [0])
        np.testing.assert_allclose(
            out[0], 800.0 + np.log1p(1e-16), rtol=0, atol=1e-12
        )

    def test_overflow_free_for_large_inputs(self):
        out = stream([750.0, 750.0], [0])
        np.testing.assert_allclose(out[0], 750.0 + np.log(2.0))

    def test_invalid_starts_rejected(self):
        with pytest.raises(ValueError):
            stream([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError):
            stream([1.0, 2.0], [0, 3])


class TestProperties:
    @given(
        values=st.lists(
            st.floats(
                min_value=-700.0, max_value=700.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_segments_match_scalar_log_sum_exp(self, values, data):
        values = np.asarray(values)
        n_cuts = data.draw(st.integers(min_value=0, max_value=6))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=values.size),
                    min_size=n_cuts,
                    max_size=n_cuts,
                )
            )
        )
        starts = np.array([0, *cuts], dtype=np.intp)
        out = stream(values, starts)
        bounds = np.append(starts, values.size)
        for k in range(starts.size):
            seg = values[bounds[k]: bounds[k + 1]]
            if seg.size == 0:
                assert out[k] == -np.inf
            else:
                np.testing.assert_allclose(
                    out[k], log_sum_exp(seg), rtol=0, atol=1e-10
                )

    @given(
        shift=st.floats(min_value=-500.0, max_value=500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, shift):
        values = np.array([0.3, -1.2, 4.0, 2.2, -0.5])
        starts = np.array([0, 2, 4])
        base = stream(values, starts)
        shifted = stream(values + shift, starts)
        np.testing.assert_allclose(shifted, base + shift, rtol=0, atol=1e-9)
