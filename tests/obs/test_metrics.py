"""Unit tests for the fixed log-bucket grid of the telemetry histogram
(:class:`repro.obs.core.Histogram`)."""

import math

import pytest

from repro.obs.core import (
    BUCKETS_PER_DECADE,
    Histogram,
    bucket_bounds,
    bucket_index,
)


class TestBuckets:
    def test_bounds_contain_value(self):
        for value in (1e-8, 3.2e-4, 0.5, 1.0, 7.3, 9999.0):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value <= hi * (1 + 1e-12)

    def test_monotone(self):
        indices = [bucket_index(v) for v in (1e-6, 1e-3, 1.0, 1e3)]
        assert indices == sorted(indices)
        assert len(set(indices)) == 4

    def test_four_buckets_per_decade(self):
        assert BUCKETS_PER_DECADE == 4
        assert bucket_index(1.0) == 0
        assert bucket_index(10.0) == 4
        assert bucket_index(0.1) == -4
        lo, hi = bucket_bounds(0)
        assert lo == 1.0
        assert hi == pytest.approx(10.0 ** 0.25)

    def test_values_outside_the_grid_clamp_to_the_edge_buckets(self):
        low, high = bucket_index(1e-9), bucket_index(1e9 * (1 - 1e-15))
        assert bucket_bounds(low)[0] == pytest.approx(1e-9)
        assert bucket_bounds(high)[1] == pytest.approx(1e9)
        for tiny in (1e-12, 5e-324):
            assert bucket_index(tiny) == low
        for huge in (1e9, 1e300, math.inf):
            assert bucket_index(huge) == high


class TestLogHistogram:
    def test_summary_fields(self):
        hist = Histogram()
        for v in (1.0, 2.0, 4.0):
            hist.record(v)
        s = hist.summary()
        assert s["count"] == 3
        assert s["total"] == pytest.approx(7.0)
        assert s["mean"] == pytest.approx(7.0 / 3.0)
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["p50"] is not None

    def test_quantile_is_the_geometric_midpoint_of_its_bucket(self):
        # every midpoint lies inside [min, max] of the recorded values
        hist = Histogram()
        for v in [1.2] * 50 + [150.0] * 45 + [15000.0] * 5:
            hist.record(v)
        for q, value in ((0.5, 1.2), (0.9, 150.0), (0.99, 15000.0)):
            lo, hi = bucket_bounds(bucket_index(value))
            assert hist.quantile(q) == pytest.approx(math.sqrt(lo * hi))
        s = hist.summary()
        assert (s["p50"], s["p90"], s["p99"]) == (
            hist.quantile(0.5), hist.quantile(0.9), hist.quantile(0.99)
        )

    def test_quantile_stays_inside_the_recorded_range(self):
        # κ floored at 1 fills the bottom of [1, 1.78): the midpoint 1.33
        # lies above every value recorded
        hist = Histogram()
        for _ in range(20):
            hist.record(1.0)
        assert hist.quantile(0.5) == hist.quantile(0.99) == 1.0
        # one value past the midpoint: the bucket reads its midpoint again
        hist.record(1.6)
        assert hist.quantile(0.5) == pytest.approx(10.0 ** 0.125)

    def test_quantile_below_the_grid_reads_the_observed_extremes(self):
        # a DT fit's tail mass clamps into the lowest bucket, [1e-9, 1.78e-9)
        hist = Histogram()
        for value in (3.1e-21, 4.0e-19, 2.5e-18):
            hist.record(value)
        assert hist.quantile(0.1) == hist.quantile(0.99) == 2.5e-18
        # inside the grid, a bucket's midpoint is clamped to the largest value
        hist.record(2e-9)
        assert hist.quantile(0.5) == pytest.approx(10.0 ** -8.875)
        assert hist.quantile(0.99) == 2e-9

    def test_clamped_quantiles_merge_exactly(self):
        left, right, whole = Histogram(), Histogram(), Histogram()
        for i, value in enumerate((1.0, 1.0, 3e-21, 1.6, 1.0, 2e10)):
            (left if i % 2 else right).record(value)
            whole.record(value)
        left.merge_state(right.state())
        assert left.summary() == whole.summary()

    def test_quantile_none_with_negatives(self):
        hist = Histogram()
        hist.record(-1.0)
        hist.record(2.0)
        assert hist.quantile(0.5) is None

    @pytest.mark.parametrize("value", [0.0, -3.0, math.nan])
    def test_quantiles_none_when_a_value_is_not_positive(self, value):
        hist = Histogram()
        hist.record(5.0)
        hist.record(value)
        s = hist.summary()
        assert s["p50"] is None and s["p90"] is None and s["p99"] is None
        assert hist.nonpos == 1

    def test_quantiles_none_when_empty(self):
        s = Histogram().summary()
        assert s["p50"] is None and s["p90"] is None and s["p99"] is None

    def test_state_round_trip(self):
        hist = Histogram()
        for v in (0.5, 1.5, 1.5, 300.0, 0.0, -2.0):
            hist.record(v)
        other = Histogram()
        other.merge_state(hist.state())
        assert other.state() == hist.state()
        assert other.summary() == hist.summary()

    def test_merge_is_sum(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0):
            a.record(v)
        for v in (3.0, 4.0):
            b.record(v)
        a.merge_state(b.state())
        assert a.count == 4
        assert a.total == pytest.approx(10.0)
        assert a.min == 1.0 and a.max == 4.0
        assert sum(a.buckets.values()) == 4
