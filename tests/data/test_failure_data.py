"""Tests for the failure-data containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import DataValidationError


class TestFailureTimeData:
    def test_basic_properties(self):
        data = FailureTimeData([1.0, 2.0, 5.0], horizon=10.0)
        assert data.count == 3
        assert data.total_time == pytest.approx(8.0)
        assert data.sum_log_times == pytest.approx(np.log([1, 2, 5]).sum())
        assert data.horizon == 10.0

    def test_default_horizon_is_last_failure(self):
        data = FailureTimeData([1.0, 4.0])
        assert data.horizon == 4.0

    def test_ties_allowed(self):
        data = FailureTimeData([1.0, 1.0, 2.0])
        assert data.count == 3

    def test_rejects_unsorted(self):
        with pytest.raises(DataValidationError):
            FailureTimeData([2.0, 1.0])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(DataValidationError):
            FailureTimeData([0.0, 1.0])
        with pytest.raises(DataValidationError):
            FailureTimeData([-1.0, 1.0])

    def test_rejects_horizon_before_last_failure(self):
        with pytest.raises(DataValidationError):
            FailureTimeData([1.0, 5.0], horizon=4.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataValidationError):
            FailureTimeData([1.0, np.nan])
        with pytest.raises(DataValidationError):
            FailureTimeData([1.0], horizon=np.inf)

    def test_empty_needs_horizon(self):
        with pytest.raises(DataValidationError):
            FailureTimeData([])
        data = FailureTimeData([], horizon=5.0)
        assert data.count == 0
        assert data.sum_log_times == 0.0

    def test_times_are_immutable(self):
        data = FailureTimeData([1.0, 2.0])
        with pytest.raises(ValueError):
            data.times[0] = 9.9

    def test_truncate(self):
        data = FailureTimeData([1.0, 2.0, 5.0], horizon=10.0)
        cut = data.truncate(3.0)
        assert cut.count == 2
        assert cut.horizon == 3.0

    def test_truncate_cannot_extend(self):
        data = FailureTimeData([1.0], horizon=2.0)
        with pytest.raises(DataValidationError):
            data.truncate(5.0)

    def test_truncate_rejects_nan_horizon(self):
        # Regression: both range guards are false for NaN, so a view
        # with horizon=nan used to come back.
        data = FailureTimeData([1.0, 2.0], horizon=3.0)
        with pytest.raises(DataValidationError, match="horizon"):
            data.truncate(float("nan"))

    def test_interarrival_times(self):
        data = FailureTimeData([1.0, 3.0, 6.0])
        assert data.interarrival_times() == pytest.approx([1.0, 2.0, 3.0])

    def test_summary_keys(self):
        summary = FailureTimeData([1.0, 2.0], horizon=4.0).summary()
        assert summary["count"] == 2.0
        assert summary["horizon"] == 4.0


class TestToGrouped:
    def test_counts_bucketing(self):
        data = FailureTimeData([1.0, 2.0, 5.0], horizon=10.0)
        grouped = data.to_grouped([2.0, 4.0, 10.0])
        assert grouped.counts.tolist() == [2, 0, 1]

    def test_boundary_time_goes_to_closing_interval(self):
        # t == boundary belongs to (s_{i-1}, s_i].
        data = FailureTimeData([2.0], horizon=4.0)
        grouped = data.to_grouped([2.0, 4.0])
        assert grouped.counts.tolist() == [1, 0]

    def test_total_preserved(self):
        data = FailureTimeData([0.5, 1.5, 2.5, 3.5], horizon=4.0)
        grouped = data.to_grouped([1.0, 2.0, 3.0, 4.0])
        assert grouped.total_count == data.count

    def test_rejects_short_boundaries(self):
        data = FailureTimeData([5.0], horizon=6.0)
        with pytest.raises(DataValidationError):
            data.to_grouped([2.0, 4.0])

    def test_rejects_boundaries_short_of_horizon(self):
        # Regression: boundaries covering every failure but stopping
        # before the horizon used to pass, silently dropping the
        # failure-free tail (s_k, te] from the grouped likelihood.
        data = FailureTimeData([1.0, 2.0], horizon=10.0)
        with pytest.raises(DataValidationError, match="horizon"):
            data.to_grouped([1.0, 2.0])

    def test_boundary_at_horizon_accepted(self):
        data = FailureTimeData([1.0, 2.0], horizon=10.0)
        grouped = data.to_grouped([2.0, 10.0])
        assert grouped.horizon == data.horizon

    def test_empty_data_still_checks_horizon(self):
        data = FailureTimeData([], horizon=10.0)
        with pytest.raises(DataValidationError, match="horizon"):
            data.to_grouped([5.0])

    @given(
        times=st.lists(
            st.floats(min_value=0.01, max_value=9.99), min_size=0, max_size=30
        )
    )
    @settings(max_examples=100)
    def test_total_count_preserved_property(self, times):
        data = FailureTimeData(np.sort(times), horizon=10.0)
        grouped = data.to_grouped(np.linspace(1.0, 10.0, 10))
        assert grouped.total_count == data.count


class TestEqualityAndHashing:
    # Regression: the generated dataclass __eq__/__hash__ raised
    # ValueError/TypeError on the ndarray fields; equality and hashing
    # are now value-based, which fleet-level dedup relies on.

    def test_times_equality(self):
        a = FailureTimeData([1.0, 2.0], horizon=5.0)
        b = FailureTimeData([1.0, 2.0], horizon=5.0)
        c = FailureTimeData([1.0, 2.5], horizon=5.0)
        assert a == b
        assert a != c
        assert a != FailureTimeData([1.0, 2.0], horizon=6.0)
        assert a != FailureTimeData([1.0, 2.0], horizon=5.0, unit="hours")
        assert a != "not data"

    def test_times_hash(self):
        a = FailureTimeData([1.0, 2.0], horizon=5.0)
        b = FailureTimeData([1.0, 2.0], horizon=5.0)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_grouped_equality(self):
        a = GroupedData(counts=[1, 2], boundaries=[1.0, 2.0])
        b = GroupedData(counts=[1, 2], boundaries=[1.0, 2.0])
        c = GroupedData(counts=[1, 3], boundaries=[1.0, 2.0])
        assert a == b
        assert a != c
        assert a != GroupedData(counts=[1, 2], boundaries=[1.0, 3.0])
        assert a != "not data"

    def test_grouped_hash_dedup(self):
        a = GroupedData(counts=[1, 2], boundaries=[1.0, 2.0])
        b = GroupedData(counts=[1, 2], boundaries=[1.0, 2.0])
        c = GroupedData(counts=[0, 2], boundaries=[1.0, 2.0])
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_cross_type_never_equal(self):
        times = FailureTimeData([1.0], horizon=1.0)
        grouped = GroupedData(counts=[1], boundaries=[1.0])
        assert times != grouped
        assert grouped != times


class TestGroupedData:
    def test_basic_properties(self):
        data = GroupedData(counts=[1, 0, 2], boundaries=[1.0, 2.0, 3.0])
        assert data.n_intervals == 3
        assert data.total_count == 3
        assert data.horizon == 3.0
        assert data.cumulative_counts.tolist() == [1, 1, 3]

    def test_interval_edges(self):
        data = GroupedData(counts=[1, 1], boundaries=[2.0, 5.0])
        assert data.interval_edges().tolist() == [0.0, 2.0, 5.0]
        assert data.intervals() == [(0.0, 2.0, 1), (2.0, 5.0, 1)]

    def test_from_equal_intervals(self):
        data = GroupedData.from_equal_intervals([3, 1, 0], interval_length=2.0)
        assert data.boundaries.tolist() == [2.0, 4.0, 6.0]

    def test_rejects_negative_counts(self):
        with pytest.raises(DataValidationError):
            GroupedData(counts=[-1], boundaries=[1.0])

    def test_rejects_noninteger_counts(self):
        with pytest.raises(DataValidationError):
            GroupedData(counts=[1.5], boundaries=[1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "counts",
        [
            [3, np.inf],
            [3.0, 2.0**70],
            [3, 2**70],
            [3, 2**63],
            [2**62, 2**62],
        ],
        ids=["inf", "float-past-int64", "int-past-int64", "uint64", "total"],
    )
    def test_rejects_counts_past_int64(self, counts):
        # Regression: inf passes the integer check (inf == floor(inf))
        # and the int64 cast wrapped it to -2**63; Python ints past
        # int64 escaped as a bare OverflowError; a total past int64
        # wrapped negative in the cumulative counts.
        with pytest.raises(DataValidationError, match="finite"):
            GroupedData(counts=counts, boundaries=[1.0, 2.0])

    def test_rejects_nonincreasing_boundaries(self):
        with pytest.raises(DataValidationError):
            GroupedData(counts=[1, 1], boundaries=[2.0, 2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DataValidationError):
            GroupedData(counts=[1], boundaries=[1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            GroupedData(counts=[], boundaries=[])

    def test_truncate(self):
        data = GroupedData(counts=[1, 2, 3], boundaries=[1.0, 2.0, 3.0])
        cut = data.truncate(2)
        assert cut.total_count == 3
        assert cut.horizon == 2.0

    def test_truncate_bounds(self):
        data = GroupedData(counts=[1], boundaries=[1.0])
        with pytest.raises(DataValidationError):
            data.truncate(0)
        with pytest.raises(DataValidationError):
            data.truncate(2)

    @pytest.mark.parametrize("n_intervals", [2.5, 2.0, "2"])
    def test_truncate_requires_an_integer(self, n_intervals):
        # Regression: a fractional count of intervals raised a bare
        # slicing TypeError.
        data = GroupedData(counts=[1, 2, 3], boundaries=[1.0, 2.0, 3.0])
        with pytest.raises(DataValidationError, match="integer"):
            data.truncate(n_intervals)

    def test_truncate_accepts_numpy_integers(self):
        data = GroupedData(counts=[1, 2, 3], boundaries=[1.0, 2.0, 3.0])
        assert data.truncate(np.int64(2)).total_count == 3

    def test_merge_intervals(self):
        data = GroupedData(counts=[1, 2, 3, 4, 5], boundaries=[1, 2, 3, 4, 5])
        merged = data.merge_intervals(2)
        assert merged.counts.tolist() == [3, 7, 5]
        assert merged.boundaries.tolist() == [2.0, 4.0, 5.0]
        assert merged.total_count == data.total_count

    def test_merge_identity(self):
        data = GroupedData(counts=[1, 2], boundaries=[1.0, 2.0])
        assert data.merge_intervals(1) is data

    def test_with_unit(self):
        data = GroupedData(counts=[1], boundaries=[1.0], unit="days")
        assert data.with_unit("weeks").unit == "weeks"

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40),
        factor=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=100)
    def test_merge_preserves_totals_property(self, counts, factor):
        data = GroupedData.from_equal_intervals(counts)
        merged = data.merge_intervals(factor)
        assert merged.total_count == data.total_count
        assert merged.horizon == data.horizon
