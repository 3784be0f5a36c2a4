"""Containers for the two failure-data structures the paper analyses.

* :class:`FailureTimeData` — ordered failure times ``0 < t_1 < ... <=
  t_me`` observed up to a horizon ``te`` (paper's ``D_T``).
* :class:`GroupedData` — failure counts ``x_i`` per interval
  ``(s_{i-1}, s_i]`` with ``s_0 = 0`` (paper's ``D_G``).

Both validate on construction and support conversion (times → groups),
summaries, and slicing to an earlier horizon, which the examples use
for online reliability tracking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataValidationError

__all__ = ["FailureTimeData", "GroupedData"]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataValidationError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class FailureTimeData:
    """Ordered failure times with an observation horizon.

    Parameters
    ----------
    times:
        Strictly positive, non-decreasing failure times. Ties are
        allowed (two failures logged at the same clock tick) because the
        likelihood only involves sums and products over the times.
    horizon:
        End of the observation period ``te``; must be at least the last
        failure time. Defaults to the last failure time.
    unit:
        Free-text time unit, carried through to reports.
    """

    times: np.ndarray
    horizon: float
    unit: str = "seconds"

    def __init__(self, times, horizon: float | None = None, unit: str = "seconds"):
        arr = _as_float_array(times, "times")
        if arr.size and arr[0] <= 0.0:
            raise DataValidationError("failure times must be strictly positive")
        if np.any(np.diff(arr) < 0.0):
            raise DataValidationError("failure times must be non-decreasing")
        if horizon is None:
            if arr.size == 0:
                raise DataValidationError(
                    "horizon is required when there are no failures"
                )
            horizon = float(arr[-1])
        horizon = float(horizon)
        if arr.size and horizon < arr[-1]:
            raise DataValidationError(
                f"horizon {horizon} is earlier than the last failure {arr[-1]}"
            )
        if horizon <= 0.0 or not np.isfinite(horizon):
            raise DataValidationError(f"horizon must be positive and finite, got {horizon}")
        arr.setflags(write=False)
        object.__setattr__(self, "times", arr)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "unit", unit)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observed failures ``me``."""
        return int(self.times.size)

    @property
    def total_time(self) -> float:
        """Sum of the observed failure times (sufficient statistic for
        the exponential/gamma likelihood)."""
        return float(self.times.sum())

    @property
    def sum_log_times(self) -> float:
        """Sum of log failure times (second sufficient statistic of the
        gamma likelihood)."""
        return float(np.log(self.times).sum()) if self.count else 0.0

    def truncate(self, horizon: float) -> "FailureTimeData":
        """Restrict the data to failures occurring at or before ``horizon``.

        The result is a *view*: the times are already validated and
        sorted, so the cut point comes from one binary search and the
        kept prefix shares this instance's (read-only) buffer. Replaying
        a campaign period by period therefore costs O(log n) per
        period instead of re-scanning the full history every time.
        """
        horizon = float(horizon)
        # Written as one negated range test so that NaN, for which every
        # comparison is false, is rejected too.
        if not 0.0 < horizon <= self.horizon:
            raise DataValidationError(
                f"truncation horizon must lie in (0, {self.horizon}] "
                f"(the observed period), got {horizon}"
            )
        kept = self.times[: np.searchsorted(self.times, horizon, side="right")]
        view = object.__new__(FailureTimeData)
        object.__setattr__(view, "times", kept)
        object.__setattr__(view, "horizon", horizon)
        object.__setattr__(view, "unit", self.unit)
        return view

    def to_grouped(self, boundaries) -> "GroupedData":
        """Bucket the failure times into intervals ``(s_{i-1}, s_i]``.

        Parameters
        ----------
        boundaries:
            Strictly increasing positive interval endpoints
            ``s_1 < ... < s_k``; the final endpoint must be at least the
            data horizon so that no failure escapes the buckets.
        """
        bounds = _as_float_array(boundaries, "boundaries")
        if bounds.size == 0:
            raise DataValidationError("at least one interval boundary is required")
        if bounds[0] <= 0.0 or np.any(np.diff(bounds) <= 0.0):
            raise DataValidationError("boundaries must be positive and strictly increasing")
        if self.count and bounds[-1] < self.times[-1]:
            raise DataValidationError(
                "last boundary precedes the last observed failure"
            )
        if bounds[-1] < self.horizon:
            # Grouping must cover the whole observed period: truncating
            # at the last failure would silently drop the failure-free
            # tail (s_k, te], which changes the grouped likelihood.
            raise DataValidationError(
                f"last boundary {bounds[-1]} precedes the data horizon "
                f"{self.horizon}; the grouped view would silently drop "
                f"the failure-free tail"
            )
        # searchsorted with side='left' assigns a time equal to a boundary
        # to the interval it closes, matching the (s_{i-1}, s_i] convention.
        idx = np.searchsorted(bounds, self.times, side="left")
        counts = np.bincount(idx, minlength=bounds.size)[: bounds.size]
        return GroupedData(counts=counts, boundaries=bounds, unit=self.unit)

    # The generated dataclass ``__eq__``/``__hash__`` choke on ndarray
    # fields (`==` broadcasts to an array whose truth value is
    # ambiguous; arrays are unhashable), so equality and hashing are
    # array-aware and value-based — fleet-level dedup and posterior
    # caches key on them.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTimeData):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.unit == other.unit
            and np.array_equal(self.times, other.times)
        )

    def __hash__(self) -> int:
        return hash((self.times.tobytes(), self.horizon, self.unit))

    def interarrival_times(self) -> np.ndarray:
        """Differences between successive failure times (first one from 0)."""
        if self.count == 0:
            return np.empty(0)
        return np.diff(np.concatenate(([0.0], self.times)))

    def summary(self) -> dict[str, float]:
        """Human-oriented summary statistics."""
        return {
            "count": float(self.count),
            "horizon": self.horizon,
            "first_failure": float(self.times[0]) if self.count else float("nan"),
            "last_failure": float(self.times[-1]) if self.count else float("nan"),
            "mean_interarrival": (
                float(self.horizon / self.count) if self.count else float("nan")
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailureTimeData(count={self.count}, horizon={self.horizon:g} "
            f"{self.unit})"
        )


@dataclass(frozen=True, eq=False)
class GroupedData:
    """Per-interval failure counts (paper's grouped data ``D_G``).

    Parameters
    ----------
    counts:
        Non-negative integer failure counts ``x_1, ..., x_k``.
    boundaries:
        Strictly increasing interval endpoints ``s_1 < ... < s_k`` with
        the implicit ``s_0 = 0``.
    unit:
        Free-text time unit.
    """

    counts: np.ndarray
    boundaries: np.ndarray
    unit: str = "days"
    _cum: np.ndarray = field(repr=False, default=None)

    def __init__(self, counts, boundaries, unit: str = "days"):
        counts_arr = np.asarray(counts)
        if counts_arr.ndim != 1:
            raise DataValidationError("counts must be one-dimensional")
        if counts_arr.size == 0:
            raise DataValidationError("grouped data needs at least one interval")
        if np.any(counts_arr < 0):
            raise DataValidationError("counts must be non-negative")
        if not np.all(counts_arr == np.floor(counts_arr)):
            raise DataValidationError("counts must be integers")
        # inf passes the integer test (inf == floor(inf)) and Python ints
        # past int64 arrive as an object array; both would wrap in the
        # int64 cast. Counts are non-negative, so bounding the total
        # bounds every count and the cumulative counts too.
        if not float(np.sum(counts_arr, dtype=float)) < 2.0**63:
            raise DataValidationError(
                "counts must be finite with a total below 2**63"
            )
        counts_arr = counts_arr.astype(np.int64)
        bounds = _as_float_array(boundaries, "boundaries")
        if bounds.shape != counts_arr.shape:
            raise DataValidationError(
                f"counts ({counts_arr.size}) and boundaries ({bounds.size}) "
                "must have equal length"
            )
        if bounds[0] <= 0.0 or np.any(np.diff(bounds) <= 0.0):
            raise DataValidationError("boundaries must be positive and strictly increasing")
        counts_arr.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "counts", counts_arr)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "unit", unit)
        cum = np.cumsum(counts_arr)
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    # ------------------------------------------------------------------
    @property
    def n_intervals(self) -> int:
        """Number of counting intervals ``k``."""
        return int(self.counts.size)

    @property
    def total_count(self) -> int:
        """Total number of observed failures ``Σ x_i``."""
        return int(self._cum[-1])

    @property
    def horizon(self) -> float:
        """End of the observation period ``s_k``."""
        return float(self.boundaries[-1])

    @property
    def cumulative_counts(self) -> np.ndarray:
        """Cumulative failure counts at each boundary (copy)."""
        return self._cum.copy()

    # Array-aware value equality/hashing, mirroring FailureTimeData
    # (the generated dataclass methods raise on ndarray fields).
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupedData):
            return NotImplemented
        return (
            self.unit == other.unit
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.boundaries, other.boundaries)
        )

    def __hash__(self) -> int:
        return hash(
            (self.counts.tobytes(), self.boundaries.tobytes(), self.unit)
        )

    def interval_edges(self) -> np.ndarray:
        """All ``k+1`` edges ``[0, s_1, ..., s_k]``."""
        return np.concatenate(([0.0], self.boundaries))

    def intervals(self) -> list[tuple[float, float, int]]:
        """List of ``(lo, hi, count)`` triples."""
        edges = self.interval_edges()
        return [
            (float(edges[i]), float(edges[i + 1]), int(self.counts[i]))
            for i in range(self.n_intervals)
        ]

    @classmethod
    def from_equal_intervals(
        cls, counts, interval_length: float = 1.0, unit: str = "days"
    ) -> "GroupedData":
        """Build grouped data from counts over equally long intervals."""
        counts_arr = np.asarray(counts)
        if interval_length <= 0:
            raise DataValidationError("interval_length must be positive")
        bounds = interval_length * np.arange(1, counts_arr.size + 1, dtype=float)
        return cls(counts=counts_arr, boundaries=bounds, unit=unit)

    def truncate(self, n_intervals: int) -> "GroupedData":
        """Keep the first ``n_intervals`` intervals.

        The result is a *view*: counts, boundaries, and the cumulative-
        count cache are prefixes of this instance's (read-only, already
        validated) buffers, so truncation is O(1) — replaying a
        campaign period by period costs O(periods), not O(periods²).
        """
        try:
            n_intervals = operator.index(n_intervals)
        except TypeError:
            raise DataValidationError(
                f"n_intervals must be an integer, got {n_intervals!r}"
            ) from None
        if not 1 <= n_intervals <= self.n_intervals:
            raise DataValidationError(
                f"n_intervals must be in [1, {self.n_intervals}], got {n_intervals}"
            )
        view = object.__new__(GroupedData)
        object.__setattr__(view, "counts", self.counts[:n_intervals])
        object.__setattr__(view, "boundaries", self.boundaries[:n_intervals])
        object.__setattr__(view, "unit", self.unit)
        object.__setattr__(view, "_cum", self._cum[:n_intervals])
        return view

    def merge_intervals(self, factor: int) -> "GroupedData":
        """Coarsen the data by summing each run of ``factor`` intervals.

        A trailing partial run is kept as its own (shorter) interval.
        """
        if factor < 1:
            raise DataValidationError("factor must be at least 1")
        if factor == 1:
            return self
        new_counts = [
            int(self.counts[i : i + factor].sum())
            for i in range(0, self.n_intervals, factor)
        ]
        new_bounds = [
            float(self.boundaries[min(i + factor, self.n_intervals) - 1])
            for i in range(0, self.n_intervals, factor)
        ]
        return GroupedData(counts=new_counts, boundaries=new_bounds, unit=self.unit)

    def with_unit(self, unit: str) -> "GroupedData":
        """Copy of this data with a different time-unit label."""
        return GroupedData(counts=self.counts, boundaries=self.boundaries, unit=unit)

    def summary(self) -> dict[str, float]:
        """Human-oriented summary statistics."""
        return {
            "n_intervals": float(self.n_intervals),
            "total_count": float(self.total_count),
            "horizon": self.horizon,
            "max_count": float(self.counts.max()),
            "empty_intervals": float(int((self.counts == 0).sum())),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedData(k={self.n_intervals}, total={self.total_count}, "
            f"horizon={self.horizon:g} {self.unit})"
        )
