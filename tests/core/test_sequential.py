"""Tests for the sequential reliability tracker."""

import math

import numpy as np
import pytest

from repro.core.sequential import ReliabilityTracker
from repro.bayes.priors import ModelPrior
from repro.exceptions import DataValidationError


@pytest.fixture()
def tracker(info_prior_grouped):
    return ReliabilityTracker(
        info_prior_grouped,
        prediction_window=1.0,
        reliability_target=0.7,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTrackerValidation:
    """Bad tracker settings fail at construction, before any fit is
    paid for or written to a cache."""

    @pytest.mark.parametrize("window", [math.nan, -1.0])
    def test_nan_or_negative_window_rejected(self, info_prior_grouped, window):
        with pytest.raises(ValueError, match="prediction_window"):
            ReliabilityTracker(info_prior_grouped, prediction_window=window)

    @pytest.mark.parametrize("level", [math.nan, 0.0, 1.0, 1.5])
    def test_level_outside_unit_interval_rejected(
        self, info_prior_grouped, level
    ):
        with pytest.raises(ValueError, match="level"):
            ReliabilityTracker(info_prior_grouped, level=level)


class TestTracker:
    def test_replay_grouped_produces_one_record_per_period(
        self, tracker, grouped_data
    ):
        history = tracker.replay_grouped(grouped_data, period=8)
        assert len(history) == grouped_data.n_intervals // 8
        horizons = [record.horizon for record in history]
        assert horizons == sorted(horizons)

    def test_observed_counts_cumulative(self, tracker, grouped_data):
        history = tracker.replay_grouped(grouped_data, period=8)
        counts = [record.observed_failures for record in history]
        assert counts == sorted(counts)
        assert counts[-1] == grouped_data.total_count

    def test_reliability_improves_as_faults_deplete(self, tracker, grouped_data):
        history = tracker.replay_grouped(grouped_data, period=8)
        # Late-campaign reliability should exceed early-campaign.
        assert history[-1].reliability_point > history[0].reliability_point

    def test_first_ship_record(self, tracker, grouped_data):
        tracker.replay_grouped(grouped_data, period=8)
        record = tracker.first_ship_record()
        if record is not None:
            assert record.meets_target
            assert record.reliability_lower >= 0.7

    def test_replay_times(self, times_data, info_prior_times):
        tracker = ReliabilityTracker(
            info_prior_times,
            prediction_window=1000.0,
            reliability_target=0.9,
        )
        checkpoints = np.linspace(
            times_data.times[5], times_data.horizon, 4
        )
        history = tracker.replay_times(times_data, checkpoints)
        assert len(history) == 4
        assert history[-1].observed_failures == times_data.count

    def test_residuals_decrease_over_campaign(self, tracker, grouped_data):
        history = tracker.replay_grouped(grouped_data, period=16)
        assert history[-1].expected_residual < history[0].expected_residual + 5.0

    def test_second_replay_does_not_double_count(self, tracker, grouped_data):
        # Regression: replay_* used to return the cumulative
        # ``self.history``, so a second call reported the first call's
        # records again.
        first = tracker.replay_grouped(grouped_data, period=16)
        second = tracker.replay_grouped(grouped_data, period=16)
        assert len(first) == len(second) == grouped_data.n_intervals // 16
        # history is where accumulation happens, by contract
        assert len(tracker.history) == len(first) + len(second)

    def test_replay_times_rejects_nan_checkpoint(
        self, times_data, info_prior_times
    ):
        # Regression: a NaN checkpoint truncated to horizon=nan and the
        # fit failed later with a misleading TruncationError.
        tracker = ReliabilityTracker(info_prior_times, prediction_window=1000.0)
        checkpoints = [float(times_data.times[5]), math.nan]
        with pytest.raises(DataValidationError, match="horizon"):
            tracker.replay_times(times_data, checkpoints)

    def test_replay_times_returns_only_own_records(
        self, times_data, info_prior_times
    ):
        tracker = ReliabilityTracker(info_prior_times, prediction_window=1000.0)
        checkpoints = [float(times_data.times[5]), float(times_data.horizon)]
        first = tracker.replay_times(times_data, checkpoints)
        second = tracker.replay_times(times_data, checkpoints)
        assert len(first) == 2
        assert len(second) == 2
        assert len(tracker.history) == 4

    def test_validation(self, info_prior_grouped, grouped_data):
        with pytest.raises(ValueError):
            ReliabilityTracker(info_prior_grouped, reliability_target=1.5)
        tracker = ReliabilityTracker(info_prior_grouped)
        with pytest.raises(ValueError):
            tracker.replay_grouped(grouped_data, period=0)


class TestCampaignScale:
    def test_200_period_campaign(self):
        """A long campaign stays linear: 200 truncate views share the
        full campaign's buffers and every period warm-starts."""
        rng = np.random.default_rng(11)
        counts = rng.poisson(4.0 * np.exp(-np.arange(200) / 80.0))
        from repro.data.failure_data import GroupedData

        campaign = GroupedData(
            counts=counts, boundaries=np.arange(1.0, 201.0)
        )
        # truncate views alias the parent's validated buffers
        view = campaign.truncate(120)
        assert view.counts.base is not None
        assert np.shares_memory(view.counts, campaign.counts)
        assert np.shares_memory(view.boundaries, campaign.boundaries)

        prior = ModelPrior.informative(60.0, 25.0, 0.05, 0.02)
        tracker = ReliabilityTracker(
            prior, prediction_window=1.0, reliability_target=0.9
        )
        history = tracker.replay_grouped(campaign)
        assert len(history) == 200
        assert [r.horizon for r in history] == list(
            np.arange(1.0, 201.0)
        )
        assert history[-1].observed_failures == campaign.total_count
        # every period after the first must have warm-started
        assert all(r.warm_started for r in history[1:])
        assert not history[0].warm_started

    def test_cold_tracker_never_flags_warm(self, info_prior_grouped, grouped_data):
        tracker = ReliabilityTracker(info_prior_grouped, warm_start=False)
        history = tracker.replay_grouped(grouped_data, period=16)
        assert not any(r.warm_started for r in history)

    def test_cached_tracker_replays_prefix_without_solving(
        self, info_prior_grouped, grouped_data, tmp_path
    ):
        from repro import obs
        from repro.cache.store import PosteriorCache

        def replay(cache):
            tracker = ReliabilityTracker(
                info_prior_grouped, warm_start=False, cache=cache
            )
            return tracker.replay_grouped(grouped_data, period=16)

        first = replay(PosteriorCache(tmp_path))
        with obs.capture() as counters:
            second = replay(PosteriorCache(tmp_path))
        assert counters.counters.get("vb2.solves", 0) == 0
        assert [r.reliability_lower for r in first] == [
            r.reliability_lower for r in second
        ]
