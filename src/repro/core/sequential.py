"""Sequential (online) reliability tracking.

Formalises the workflow of ``examples/release_readiness.py``: refit the
posterior as the test campaign progresses and emit one tracking record
per observation period — expected residual faults, reliability bounds
and a ship/keep-testing verdict against a target.

VB2's speed (milliseconds per refit) is what makes per-period refitting
practical; the same loop with paper-scale MCMC would take hours, which
is exactly the operational argument of the paper's Tables 6–7. Two
mechanisms keep the loop linear in campaign length:

* **Warm starts** (default on): each period's fit starts its
  truncation bound at the previous period's effective support, so a
  refit one data point away from the answer skips the growth rounds a
  cold fit would replay (see docs/METHOD.md §4.5).
* **View-based truncation**: the ``truncate`` slices handed to each
  period share the full campaign's validated buffers, so slicing costs
  O(1)/O(log n) per period instead of re-scanning the whole history.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.reliability import estimate_reliability
from repro.core.vb2 import fit_vb2
from repro.core.warmstart import warm_start_from
from repro.data.failure_data import FailureTimeData, GroupedData

__all__ = ["TrackingRecord", "ReliabilityTracker"]


@dataclass(frozen=True)
class TrackingRecord:
    """Posterior state after one observation period.

    Attributes
    ----------
    horizon:
        End of the observed period.
    observed_failures:
        Cumulative failures seen so far.
    expected_residual:
        ``E[N] - observed``: faults still expected in the product.
    reliability_point, reliability_lower:
        Point estimate and one-sided lower credible bound of the
        reliability over the next prediction window.
    meets_target:
        Whether the lower bound reaches the tracker's target.
    fit_iterations:
        Evaluations of ``N(ξ)`` the period's refit consumed (the
        ``fixed_point_iterations`` diagnostic).
    warm_started:
        Whether the refit started from the previous period's posterior.
    """

    horizon: float
    observed_failures: int
    expected_residual: float
    reliability_point: float
    reliability_lower: float
    meets_target: bool
    fit_iterations: int = 0
    warm_started: bool = False


def _fit_diagnostics(posterior) -> dict:
    """The fit diagnostics, looking through a sandwich wrapper."""
    diagnostics = getattr(posterior, "diagnostics", None)
    if diagnostics:
        return diagnostics
    base = getattr(posterior, "base", None)
    if base is not None:
        return getattr(base, "diagnostics", None) or {}
    return {}


class ReliabilityTracker:
    """Sequential reliability assessment over a growing dataset.

    Parameters
    ----------
    prior:
        Prior for every refit (sequential *refitting*, not prior
        updating — the full posterior is recomputed from all data seen,
        which is exact and cheap with VB2).
    alpha0:
        Gamma-type lifetime shape.
    prediction_window:
        Length ``u`` of the forward reliability window.
    reliability_target:
        Required lower credible bound for a "ship" verdict.
    level:
        Credible level of the lower bound (two-sided level; the lower
        endpoint is used).
    warm_start:
        Start each period's fit from the previous period's posterior
        (default): its truncation bound begins at the previous
        effective support. Warm starts change only the path, never the
        answer — records agree with cold refits to solver tolerance.
        Set ``False`` to force cold refits every period.
    cache:
        Optional :class:`~repro.cache.store.PosteriorCache`; each
        period's fit then goes through the content-addressed cache, so
        replaying an already-seen campaign prefix skips the solver
        entirely.

    The ``history`` attribute accumulates every record ever observed by
    this tracker instance; the ``replay_*`` helpers return only the
    records each call produced.
    """

    def __init__(
        self,
        prior: ModelPrior,
        *,
        alpha0: float = 1.0,
        prediction_window: float = 1.0,
        reliability_target: float = 0.9,
        level: float = 0.99,
        config: VBConfig | None = None,
        warm_start: bool = True,
        cache=None,
    ) -> None:
        # Validated before any fit is paid for or cached: a NaN window
        # would otherwise turn every c(beta) into NaN and R into 1.
        if not 0.0 < reliability_target < 1.0:
            raise ValueError("reliability_target must be in (0, 1)")
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        if not prediction_window >= 0.0:
            raise ValueError(
                f"prediction_window must be non-negative, "
                f"got {prediction_window}"
            )
        self._prior = prior
        self._alpha0 = alpha0
        self._window = prediction_window
        self._target = reliability_target
        self._level = level
        self._config = config or VBConfig()
        self._warm = bool(warm_start)
        self._cache = cache
        self._state = self._config.warm_start  # carried across periods
        self.history: list[TrackingRecord] = []

    def observe(self, data: FailureTimeData | GroupedData) -> TrackingRecord:
        """Refit on the data observed so far and append a record."""
        config = self._config
        if self._state is not None and config.warm_start is not self._state:
            config = replace(config, warm_start=self._state)
        posterior = self._fit(data, config)
        if isinstance(data, FailureTimeData):
            observed = data.count
        else:
            observed = data.total_count
        estimate = estimate_reliability(
            posterior,
            data.horizon,
            self._window,
            alpha0=self._alpha0,
            level=self._level,
        )
        diagnostics = _fit_diagnostics(posterior)
        record = TrackingRecord(
            horizon=data.horizon,
            observed_failures=observed,
            expected_residual=posterior.expected_total_faults() - observed,
            reliability_point=estimate.point,
            reliability_lower=estimate.lower,
            meets_target=estimate.lower >= self._target,
            fit_iterations=int(
                diagnostics.get("fixed_point_iterations", 0)
            ),
            warm_started=bool(diagnostics.get("warm_started", False)),
        )
        self.history.append(record)
        if self._warm:
            self._state = warm_start_from(posterior)
        return record

    def _fit(self, data, config: VBConfig):
        if self._cache is not None:
            from repro.cache.fitting import fit_vb2_cached

            return fit_vb2_cached(
                data, self._prior, self._alpha0, config, cache=self._cache
            )
        return fit_vb2(data, self._prior, self._alpha0, config)

    def replay_grouped(
        self, data: GroupedData, period: int = 1
    ) -> list[TrackingRecord]:
        """Replay a grouped campaign ``period`` intervals at a time.

        Returns only the records produced by *this* call;
        ``self.history`` keeps accumulating across calls.
        """
        if period < 1:
            raise ValueError("period must be at least 1")
        return [
            self.observe(data.truncate(end))
            for end in range(period, data.n_intervals + 1, period)
        ]

    def replay_times(
        self, data: FailureTimeData, checkpoints
    ) -> list[TrackingRecord]:
        """Replay failure-time data at the given horizon checkpoints.

        Returns only the records produced by *this* call;
        ``self.history`` keeps accumulating across calls.
        """
        return [
            self.observe(data.truncate(float(horizon)))
            for horizon in np.asarray(checkpoints, dtype=float)
        ]

    def first_ship_record(self) -> TrackingRecord | None:
        """Earliest record meeting the target, if any."""
        for record in self.history:
            if record.meets_target:
                return record
        return None
