"""Joint posterior represented by Monte Carlo samples.

This is the interface the MCMC samplers return. Quantiles follow the
paper's convention (Section 6): the ``p``-quantile from ``n`` samples
is the order statistic of rank ``round(p * n)`` — e.g. the 2.5%-
quantile of 20000 samples is the 500th smallest value.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.bayes.joint import JointPosterior

__all__ = ["EmpiricalPosterior"]

_PARAM_INDEX = {"omega": 0, "beta": 1}


class EmpiricalPosterior(JointPosterior):
    """Posterior over ``(ω, β)`` given by an ``(n, 2)`` sample array."""

    method_name = "MCMC"

    def __init__(
        self,
        samples: np.ndarray,
        *,
        method_name: str = "MCMC",
        diagnostics: dict | None = None,
    ) -> None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must have shape (n, 2), got {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")
        self._samples = samples
        self._sorted = {
            "omega": np.sort(samples[:, 0]),
            "beta": np.sort(samples[:, 1]),
        }
        self.method_name = method_name
        self.diagnostics = dict(diagnostics or {})

    # ------------------------------------------------------------------
    @property
    def samples(self) -> np.ndarray:
        """The underlying samples (copy)."""
        return self._samples.copy()

    @property
    def n_samples(self) -> int:
        """Sample count."""
        return int(self._samples.shape[0])

    # ------------------------------------------------------------------
    def mean(self, param: str) -> float:
        return float(self._samples[:, _PARAM_INDEX[self._check_param(param)]].mean())

    def variance(self, param: str) -> float:
        return float(
            self._samples[:, _PARAM_INDEX[self._check_param(param)]].var(ddof=1)
        )

    def central_moment(self, param: str, k: int) -> float:
        col = self._samples[:, _PARAM_INDEX[self._check_param(param)]]
        return float(np.mean((col - col.mean()) ** k))

    def cross_moment(self) -> float:
        return float(np.mean(self._samples[:, 0] * self._samples[:, 1]))

    def covariance(self) -> float:
        """Sample covariance (ddof=1, consistent with :meth:`variance`)."""
        return float(np.cov(self._samples[:, 0], self._samples[:, 1], ddof=1)[0, 1])

    def quantile(self, param: str, q: float) -> float:
        """Order-statistic quantile of rank ``round(q * n)`` (clamped to
        the valid range), matching the paper's convention. Routed
        through :meth:`quantile_batch` so both entry points share one
        rank-lookup implementation."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(self.quantile_batch(param, q)[0])

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """All levels by one vectorized rank lookup into the sorted
        samples (same banker's rounding as :meth:`quantile`)."""
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if levels.size and not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError("quantile levels must be in (0, 1)")
        ordered = self._sorted[self._check_param(param)]
        ranks = np.clip(np.rint(levels * ordered.size).astype(int), 1, ordered.size)
        return ordered[ranks - 1].astype(float)

    def cdf(self, param: str, x: float) -> float:
        """Empirical CDF: fraction of samples at or below ``x``."""
        ordered = self._sorted[self._check_param(param)]
        return float(np.searchsorted(ordered, x, side="right")) / ordered.size

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Bootstrap re-draw from the stored samples."""
        idx = rng.integers(0, self.n_samples, size=size)
        return self._samples[idx]

    # ------------------------------------------------------------------
    # Reliability: transform every sample (paper Section 6)
    # ------------------------------------------------------------------
    def _reliability_samples(self, c: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        c_values = np.asarray(c(self._samples[:, 1]), dtype=float)
        return np.exp(-self._samples[:, 0] * c_values)

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(self._reliability_samples(c).mean())

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        if r <= 0.0:
            return 0.0
        if r >= 1.0:
            return 1.0
        return float(np.mean(self._reliability_samples(c) <= r))

    def reliability_quantile(
        self, q: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(self.reliability_quantile_batch(q, c)[0])

    def reliability_quantile_batch(
        self, q: np.ndarray, c: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """All levels from one transform-and-sort of the reliability
        samples (the sort dominates; per-level cost is a rank lookup)."""
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if levels.size and not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError("quantile levels must be in (0, 1)")
        values = np.sort(self._reliability_samples(c))
        ranks = np.clip(np.rint(levels * values.size).astype(int), 1, values.size)
        return values[ranks - 1].astype(float)

    def residual_quantile_batch(
        self, q: np.ndarray, survival: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """``D = -log R`` is decreasing in ``R``, so the ``q``-quantile of
        ``D`` is ``-log`` of the rank-``round((1-q) n)`` reliability
        sample: exact for the sample set, from one sort, with no solve."""
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        rel = self.reliability_quantile_batch(1.0 - levels, survival)
        with np.errstate(divide="ignore"):
            return -np.log(np.clip(rel, 0.0, 1.0))

    # ------------------------------------------------------------------
    def scatter(self, max_points: int | None = None,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Subsample for scatter plots (Figure 1 uses 10000 points)."""
        if max_points is None or max_points >= self.n_samples:
            return self.samples
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self.n_samples, size=max_points, replace=False)
        return self._samples[idx]
