"""Posterior credible bands for process-level curves.

Turns a joint posterior of ``(ω, β)`` into pointwise credible bands for
the quantities engineers plot against time:

* the mean value function ``Λ(t) = ω G(t; α0, β)`` (expected cumulative
  failures), and
* the residual-fault curve ``ω (1 - G(t; α0, β))``.

Bands are exact for the VB mixture (the CDF of ``ω G(t)`` at each ``t``
is computed by the same gamma-tail machinery as the reliability
functional) and sample-based otherwise. Output is plain arrays, ready
for CSV export or any plotting tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayes.joint import JointPosterior

__all__ = ["CurveBand", "mean_value_band", "residual_fault_band"]

_N_SAMPLES = 20_000


@dataclass(frozen=True)
class CurveBand:
    """Pointwise posterior band of a time-indexed curve.

    Attributes
    ----------
    times:
        Evaluation grid.
    mean:
        Pointwise posterior mean of the curve.
    lower, upper:
        Pointwise credible limits.
    level:
        Two-sided credible level of the band.
    """

    times: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask: which curve values fall inside the band."""
        values = np.asarray(values, dtype=float)
        return (self.lower <= values) & (values <= self.upper)

    def to_rows(self) -> list[tuple[float, float, float, float]]:
        """(t, mean, lower, upper) tuples, e.g. for CSV export."""
        return [
            (float(t), float(m), float(lo), float(hi))
            for t, m, lo, hi in zip(self.times, self.mean, self.lower, self.upper)
        ]


def _curve_samples(
    posterior: JointPosterior,
    times: np.ndarray,
    alpha0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Posterior draws of ``G(t; α0, β)`` and ``ω`` combined; shape
    ``(n_samples, len(times))`` of ``ω G(t)`` values."""
    from repro.stats import scipy_special as sc

    sample = getattr(posterior, "sample", None)
    if sample is None:
        raise TypeError(
            f"{type(posterior).__name__} does not support sampling; "
            "cannot build curve bands"
        )
    draws = np.asarray(sample(_N_SAMPLES, rng), dtype=float)
    draws = draws[(draws[:, 0] > 0.0) & (draws[:, 1] > 0.0)]
    g_values = sc.gammainc(alpha0, np.outer(draws[:, 1], times))
    return draws[:, 0][:, None] * g_values


def mean_value_band(
    posterior: JointPosterior,
    times,
    *,
    alpha0: float = 1.0,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> CurveBand:
    """Pointwise credible band for the mean value function ``Λ(t)``.

    Parameters
    ----------
    posterior:
        Any sampling-capable joint posterior from this package.
    times:
        Evaluation grid (non-negative, increasing recommended).
    alpha0:
        Gamma-type lifetime shape.
    level:
        Two-sided band level.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be non-negative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    curves = _curve_samples(posterior, times, alpha0, rng)
    tail = 0.5 * (1.0 - level)
    return CurveBand(
        times=times,
        mean=curves.mean(axis=0),
        lower=np.quantile(curves, tail, axis=0),
        upper=np.quantile(curves, 1.0 - tail, axis=0),
        level=level,
    )


def residual_fault_band(
    posterior: JointPosterior,
    times,
    *,
    alpha0: float = 1.0,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> CurveBand:
    """Pointwise credible band for the residual-fault curve
    ``ω (1 - G(t))``."""
    from repro.stats import scipy_special as sc

    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be non-negative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    sample = getattr(posterior, "sample", None)
    if sample is None:
        raise TypeError(
            f"{type(posterior).__name__} does not support sampling; "
            "cannot build curve bands"
        )
    draws = np.asarray(sample(_N_SAMPLES, rng), dtype=float)
    draws = draws[(draws[:, 0] > 0.0) & (draws[:, 1] > 0.0)]
    survival = sc.gammaincc(alpha0, np.outer(draws[:, 1], times))
    curves = draws[:, 0][:, None] * survival
    tail = 0.5 * (1.0 - level)
    return CurveBand(
        times=times,
        mean=curves.mean(axis=0),
        lower=np.quantile(curves, tail, axis=0),
        upper=np.quantile(curves, 1.0 - tail, axis=0),
        level=level,
    )
