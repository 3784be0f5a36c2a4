"""Poisson probability helpers.

Used by the NHPP model layer (count likelihoods) and the Gibbs samplers
(residual-fault-count conditionals).
"""

from __future__ import annotations

import math

import numpy as np
from repro.stats import scipy_special as sc

__all__ = [
    "log_poisson_pmf",
    "poisson_interval",
    "sample_poisson",
]


def log_poisson_pmf(k: int | np.ndarray, mean: float) -> float | np.ndarray:
    """``log P(K = k)`` for ``K ~ Poisson(mean)``.

    Handles ``mean == 0`` (point mass at zero) explicitly.
    """
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise ValueError("Poisson support is non-negative integers")
    if mean < 0.0:
        raise ValueError(f"Poisson mean must be non-negative, got {mean}")
    if mean == 0.0:
        out = np.where(k_arr == 0, 0.0, -np.inf)
    else:
        out = k_arr * math.log(mean) - mean - sc.gammaln(k_arr + 1.0)
    if np.ndim(k) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def poisson_interval(mean: float, confidence: float) -> tuple[int, int]:
    """Central interval ``[lo, hi]`` covering at least ``confidence`` mass
    of a Poisson distribution; used to seed truncation bounds for the
    latent fault count."""
    if mean < 0.0:
        raise ValueError("mean must be non-negative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy import stats as st

    tail = 0.5 * (1.0 - confidence)
    lo = int(st.poisson.ppf(tail, mean)) if mean > 0 else 0
    hi = int(st.poisson.ppf(1.0 - tail, mean)) if mean > 0 else 0
    return max(lo, 0), max(hi, lo)


def sample_poisson(mean: float, rng: np.random.Generator) -> int:
    """One Poisson variate; validates the mean."""
    if mean < 0.0 or not math.isfinite(mean):
        raise ValueError(f"Poisson mean must be finite and non-negative, got {mean}")
    return int(rng.poisson(mean))

