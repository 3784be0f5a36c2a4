"""Moments and samplers for truncated and censored gamma variables.

The VB2 update equations (paper Eqs. 24 and 26, with the survival-
function correction documented in DESIGN.md) need two conditional
expectations of a ``Gamma(shape, rate)`` failure time ``T``:

* the *censored* mean ``E[T | T > cut]`` for the faults not yet
  detected at the end of observation, and
* the *interval-truncated* mean ``E[T | lo < T <= hi]`` for failures
  known only to have occurred inside a grouping interval.

Both follow from the identity
``∫_a^b t g(t; s, r) dt = (s/r) [G(b; s+1, r) - G(a; s+1, r)]``.

Like the helpers in :mod:`repro.stats.special`, the moment functions
accept scalars or broadcastable arrays for ``cut``/``lo``/``hi``/``rate``
and evaluate element-wise through the same ufuncs either way, so the
batched fit engine sees bit-identical values to the scalar path.  The
``sample_*`` entry points consume a :class:`numpy.random.Generator`;
:func:`sample_truncated_gamma` is the uniform→variate map
:func:`truncated_gamma_from_uniform` applied to ``rng.random``.
"""

from __future__ import annotations

import numpy as np

from repro.stats import scipy_special as sc
from repro.stats.special import gamma_cdf_increment, gamma_sf_ratio

__all__ = [
    "censored_gamma_mean",
    "truncated_gamma_mean",
    "sample_truncated_gamma",
    "sample_censored_gamma",
    "truncated_gamma_from_uniform",
]

#: Tail mass below which :func:`sample_censored_gamma` switches to the
#: exponential tail approximation.
_CENSORED_TAIL_FLOOR = 1e-280


def censored_gamma_mean(
    cut: float | np.ndarray, shape: float, rate: float | np.ndarray
) -> float | np.ndarray:
    """``E[T | T > cut]`` for ``T ~ Gamma(shape, rate)``.

    Equal to ``(shape/rate) * SF(cut; shape+1, rate) / SF(cut; shape, rate)``;
    for ``shape == 1`` (exponential) this reduces to ``cut + 1/rate`` by
    memorylessness, which we use as an exact fast path.
    """
    cut_a = np.asarray(cut, dtype=float)
    rate_a = np.asarray(rate, dtype=float)
    scalar = cut_a.ndim == 0 and rate_a.ndim == 0
    cut_a, rate_a = np.broadcast_arrays(np.atleast_1d(cut_a), np.atleast_1d(rate_a))
    out = np.empty(cut_a.shape)
    base = cut_a <= 0.0
    out[base] = shape / rate_a[base]
    active = ~base
    if np.any(active):
        if shape == 1.0:
            out[active] = cut_a[active] + 1.0 / rate_a[active]
        else:
            out[active] = (shape / rate_a[active]) * np.atleast_1d(
                gamma_sf_ratio(cut_a[active], shape, rate_a[active])
            )
    return float(out[0]) if scalar else out


def truncated_gamma_mean(
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    shape: float,
    rate: float | np.ndarray,
) -> float | np.ndarray:
    """``E[T | lo < T <= hi]`` for ``T ~ Gamma(shape, rate)``.

    At ``shape == 1`` memorylessness gives ``lo + E[U | U <= hi - lo]``
    for ``U ~ Exp(rate)``, exact however far out the interval lies.
    Other shapes take the ratio of CDF increments; where the interval
    carries numerically no mass, the conditional law piles up at the
    endpoint nearer the bulk, which is returned. (The log-space ratio of
    ``log_gamma_cdf_increment`` is no cure: at ``(900, 901, 2, 1)`` it
    reads 900.4159 against the exact 900.4181.)
    """
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    rate_a = np.asarray(rate, dtype=float)
    scalar = lo_a.ndim == 0 and hi_a.ndim == 0 and rate_a.ndim == 0
    lo_a, hi_a, rate_a = np.broadcast_arrays(
        np.atleast_1d(lo_a), np.atleast_1d(hi_a), np.atleast_1d(rate_a)
    )
    if np.any(lo_a < 0.0) or np.any(lo_a >= hi_a):
        bad = np.argmax((lo_a < 0.0) | (lo_a >= hi_a))
        raise ValueError(
            f"need 0 <= lo < hi, got lo={lo_a.ravel()[bad]}, hi={hi_a.ravel()[bad]}"
        )
    if shape == 1.0:
        out = lo_a + _exponential_excess(hi_a - lo_a, rate_a)
        return float(out[0]) if scalar else out
    denom = np.atleast_1d(gamma_cdf_increment(lo_a, hi_a, shape, rate_a))
    out = np.empty(denom.shape)
    empty = denom <= 0.0
    if np.any(empty):
        # Probability mass numerically zero: the conditional law piles up
        # at the boundary closest to the mode.
        mode = np.maximum((shape - 1.0) / rate_a[empty], 0.0)
        out[empty] = np.where(
            hi_a[empty] <= mode,
            hi_a[empty],
            np.where(lo_a[empty] >= mode, lo_a[empty], 0.5 * (lo_a[empty] + hi_a[empty])),
        )
    ok = ~empty
    if np.any(ok):
        numer = np.atleast_1d(
            gamma_cdf_increment(lo_a[ok], hi_a[ok], shape + 1.0, rate_a[ok])
        )
        mean = (shape / rate_a[ok]) * numer / denom[ok]
        # Guard against round-off pushing the conditional mean outside the
        # interval (possible when denom is at the underflow edge).
        out[ok] = np.minimum(np.maximum(mean, lo_a[ok]), hi_a[ok])
    return float(out[0]) if scalar else out


def _exponential_excess(width: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """``E[U | U <= width] = width (1/x - 1/expm1(x))`` for
    ``U ~ Exp(rate)``, ``x = rate * width``; ``1/rate`` at ``width = ∞``.
    Below ``x = 0.1``, where the difference cancels, its series
    ``1/2 - x/12 + x³/720 - x⁵/30240 + x⁷/1209600`` is exact to rounding."""
    x = rate * width
    with np.errstate(over="ignore", invalid="ignore"):
        series = 0.5 - x * (1.0 / 12.0 - x * x * (
            1.0 / 720.0 - x * x * (1.0 / 30240.0 - x * x / 1209600.0)))
        excess = width * np.where(x < 0.1, series, 1.0 / x - 1.0 / np.expm1(x))
    return np.where(np.isinf(width), 1.0 / rate, excess)


def sample_truncated_gamma(
    lo: float,
    hi: float,
    shape: float,
    rate: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw variates of ``T ~ Gamma(shape, rate)`` conditioned on
    ``lo < T <= hi`` by inverse-CDF sampling: the map
    :func:`truncated_gamma_from_uniform` applied to ``rng.random(size)``,
    which consumes the generator exactly as ``rng.uniform`` would.
    """
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    return truncated_gamma_from_uniform(lo, hi, shape, rate, rng.random(size))


def sample_censored_gamma(
    cut: float,
    shape: float,
    rate: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw variates of ``T ~ Gamma(shape, rate)`` conditioned on ``T > cut``.

    Inverse-CDF sampling on the survival scale; when the tail mass
    underflows, falls back to an exponential approximation of the tail
    (asymptotically exact for the gamma right tail).
    """
    if cut <= 0.0:
        return rng.gamma(shape=shape, scale=1.0 / rate, size=size)
    q_cut = float(sc.gammaincc(shape, rate * cut))
    if q_cut > _CENSORED_TAIL_FLOOR:
        u = rng.uniform(0.0, q_cut, size=size)
        return sc.gammainccinv(shape, u) / rate
    # Deep tail: T - cut is approximately exponential with rate `rate`.
    del_mean = censored_gamma_mean(cut, shape, rate) - cut
    return cut + rng.exponential(scale=max(del_mean, 1.0 / rate), size=size)


def truncated_gamma_from_uniform(
    lo: np.ndarray | float,
    hi: np.ndarray | float,
    shape: float,
    rate: np.ndarray | float,
    u: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF map of uniforms to ``T ~ Gamma(shape, rate)`` draws
    conditioned on ``lo < T <= hi``, elementwise.

    The one latent-time map: the grouped Gibbs sweep and
    :func:`sample_truncated_gamma` both draw through it. Arguments
    broadcast as NumPy operands (float arrays or scalars); no copies
    are made.

    For the Goel–Okumoto lifetime (``shape == 1``) the inversion is the
    memoryless closed form
    ``lo - log1p(-u (1 - exp(-rate (hi - lo)))) / rate`` — the same
    draw as inverting ``CDF(lo) + u (CDF(hi) - CDF(lo))``, without the
    cancellation of two CDF values near 1, so far-tail intervals give
    exact truncated exponentials rather than quantized or jittered
    draws. For other shapes the CDF value ``p = CDF(lo) + u (CDF(hi) -
    CDF(lo))`` is inverted with ``gammaincinv``; intervals whose CDF
    increment underflows fall back to uniform jitter on ``(lo, hi)``.
    """
    if shape == 1.0:
        # expm1(-rate (hi - lo)) is minus the mass 1 - exp(-rate (hi - lo))
        # of (lo, hi] beyond lo, so u times it is exactly -(u * mass).
        return lo - np.log1p(u * np.expm1(-rate * (hi - lo))) / rate
    p_lo = sc.gammainc(shape, rate * lo)
    p_hi = sc.gammainc(shape, rate * hi)
    degenerate = p_hi <= p_lo
    if not degenerate.any():
        return sc.gammaincinv(shape, p_lo + u * (p_hi - p_lo)) / rate
    # p *is* the jittered draw on degenerate entries; invert the CDF
    # value only on the rest.
    low = np.where(degenerate, lo, p_lo)
    high = np.where(degenerate, hi, p_hi)
    p = low + u * (high - low)
    inverted = sc.gammaincinv(shape, np.where(degenerate, 0.5, p)) / rate
    return np.where(degenerate, p, inverted)

