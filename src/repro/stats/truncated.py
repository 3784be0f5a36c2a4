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
the uniform→variate maps (``*_from_uniform``) are their uniform-stream
twins for the lane-parallel Gibbs engine.
"""

from __future__ import annotations

import numpy as np

from repro.stats import scipy_special as sc
from repro.stats.special import (
    gamma_cdf_increment,
    gamma_sf_ratio,
    log_gamma_sf,
)

__all__ = [
    "censored_gamma_mean",
    "truncated_gamma_mean",
    "sample_truncated_gamma",
    "sample_censored_gamma",
    "truncated_gamma_from_uniform",
    "censored_gamma_from_uniform",
]

#: Tail mass below which :func:`sample_censored_gamma` (and its
#: uniform-stream twin) switch to the exponential tail approximation.
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

    Stable even when the interval carries almost no probability mass: in
    that regime the conditional distribution collapses towards the
    endpoint nearer the bulk of the distribution, and we return that
    endpoint instead of dividing two underflowed quantities.
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


def sample_truncated_gamma(
    lo: float,
    hi: float,
    shape: float,
    rate: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw variates of ``T ~ Gamma(shape, rate)`` conditioned on
    ``lo < T <= hi`` by inverse-CDF sampling.

    Used by the grouped-data Gibbs sampler (data augmentation of the
    failure times inside each counting interval).
    """
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    p_lo = float(sc.gammainc(shape, rate * lo))
    p_hi = float(sc.gammainc(shape, rate * hi))
    if p_hi <= p_lo:
        # Degenerate interval in the far tail; fall back to uniform jitter
        # so the sampler never stalls.
        return rng.uniform(lo, hi, size=size)
    u = rng.uniform(p_lo, p_hi, size=size)
    return sc.gammaincinv(shape, u) / rate


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
    _ = log_gamma_sf(cut, shape, rate)  # keep the log computation honest
    return cut + rng.exponential(scale=max(del_mean, 1.0 / rate), size=size)


def truncated_gamma_from_uniform(
    lo: np.ndarray,
    hi: np.ndarray,
    shape: float,
    rate: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF map of uniforms to ``T ~ Gamma(shape, rate)`` draws
    conditioned on ``lo < T <= hi``, elementwise.

    The uniform-stream twin of :func:`sample_truncated_gamma`, used by
    the lane-parallel grouped Gibbs engine: all latent failure times of
    all lanes map through one call. Intervals whose CDF increment
    underflows fall back to uniform jitter on ``(lo, hi)``, exactly as
    the direct sampler does. For the Goel–Okumoto lifetime
    (``shape == 1``) the inversion is the closed-form exponential
    quantile — no special-function call at all, which is what makes the
    grouped sweep's 38-draw latent block almost free.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rate = np.asarray(rate, dtype=float)
    u = np.asarray(u, dtype=float)
    lo, hi, rate, u = np.broadcast_arrays(lo, hi, rate, u)
    if shape == 1.0:
        p_lo = -np.expm1(-rate * lo)
        p_hi = -np.expm1(-rate * hi)
    else:
        p_lo = sc.gammainc(shape, rate * lo)
        p_hi = sc.gammainc(shape, rate * hi)
    degenerate = p_hi <= p_lo
    low = np.where(degenerate, lo, p_lo)
    high = np.where(degenerate, hi, p_hi)
    p = low + u * (high - low)
    if not degenerate.any():
        if shape == 1.0:
            return -np.log1p(-p) / rate
        return sc.gammaincinv(shape, p) / rate
    # Mixed case: p already *is* the jittered draw on degenerate
    # entries; invert the CDF value only on the rest.
    out = p.copy()
    invert = ~degenerate
    if shape == 1.0:
        out[invert] = -np.log1p(-p[invert]) / rate[invert]
    else:
        out[invert] = sc.gammaincinv(shape, p[invert]) / rate[invert]
    return out


def censored_gamma_from_uniform(
    cut: np.ndarray,
    shape: float,
    rate: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF map of uniforms to ``T ~ Gamma(shape, rate)`` draws
    conditioned on ``T > cut``, elementwise.

    The uniform-stream twin of :func:`sample_censored_gamma` for the
    lane engine's tail augmentation (``α0 != 1``): survival-scale
    inversion ``SF⁻¹(u · SF(cut))``, with the same exponential tail
    fallback once the censored mass underflows. ``shape == 1`` reduces
    to the memoryless ``cut - log(u)/rate``.
    """
    cut = np.asarray(cut, dtype=float)
    rate = np.asarray(rate, dtype=float)
    u = np.asarray(u, dtype=float)
    cut, rate, u = np.broadcast_arrays(cut, rate, u)
    if shape == 1.0:
        # Memoryless: SF(cut) = exp(-rate cut) exactly, never underflows
        # the inversion (log-scale arithmetic throughout).
        return np.where(cut <= 0.0, 0.0, cut) - np.log(u) / rate
    q_cut = sc.gammaincc(shape, rate * np.clip(cut, 0.0, None))
    deep = q_cut <= _CENSORED_TAIL_FLOOR
    out = sc.gammainccinv(shape, np.where(deep, 0.5, u * q_cut)) / rate
    if np.any(deep):
        del_mean = np.atleast_1d(censored_gamma_mean(cut, shape, rate)) - cut
        scale = np.maximum(del_mean, 1.0 / rate)
        out = np.where(deep, cut + scale * -np.log1p(-u), out)
    return out
