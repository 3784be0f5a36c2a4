"""Numerically stable special-function helpers.

Every quantity the VB2 update equations need — gamma tail probabilities,
tail-probability *ratios*, CDF increments — is provided here in a form
that stays finite in log space, because the variational posterior over
the latent fault count multiplies many such factors together (paper
Eq. 28) and naive evaluation underflows long before the truncation
bound ``nmax`` is reached.

Every helper accepts either scalars or broadcastable arrays for the
``x``/``lo``/``hi``/``rate`` arguments and evaluates element-wise
through the same numpy ufuncs in both cases. That invariance is what
the batched fit engine's bit-identity contract rests on: a lane of a
batched solve sees exactly the floating-point values the scalar
fallback computes for the same ``(N, ξ)``, because scalar calls are
just 0-d instances of the vectorized code path (numpy ufuncs give
identical results regardless of array length, which
``tests/stats/test_special.py`` pins).

Conventions
-----------
All gamma distributions in this package use the *rate* parametrisation:
``Gamma(shape=a, rate=b)`` has density ``b^a x^(a-1) e^(-b x) / Γ(a)``.
This matches the paper, where ``g(t; α0, β) = β^α0 t^(α0-1) e^(-βt)/Γ(α0)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.stats import scipy_special as sc

__all__ = [
    "as_float",
    "log1mexp",
    "logsumexp",
    "log_sum_exp",
    "log_sum_exp_stream",
    "log_gamma_cdf",
    "log_gamma_sf",
    "gamma_sf_ratio",
    "gamma_cdf_increment",
    "log_gamma_cdf_increment",
    "log_factorial",
    "log_gamma_fn",
    "digamma",
]

_LOG_HALF = math.log(0.5)


def as_float(values) -> np.ndarray:
    """Coerce to a floating array *following the input's dtype*.

    Floating inputs keep their precision (float32 stays float32);
    integer/bool inputs promote to float64.  The hot kernels use this
    instead of a hard-coded ``asarray(..., dtype=float)`` cast, which
    would silently force float64 on every input.
    """
    arr = np.asarray(values)
    if arr.dtype.kind != "f":
        arr = np.asarray(arr, dtype=np.float64)
    return arr


def log1mexp(x: float | np.ndarray) -> float | np.ndarray:
    """Compute ``log(1 - exp(x))`` for ``x < 0`` without loss of precision.

    Uses the standard two-branch algorithm (Maechler 2012): ``log(-expm1(x))``
    for moderate ``x`` and ``log1p(-exp(x))`` when ``exp(x)`` is tiny.

    Parameters
    ----------
    x:
        Strictly negative value(s). ``x == 0`` maps to ``-inf``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > 0):
        raise ValueError("log1mexp requires x <= 0")
    with np.errstate(divide="ignore"):
        out = np.where(
            x > _LOG_HALF,
            np.log(-np.expm1(x)),
            np.log1p(-np.exp(x)),
        )
    if out.ndim == 0:
        return float(out)
    return out


def logsumexp(values: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Stable ``log(sum(w * exp(v)))`` reduction over a 1-D array.

    Thin wrapper around ``scipy.special.logsumexp`` (via the
    :mod:`repro.stats.scipy_special` shim) that always returns a plain
    float and tolerates ``-inf`` entries.
    """
    values = np.asarray(values, dtype=float)
    if weights is None:
        return float(sc.logsumexp(values))
    return float(sc.logsumexp(values, b=np.asarray(weights, dtype=float)))


def log_sum_exp_stream(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment ``log(sum(exp(v)))`` over contiguous slices of a flat
    array, one result per entry of ``starts`` (reduceat convention: the
    segment ``k`` runs from ``starts[k]`` to ``starts[k+1]``, the last to
    the end of ``values``).

    Every segment reduces through ``np.{maximum,add}.reduceat``, whose
    accumulation depends only on the segment's own values — a segment of
    a large concatenation produces the same float as reducing that slice
    alone. :func:`log_sum_exp` is defined as the one-segment case of this
    function, so a batched engine normalising many weight vectors in one
    call is *bit-identical* to a scalar loop normalising each with
    :func:`log_sum_exp` (pinned by ``tests/stats/test_special.py``).

    Segments of size zero (``starts[k] == starts[k+1]``, or a trailing
    start at ``len(values)``) are the empty sum and reduce to ``-inf``
    — raw ``reduceat`` would instead misread them as one-element
    segments (or raise at the boundary), which is why they get an
    explicit branch.
    """
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size == 0:
        return np.empty(0)
    sizes = np.diff(np.append(starts, values.size))
    if starts[0] < 0 or np.any(sizes < 0):
        raise ValueError(
            "starts must be non-decreasing and within [0, len(values)]"
        )
    empty = sizes == 0
    if np.any(empty):
        out = np.full(starts.shape, -np.inf)
        nonempty = ~empty
        if np.any(nonempty):
            # Zero-width segments drop out without moving any boundary,
            # so reducing the surviving starts reduces the same slices —
            # bit-identical to reducing them in the full call.
            out[nonempty] = log_sum_exp_stream(values, starts[nonempty])
        return out
    maxima = np.maximum.reduceat(values, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = np.exp(values - np.repeat(maxima, sizes))
        out = maxima + np.log(np.add.reduceat(shifted, starts))
    # A segment whose max is not finite (all -inf, or a +inf entry)
    # reduces to nan above; the limit value is the max itself.
    return np.where(np.isfinite(maxima), out, maxima)


def log_sum_exp(values: np.ndarray) -> float:
    """Stable ``log(sum(exp(v)))`` over a 1-D array as a plain float.

    Unlike :func:`logsumexp` this avoids scipy's array-API dispatch
    (which costs ~100x the reduction itself on short arrays) and shares
    its accumulation order with :func:`log_sum_exp_stream`, making
    scalar and batched normalisation bit-identical by construction.
    """
    values = np.asarray(values, dtype=float)
    return float(log_sum_exp_stream(values, np.zeros(1, dtype=np.intp))[0])


def _broadcast(*args):
    """Broadcast arguments to a common shape; flag the all-scalar case."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    scalar = all(a.ndim == 0 for a in arrays)
    if len(arrays) == 1:
        return scalar, (np.atleast_1d(arrays[0]),)
    return scalar, tuple(np.broadcast_arrays(*(np.atleast_1d(a) for a in arrays)))


def log_gamma_cdf(
    x: float | np.ndarray, shape: float, rate: float | np.ndarray
) -> float | np.ndarray:
    """``log P(T <= x)`` for ``T ~ Gamma(shape, rate)``.

    Evaluated through the regularised lower incomplete gamma function
    ``P(shape, rate*x)``; falls back to an asymptotic series via the
    survival complement when the CDF underflows.
    """
    scalar, (x_a, rate_a) = _broadcast(x, rate)
    out = np.full(x_a.shape, -np.inf)
    pos = x_a > 0.0
    if np.any(pos):
        z = rate_a[pos] * x_a[pos]
        p = sc.gammainc(shape, z)
        vals = np.empty_like(p)
        nz = p > 0.0
        vals[nz] = np.log(p[nz])
        if not np.all(nz):
            # Deep lower tail: P(a, z) ~ z^a e^{-z} / Gamma(a+1) for z << a.
            zz = z[~nz]
            vals[~nz] = shape * np.log(zz) - zz - float(sc.gammaln(shape + 1.0))
        out[pos] = vals
    return float(out[0]) if scalar else out


def log_gamma_sf(
    x: float | np.ndarray, shape: float, rate: float | np.ndarray
) -> float | np.ndarray:
    """``log P(T > x)`` for ``T ~ Gamma(shape, rate)``.

    Uses the regularised upper incomplete gamma ``Q(shape, rate*x)`` and
    switches to the asymptotic expansion
    ``Q(a, z) ~ z^(a-1) e^{-z} / Γ(a)`` when ``Q`` underflows (deep right
    tail, ``z >> a``).
    """
    scalar, (x_a, rate_a) = _broadcast(x, rate)
    out = np.zeros(x_a.shape)
    pos = x_a > 0.0
    if np.any(pos):
        z = rate_a[pos] * x_a[pos]
        q = sc.gammaincc(shape, z)
        vals = np.empty_like(q)
        nz = q > 0.0
        vals[nz] = np.log(q[nz])
        if not np.all(nz):
            # First-order asymptotic with one correction term.
            zz = z[~nz]
            correction = np.where(
                zz > abs(shape - 1.0), np.log1p((shape - 1.0) / zz), 0.0
            )
            vals[~nz] = (
                (shape - 1.0) * np.log(zz)
                - zz
                - float(sc.gammaln(shape))
                + correction
            )
        out[pos] = vals
    return float(out[0]) if scalar else out


def gamma_sf_ratio(
    x: float | np.ndarray, shape: float, rate: float | np.ndarray
) -> float | np.ndarray:
    """Ratio ``SF(x; shape+1, rate) / SF(x; shape, rate)`` of gamma survival
    functions, stable in the deep right tail.

    This is the factor appearing in the conditional mean of a gamma
    variable censored at ``x``:
    ``E[T | T > x] = (shape / rate) * gamma_sf_ratio(x, shape, rate)``.
    The ratio tends to ``rate * x / shape`` as ``x → ∞``.
    """
    scalar, (x_a, rate_a) = _broadcast(x, rate)
    out = np.ones(x_a.shape)
    pos = x_a > 0.0
    if np.any(pos):
        xs = x_a[pos]
        rs = rate_a[pos]
        log_num = np.atleast_1d(log_gamma_sf(xs, shape + 1.0, rs))
        log_den = np.atleast_1d(log_gamma_sf(xs, shape, rs))
        finite = np.isfinite(log_num) & np.isfinite(log_den)
        vals = np.empty_like(log_num)
        vals[finite] = np.exp(log_num[finite] - log_den[finite])
        if not np.all(finite):
            # Both tails underflowed even in log space (cannot happen with
            # the asymptotic branches above, but keep a safe limit form).
            vals[~finite] = rs[~finite] * xs[~finite] / shape
        out[pos] = vals
    return float(out[0]) if scalar else out


def gamma_cdf_increment(
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    shape: float,
    rate: float | np.ndarray,
) -> float | np.ndarray:
    """``P(lo < T <= hi)`` for ``T ~ Gamma(shape, rate)``, ``0 <= lo < hi``.

    Chooses between a CDF difference and an SF difference so that the
    subtraction happens on the smaller (better conditioned) tail.
    """
    scalar, (lo_a, hi_a, rate_a) = _broadcast(lo, hi, rate)
    if np.any(lo_a < 0.0) or np.any(lo_a >= hi_a):
        bad = np.argmax((lo_a < 0.0) | (lo_a >= hi_a))
        raise ValueError(
            f"need 0 <= lo < hi, got lo={lo_a.ravel()[bad]}, "
            f"hi={hi_a.ravel()[bad]}"
        )
    out = np.empty(lo_a.shape)
    lower = hi_a <= shape / rate_a  # mean as a cheap centre proxy
    if np.any(lower):
        out[lower] = sc.gammainc(shape, rate_a[lower] * hi_a[lower]) - sc.gammainc(
            shape, rate_a[lower] * lo_a[lower]
        )
    upper = ~lower
    if np.any(upper):
        out[upper] = sc.gammaincc(shape, rate_a[upper] * lo_a[upper]) - sc.gammaincc(
            shape, rate_a[upper] * hi_a[upper]
        )
    return float(out[0]) if scalar else out


def log_gamma_cdf_increment(
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    shape: float,
    rate: float | np.ndarray,
) -> float | np.ndarray:
    """``log P(lo < T <= hi)`` for a gamma variable, stable when the
    interval sits far out in either tail."""
    scalar, (lo_a, hi_a, rate_a) = _broadcast(lo, hi, rate)
    inc = np.atleast_1d(gamma_cdf_increment(lo_a, hi_a, shape, rate_a))
    out = np.empty(inc.shape)
    pos = inc > 0.0
    out[pos] = np.log(inc[pos])
    if not np.all(pos):
        # Interval so deep in a tail that the difference underflows: use
        # log-space difference of survival functions.
        neg = ~pos
        log_sf_lo = np.atleast_1d(log_gamma_sf(lo_a[neg], shape, rate_a[neg]))
        log_sf_hi = np.atleast_1d(log_gamma_sf(hi_a[neg], shape, rate_a[neg]))
        vals = np.full(log_sf_lo.shape, -np.inf)
        ok = log_sf_lo > log_sf_hi  # else: numerically equal tails -> -inf
        if np.any(ok):
            diff = np.minimum(log_sf_hi[ok] - log_sf_lo[ok], -1e-300)
            vals[ok] = log_sf_lo[ok] + np.atleast_1d(log1mexp(diff))
        out[neg] = vals
    return float(out[0]) if scalar else out


def log_factorial(n: int | np.ndarray) -> float | np.ndarray:
    """``log(n!)`` via ``gammaln(n+1)``."""
    result = sc.gammaln(as_float(n) + 1.0)
    if np.ndim(n) == 0:
        return float(result)
    return result


def log_gamma_fn(x: float | np.ndarray) -> float | np.ndarray:
    """``log Γ(x)``; plain re-export with float coercion for scalars."""
    result = sc.gammaln(x)
    if np.ndim(x) == 0:
        return float(result)
    return result


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """Digamma ``ψ(x)``; plain re-export with float coercion for scalars."""
    result = sc.digamma(x)
    if np.ndim(x) == 0:
        return float(result)
    return result
