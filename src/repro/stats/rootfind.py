"""Bracketing root finder.

The paper inverts the posterior CDF of software reliability with the
bisection method (Section 6, around Eq. 32). We provide a robust
monotone bisection — the generic solver for posteriors without gamma
structure (NINT grids, Laplace, samples, Weibull); gamma mixtures use
the quantile engine of :mod:`repro.stats.gamma_cells`.

Failure semantics: exhausting the iteration budget raises
:class:`~repro.exceptions.ConvergenceError` carrying the final bracket
width, and emits a ``rootfind.divergence`` telemetry event when a
collector is active. A silent midpoint fallback would mask exactly the
non-convergence that matters for the frequentist-validity claims the
validation layer calibrates against.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import obs
from repro.exceptions import ConvergenceError

__all__ = ["bisect_increasing"]

#: Tolerance under which a sign violation at a bracket edge is treated
#: as the root sitting (numerically) on that edge.
_EDGE_TOL = 1e-9


def _divergence_error(message: str, *, iterations: int,
                      width: float) -> ConvergenceError:
    """Build the budget-exhaustion error, emitting the telemetry event."""
    if obs.enabled():
        obs.counter_add("rootfind.failures")
        obs.event(
            "rootfind.divergence",
            iterations=iterations,
            bracket_width=width,
            lanes=1,
        )
    return ConvergenceError(message, iterations=iterations, residual=width)


def bisect_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    rtol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Find the root of a non-decreasing function on ``[lo, hi]``.

    Requires ``f(lo) <= 0 <= f(hi)``; endpoints are returned directly if
    the sign condition pins the root there (within floating tolerance).

    Raises
    ------
    ConvergenceError
        If the bracket is invalid or the iteration budget is exhausted
        before the interval shrinks below tolerance. The error carries
        ``iterations`` and ``residual`` (the final bracket width).
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket: lo={lo}, hi={hi}")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo > 0.0:
        if f_lo < _EDGE_TOL:  # root sits at or below the bracket edge
            return lo
        raise ConvergenceError(
            f"bisect_increasing: f(lo)={f_lo:.3g} > 0 at lo={lo:.6g}"
        )
    if f_hi < 0.0:
        if f_hi > -_EDGE_TOL:
            return hi
        raise ConvergenceError(
            f"bisect_increasing: f(hi)={f_hi:.3g} < 0 at hi={hi:.6g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + rtol * abs(mid):
            return mid
        f_mid = f(mid)
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise _divergence_error(
        f"bisect_increasing did not converge within {max_iter} iterations "
        f"(final bracket width {hi - lo:.3e} on [{lo:.6g}, {hi:.6g}])",
        iterations=max_iter,
        width=hi - lo,
    )
