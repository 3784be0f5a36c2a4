"""Bracketing root finders and batched fixed-point iteration.

The paper inverts the posterior CDF of software reliability with the
bisection method (Section 6, around Eq. 32). We provide a robust
monotone bisection — the generic solver for posteriors without gamma
structure (NINT grids, Laplace, samples, Weibull); gamma mixtures use
the quantile engine of :mod:`repro.stats.gamma_cells` — and, on the
fit path, a batched fixed-point solver that runs the VB2 per-``N``
update maps as lanes in lock-step, evaluating only the lanes still
iterating (:func:`solve_fixed_point_batch`).

Failure semantics: exhausting the iteration budget raises
:class:`~repro.exceptions.ConvergenceError` carrying the final bracket
width, and emits a ``rootfind.divergence`` telemetry event when a
collector is active (mirroring :mod:`repro.core.fixed_point`). A
silent midpoint fallback would mask exactly the non-convergence that
matters for the frequentist-validity claims the validation layer
calibrates against.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import ConvergenceError
from repro.stats.special import as_float

__all__ = [
    "bisect_increasing",
    "BatchFixedPointResult",
    "solve_fixed_point_batch",
]

#: How many trailing residuals each lane keeps, matching
#: ``repro.core.fixed_point.RESIDUAL_HISTORY_LEN`` (not imported here —
#: ``repro.core`` pulls in this module at package import time, so a
#: module-level import would be circular; a test pins the two equal).
FIXED_POINT_HISTORY_LEN = 8

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


@dataclass(frozen=True)
class BatchFixedPointResult:
    """Outcome of a batched fixed-point solve, one entry per lane.

    Attributes
    ----------
    values:
        Fixed points ``x*`` per lane (last positive iterate for lanes
        that failed).
    iterations:
        Per-lane count of update-map evaluations consumed before the
        lane froze.
    converged:
        Per-lane convergence flags; ``False`` marks a lane that left
        the positive domain or exhausted the budget.
    residuals:
        Per-lane final relative step ``|x' - x| / x'``.
    aitken_steps:
        Per-lane count of accepted Aitken Δ² extrapolations.
    history_ring, history_counts:
        Per-lane residual ring buffers (``(lanes, L)``) and how many
        residuals each lane wrote; :attr:`residual_histories` unrolls
        them on first read.
    lane_label:
        Optional ``lane -> str`` naming a lane in failure messages.
    """

    values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    aitken_steps: np.ndarray
    history_ring: np.ndarray = field(repr=False)
    history_counts: np.ndarray = field(repr=False)
    lane_label: Callable[[int], str] | None = field(default=None, repr=False)

    @functools.cached_property
    def residual_histories(self) -> tuple[tuple[float, ...], ...]:
        """Per-lane tuples of the trailing
        :data:`FIXED_POINT_HISTORY_LEN` residuals, oldest first. Built
        on first read: a successful solve never pays for the tuples."""
        return _ring_histories(self.history_ring, self.history_counts)

    def lane_error(self, lane: int, max_iter: int) -> ConvergenceError:
        """Build the scalar-contract :class:`ConvergenceError` for a
        failed lane, carrying that lane's own statistics."""
        label = ""
        if self.lane_label is not None:
            label = f" ({self.lane_label(lane)})"
        return ConvergenceError(
            f"fixed point did not converge in lane {lane}{label} within "
            f"{max_iter} evaluations "
            f"(last relative step {self.residuals[lane]:.3e})",
            iterations=int(self.iterations[lane]),
            residual=float(self.residuals[lane]),
            residual_history=self.residual_histories[lane],
        )


def _ring_histories(
    ring: np.ndarray, counts: np.ndarray
) -> tuple[tuple[float, ...], ...]:
    """Unroll per-lane residual ring buffers into oldest-first tuples."""
    length = ring.shape[1]
    out = []
    for lane in range(ring.shape[0]):
        c = int(counts[lane])
        if c <= length:
            out.append(tuple(float(v) for v in ring[lane, :c]))
        else:
            pos = c % length
            rolled = np.concatenate([ring[lane, pos:], ring[lane, :pos]])
            out.append(tuple(float(v) for v in rolled))
    return tuple(out)


def solve_fixed_point_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    rtol: float | np.ndarray = 1e-12,
    max_iter: int = 500,
    use_aitken: bool = True,
    raise_on_failure: bool = True,
    lane_label: Callable[[int], str] | None = None,
) -> BatchFixedPointResult:
    """Solve ``x = f(x)`` lane-wise for many positive fixed points at once.

    ``f(x, lanes)`` is the lane-indexed update map: ``lanes`` is an
    ascending integer array of the lanes still iterating and ``x``
    their current iterates (same length); it returns the updated values
    of exactly those lanes, so one call per iteration step serves every
    live lane. Lane ``i`` follows the exact update, acceleration, and
    stopping rules of :func:`repro.core.fixed_point.solve_fixed_point`
    started at ``x0[i]`` — a converged lane *freezes* (its value never
    changes again and it leaves ``lanes``) while the remaining lanes
    keep iterating. The map therefore evaluates each lane exactly
    ``iterations[i]`` times, and since every lane's arithmetic depends
    on its own inputs only, each lane is bit-identical to the scalar
    routine run on its own.

    Aitken Δ² acceleration interacts with freezing per lane: each
    active lane takes the two-evaluation Aitken round in lock-step, and
    acceptance of the extrapolated point (``denominator != 0`` and the
    extrapolation positive) is decided lane-wise, exactly as the scalar
    solver decides it. Because every lane that is still active has
    consumed the same number of evaluations, the scalar solver's
    budget check before the second Aitken evaluation is uniform across
    active lanes.

    A lane whose iterate leaves the positive half line is frozen as
    *failed* with its own ``iterations``/``residual``/history — it does
    not poison the other lanes, which continue to convergence. With
    ``raise_on_failure`` (the default, matching the scalar contract) a
    :class:`~repro.exceptions.ConvergenceError` carrying the first
    failed lane's statistics is raised once all lanes have frozen;
    with ``raise_on_failure=False`` failures are reported through the
    ``converged`` flags instead.

    Telemetry: the whole solve runs inside a debug-level
    ``fixed_point.batch`` span carrying the lane count, total
    evaluations, maximum final residual, and accepted Aitken steps;
    failed lanes emit the same ``fixed_point.divergence`` event as the
    scalar solver.

    ``lane_label`` (optional, ``lane -> str``) names a lane in failure
    messages — fleet callers label lanes with their dataset so a
    diverging project is attributable in a thousand-lane solve. It is
    only called for a failed lane and does not affect the iteration.

    ``rtol`` may be a scalar (every lane shares it) or a 1-D array with
    one positive tolerance per lane. Per-lane tolerances are how warm
    refits stratify work by posterior weight: lanes that carry
    negligible mixture mass stop early at a loose tolerance while the
    lanes that matter iterate to the tight one. Each lane remains
    bit-identical to the scalar solver run at *that lane's* tolerance.
    """
    x = np.array(as_float(x0))
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-D array, got shape {x.shape}")
    if np.any(~(x > 0.0)):
        bad = int(np.argmax(~(x > 0.0)))
        raise ValueError(f"x0 must be positive, got {x[bad]} in lane {bad}")
    if isinstance(rtol, np.ndarray):
        rtol = np.asarray(rtol, dtype=float)
        if rtol.shape != x.shape:
            raise ValueError(
                f"per-lane rtol shape {rtol.shape} does not match the "
                f"lane count {x.size}"
            )
        if np.any(~(rtol > 0.0) | ~np.isfinite(rtol)):
            bad = int(np.argmax(~(rtol > 0.0) | ~np.isfinite(rtol)))
            raise ValueError(
                f"per-lane rtol must be positive and finite, "
                f"got {rtol[bad]} in lane {bad}"
            )
    n = x.size
    with obs.span("fixed_point.batch", level="debug", lanes=n) as sp:
        result = _solve_batch_inner(f, x, rtol, max_iter, use_aitken)
        if lane_label is not None:
            result = dataclasses.replace(result, lane_label=lane_label)
        # The span is the shared no-op handle when the collector sits
        # below the debug level, so attrs only exist on the live span.
        if getattr(sp, "attrs", None) is not None:
            sp.attrs["evaluations"] = int(result.iterations.sum())
            sp.attrs["max_residual"] = (
                float(np.max(result.residuals)) if n else 0.0
            )
            sp.attrs["aitken_accepted"] = int(result.aitken_steps.sum())
            sp.attrs["failed_lanes"] = int(np.sum(~result.converged))
    if raise_on_failure and not bool(result.converged.all()):
        raise result.lane_error(int(np.argmax(~result.converged)), max_iter)
    return result


def _solve_batch_inner(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    rtol: float | np.ndarray,  # scalar or per-lane
    max_iter: int,
    use_aitken: bool,
) -> BatchFixedPointResult:
    n = x.size
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    residual = np.full(n, np.inf)
    aitken_steps = np.zeros(n, dtype=np.int64)
    ring = np.full((n, FIXED_POINT_HISTORY_LEN), np.nan)
    ring_count = np.zeros(n, dtype=np.int64)
    per_lane_rtol = isinstance(rtol, np.ndarray)
    # The live lanes (ascending) and their current iterates. A lane
    # leaves for good when it converges or fails, writing its final
    # value into `x`; frozen lanes never reach `f` again.
    live = np.arange(n)
    x_live = x.copy()
    tol = rtol
    evaluations = 0  # shared by every still-active lane

    def record(values: np.ndarray) -> None:
        residual[live] = values
        counts = ring_count[live]
        ring[live, counts % FIXED_POINT_HISTORY_LEN] = values
        ring_count[live] = counts + 1

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One map evaluation over the live lanes. A domain violation
        # freezes the lane at its pre-step iterate with its *previous*
        # residual, exactly as the scalar solver reports it; returns
        # (values, mask of the lanes that stay).
        nonlocal evaluations
        fx = as_float(f(points, live))
        evaluations += 1
        iterations[live] += 1
        ok = fx > 0.0
        if not ok.all():
            failed = live[~ok]
            x[failed] = x_live[~ok]
            _emit_lane_divergence(
                failed, iterations, residual, ring, ring_count
            )
        return fx, ok

    def keep(mask: np.ndarray) -> None:
        nonlocal live, x_live, tol
        live = live[mask]
        x_live = x_live[mask]
        if per_lane_rtol:
            tol = tol[mask]

    while evaluations < max_iter and live.size:
        fx, ok = evaluate(x_live)
        if not ok.all():
            fx = fx[ok]
            keep(ok)
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.abs(fx - x_live) / fx
        record(step)
        done = step <= tol
        if done.any():
            x[live[done]] = fx[done]
            converged[live[done]] = True
            fx = fx[~done]
            keep(~done)
            if not live.size:
                break
        if use_aitken and evaluations + 1 <= max_iter:
            x1 = fx
            fx2, ok2 = evaluate(x1)
            if not ok2.all():
                x1, fx2 = x1[ok2], fx2[ok2]
                keep(ok2)
            with np.errstate(invalid="ignore", divide="ignore"):
                step2 = np.abs(fx2 - x1) / fx2
            record(step2)
            done2 = step2 <= tol
            if done2.any():
                x[live[done2]] = fx2[done2]
                converged[live[done2]] = True
                x1, fx2 = x1[~done2], fx2[~done2]
                keep(~done2)
                if not live.size:
                    break
            denom = fx2 - 2.0 * x1 + x_live
            with np.errstate(invalid="ignore", divide="ignore"):
                accelerated = x_live - (x1 - x_live) ** 2 / denom
            accept = (denom != 0.0) & (accelerated > 0.0)
            aitken_steps[live[accept]] += 1
            x_live = np.where(accept, accelerated, fx2)
        else:
            x_live = fx
    if obs.enabled() and np.any(converged):
        obs.counter_add("fixed_point.solves", int(converged.sum()))
        if aitken_steps[converged].sum():
            obs.counter_add(
                "fixed_point.aitken_accepted",
                int(aitken_steps[converged].sum()),
            )
    if live.size:
        # Budget exhausted: freeze the remaining lanes as failures.
        x[live] = x_live
        _emit_lane_divergence(live, iterations, residual, ring, ring_count)
    return BatchFixedPointResult(
        values=x,
        iterations=iterations,
        converged=converged,
        residuals=residual,
        aitken_steps=aitken_steps,
        history_ring=ring,
        history_counts=ring_count,
    )


def _emit_lane_divergence(
    lanes: np.ndarray,
    iterations: np.ndarray,
    residual: np.ndarray,
    ring: np.ndarray,
    ring_count: np.ndarray,
) -> None:
    """Emit the scalar-compatible divergence telemetry for the failed
    ``lanes`` (ascending indices)."""
    if not obs.enabled():
        return
    histories = _ring_histories(ring[lanes], ring_count[lanes])
    for lane, hist in zip(lanes, histories):
        obs.counter_add("fixed_point.failures")
        obs.event(
            "fixed_point.divergence",
            evaluations=int(iterations[lane]),
            residual=float(residual[lane]),
            residuals=[float(v) for v in hist],
        )
