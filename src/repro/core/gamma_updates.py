"""Conditional variational-posterior updates for gamma-type NHPP SRMs.

This module implements Section 5.2 of the paper: for each value of the
latent total fault count ``N``, the conditional variational posterior is

* ``Pv(ω | N)   = Gamma(m_ω + N,      φ_ω + 1)``
* ``Pv(β | N)   = Gamma(m_β + N α0,   φ_β + ζ_N)``
* ``Pv(T | N)`` = independent gamma densities restricted to the region
  consistent with the observed data,

where ``ζ_N = E[Σ T_i | N]`` and ``ξ_N = E[β | N]`` solve the coupled
equations (paper Eqs. 24–27). The unnormalised log weight
``log P̃v(N)`` (paper Eq. 28) is evaluated in the cancelled, survival-
function form derived in DESIGN.md ("paper errata"):

failure-time data (``m_e`` observed times, horizon ``t_e``)::

    log P̃v(N) = lnΓ(m_ω+N) - (m_ω+N) ln(φ_ω+1)
               + lnΓ(m_β+Nα0) - (m_β+Nα0) ln(φ_β+ζ_N)
               + (N-m_e) [ ln S̄(t_e; α0, ξ_N) - α0 ln ξ_N + ξ_N η_N ]
               - ln (N-m_e)!

grouped data (counts ``x_i`` on ``(s_{i-1}, s_i]``, ``m = Σ x_i``)::

    log P̃v(N) = lnΓ(m_ω+N) - (m_ω+N) ln(φ_ω+1)
               + lnΓ(m_β+Nα0) - (m_β+Nα0) ln(φ_β+ζ_N)
               - N α0 ln ξ_N + ξ_N ζ_N
               + Σ_i x_i ln ΔG(s_{i-1}, s_i; α0, ξ_N)
               + (N-m) ln S̄(s_k; α0, ξ_N) - ln (N-m)!

with ``S̄`` the gamma survival function and ``η_N = E[T | T > t_e]``.
Terms constant in ``N`` are dropped (the weights are normalised over
``N``); VB2's step 5 (:func:`repro.core.vb2._finish`) adds them back
for a genuine evidence lower bound.

At ``α0 = 1`` memorylessness gives ``T | lo < T ≤ hi =d lo + (T | 0 <
T ≤ hi − lo)``, so ``E[T | interval_i] = lo_i + E[T | 0 < T ≤ w_i]`` and
``ln ΔG(lo_i, hi_i) = −ξ lo_i + ln ΔG(0, w_i)`` with ``w_i = hi_i −
lo_i``: grouped data enter only through ``m``, ``s_k``, ``Σ x_i lo_i``
and the summed count of each distinct width (:class:`IntervalClasses`).

``ξ_N`` solves ``ξ (φ_β + A(ξ) + (N − m) C(ξ)) = m_β + N α0``, with
``A(ξ)`` the expected lifetime sum of the ``m`` observed failures and
``C(ξ) = η = E[T | T > t_e]``. ``N`` enters linearly — ``ξ`` is an
expected natural parameter — so ``N`` is closed-form in ``ξ``::

    N(ξ) = (m_β + m ξ C(ξ) − ξ (φ_β + A(ξ))) / (ξ C(ξ) − α0)

with a positive denominator (``E[T | T > t_e] > α0/ξ``). The paper
iterates the fixed point per ``N``; :func:`solve_lanes` inverts
``N(ξ)`` instead. At ``α0 = 1`` on failure times the inverse is
closed-form too (:func:`solve_times_exponential_lanes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from repro import obs
from repro.core.config import VBConfig
from repro.data.failure_data import GroupedData
from repro.data.fleet import (
    FleetGroupedStats,
    FleetTimesStats,
    pack_grouped,
    pack_times,
)
from repro.exceptions import ConvergenceError
from repro.stats.special import (
    log_factorial,
    log_gamma_cdf_increment,
    log_gamma_fn,
    log_gamma_sf,
)
from repro.stats.truncated import truncated_gamma_mean

__all__ = [
    "LaneSolutions",
    "IntervalClasses",
    "SweepInputs",
    "INVERSE_NODES",
    "BRACKET_STEPS",
    "BRACKET_RATIO",
    "solve_times_exponential_lanes",
    "solve_lanes",
]

#: Chebyshev–Lobatto nodes in ``log ξ`` at which every dataset's
#: ``N(ξ)`` is evaluated per growth round.
INVERSE_NODES = 64

#: Halvings (or doublings) of ``ξ`` allowed at each end of a bracket,
#: and bisection steps allowed to tighten it.
BRACKET_STEPS = 64

#: Each end of a bracket is bisected in ``log ξ`` until it lies within
#: this factor of the ``ξ`` where ``N(ξ)`` crosses the lanes' range.
BRACKET_RATIO = 2.0 ** 0.125


# ----------------------------------------------------------------------
# Lanes (every VB2 fit: one dataset or a fleet)
# ----------------------------------------------------------------------
# A lane is one ``(dataset, N)`` pair. ``alpha0`` stays a *Python
# scalar* per call — the truncated/censored gamma means branch on
# ``shape == 1.0`` at the Python level, so fleets mix shapes by
# grouping datasets per shape.
#
# A fleet fit equals the single fits of its datasets exactly because
# every step below is elementwise in the dataset: each dataset's
# classes, bracket, nodes, spline and polish read only its own inputs,
# and class sums accumulate through ``np.add.at`` — an unbuffered,
# strictly in-order scatter-add, so each sum runs left to right
# whatever else shares the call (``np.add.reduceat`` would not: its
# segment reduction is pairwise).


@dataclass(frozen=True)
class LaneSolutions:
    """The conditional posteriors of many lanes at once, as per-lane
    arrays: ``ζ_N``, ``ξ_N``, the gamma parameters of ``Pv(ω | N)`` and
    ``Pv(β | N)``, and the unnormalised ``log P̃v(N)``."""

    n: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    a_omega: np.ndarray
    b_omega: np.ndarray
    a_beta: np.ndarray
    b_beta: np.ndarray
    log_weight: np.ndarray


def _validate_lanes(
    n: np.ndarray, observed: np.ndarray, a_beta: np.ndarray
) -> None:
    if np.any(n < observed):
        lane = int(np.argmax(n < observed))
        raise ValueError(
            f"n_start={int(n[lane])} is below the observed failure count "
            f"{int(observed[lane])} (lane {lane})"
        )
    if np.any(a_beta <= 0.0):
        raise ValueError("m_beta + N*alpha0 must be positive")


def _common_log_weight(n, m_omega, phi_omega, a_beta, b_beta):
    """The ``ω`` and ``β`` normaliser terms every ``log P̃v(N)`` shares."""
    return (
        log_gamma_fn(m_omega + n)
        - (m_omega + n) * np.log(phi_omega + 1.0)
        + log_gamma_fn(a_beta)
        - a_beta * np.log(b_beta)
    )


def solve_times_exponential_lanes(
    n: np.ndarray,
    me: np.ndarray,
    sum_times: np.ndarray,
    horizon: np.ndarray,
    m_omega: np.ndarray,
    phi_omega: np.ndarray,
    m_beta: np.ndarray,
    phi_beta: np.ndarray,
) -> LaneSolutions:
    """Closed-form Goel–Okumoto failure-time lanes.

    For ``α0 = 1`` every quantity is closed-form (the paper's Section
    5.2 fixed point ``ξ_N = (m_β + m_e) / (φ_β + Σ t_i + (N - m_e)
    t_e)``, DESIGN.md erratum 1), so nothing is solved — this is the
    configuration behind the paper's headline speed numbers (Table 7).
    Every argument is a per-lane array.
    """
    n = np.asarray(n, dtype=float)
    residual = n - me
    a_beta = m_beta + n
    _validate_lanes(n, me, a_beta)
    denom = phi_beta + sum_times + residual * horizon
    xi = (m_beta + me) / denom
    zeta = sum_times + residual * (horizon + 1.0 / xi)
    b_beta = phi_beta + zeta
    log_weight = (
        _common_log_weight(n, m_omega, phi_omega, a_beta, b_beta)
        + residual * (1.0 - np.log(xi))
        - log_factorial(residual)
    )
    return LaneSolutions(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
    )


@dataclass(frozen=True)
class IntervalClasses:
    """The occupied intervals of packed grouped datasets as the VB2
    updates read them: ``A(ξ) = shift + Σ_c count_c E[T | class c]`` and
    ``Σ_i x_i ln ΔG_i = −ξ shift + Σ_c count_c ln ΔG(class c)``.

    Class ``c`` is the interval ``(lo_c, hi_c]`` with ``count_c``
    failures; dataset ``i``'s classes are ``[offsets[i]:offsets[i+1]]``
    and ``shift[i]`` its ``ξ``-free part of ``A``. At ``α0 = 1`` the
    intervals of one width ``w`` (exact float ``hi − lo``) merge into
    one class on ``(0, w]`` with their summed count, ascending in ``w``,
    and ``shift = Σ x_i lo_i`` in interval order (memorylessness, see
    the module docstring). At any other shape the classes are the
    intervals themselves and ``shift`` is 0. Each dataset's classes and
    shift are built from its own intervals only.
    """

    offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray
    shift: np.ndarray

    @classmethod
    def pack(cls, stats: FleetGroupedStats, alpha0: float) -> "IntervalClasses":
        lo, count = stats.interval_lo, stats.interval_count
        if alpha0 != 1.0:
            return cls(stats.offsets, lo, stats.interval_hi, count,
                       np.zeros(len(stats)))
        # Each dataset's intervals sorted by width; a class starts
        # wherever the (dataset, width) pair changes.
        dataset = np.repeat(np.arange(len(stats)), np.diff(stats.offsets))
        width = stats.interval_hi - lo
        order = np.lexsort((width, dataset))
        width, member = width[order], dataset[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (width[1:] != width[:-1]) | (member[1:] != member[:-1])
        total = np.zeros(np.count_nonzero(first))
        np.add.at(total, np.cumsum(first) - 1, count[order])
        shift = np.zeros(len(stats))
        np.add.at(shift, dataset, count * lo)
        sizes = np.bincount(member[first], minlength=len(stats))
        return cls(
            offsets=np.concatenate(([0], np.cumsum(sizes))).astype(np.intp),
            lo=np.zeros(total.size),
            hi=width[first],
            count=total,
            shift=shift,
        )

    def add_terms(self, out, term, alpha0: float, g, xi) -> np.ndarray:
        """``out[k] += Σ_c count_c term(lo_c, hi_c, alpha0, xi[k])`` over
        the classes of point ``k``'s dataset ``g[k]``, in class order;
        ``term`` is a moment helper such as ``truncated_gamma_mean``.
        Returns ``out``."""
        sizes = self.offsets[g + 1] - self.offsets[g]
        point = np.repeat(np.arange(g.size), sizes)
        pair = np.arange(point.size) + np.repeat(
            self.offsets[g] - (np.cumsum(sizes) - sizes), sizes
        )
        np.add.at(out, point, self.count[pair] * term(
            self.lo[pair], self.hi[pair], alpha0, xi[point]
        ))
        return out


@dataclass(frozen=True)
class SweepInputs:
    """Per-dataset inputs of :func:`solve_lanes` for one ``(kind,
    α0)`` group: prior hyper-parameters and packed sufficient
    statistics, element ``i`` of every array belonging to dataset
    ``i``. Grouped inputs carry their :class:`IntervalClasses` at
    ``alpha0``."""

    m_omega: np.ndarray
    phi_omega: np.ndarray
    m_beta: np.ndarray
    phi_beta: np.ndarray
    stats: FleetTimesStats | FleetGroupedStats
    alpha0: float
    classes: IntervalClasses | None

    @classmethod
    def pack(cls, datasets, priors, alpha0: float) -> "SweepInputs":
        """Pack datasets of one kind with their priors, for lifetime
        shape ``alpha0``."""
        datasets, priors = list(datasets), list(priors)
        grouped = isinstance(datasets[0], GroupedData)
        stats = pack_grouped(datasets) if grouped else pack_times(datasets)
        return cls(
            m_omega=np.array([p.omega.shape for p in priors]),
            phi_omega=np.array([p.omega.rate for p in priors]),
            m_beta=np.array([p.beta.shape for p in priors]),
            phi_beta=np.array([p.beta.rate for p in priors]),
            stats=stats,
            alpha0=float(alpha0),
            classes=IntervalClasses.pack(stats, alpha0) if grouped else None,
        )

    @property
    def grouped(self) -> bool:
        return isinstance(self.stats, FleetGroupedStats)

    @property
    def observed(self) -> np.ndarray:
        return self.stats.total if self.grouped else self.stats.me


def _lifetime_sum(inputs: SweepInputs, alpha0: float, g, xi) -> np.ndarray:
    """``A(ξ)``, the expected lifetime sum of the observed failures, at
    points ``(dataset g, ξ)``: ``Σ t_i`` for failure times,
    ``Σ x_i E[T | interval_i] = shift + Σ_c count_c E[T | class c]`` for
    grouped data (paper Eqs. 24, 26)."""
    if not inputs.grouped:
        return inputs.stats.sum_times[g]
    classes = inputs.classes
    return classes.add_terms(
        classes.shift[g], truncated_gamma_mean, alpha0, g, xi
    )


def _n_of_xi(inputs: SweepInputs, alpha0: float, g, xi):
    """``N(ξ)`` at points ``(dataset g, ξ)``, with the ``A(ξ)``,
    ``C(ξ) = E[T | T > t_e]`` and ``ln S̄(t_e)`` it was built from.

    ``ξ C − α0 = x^α0 e^-x / (Γ(α0) S̄(t_e))`` with ``x = ξ t_e`` (the
    ladder step ``Q(α0+1, x) − Q(α0, x)``), evaluated in log space: the
    difference itself cancels catastrophically on the large-``N``
    lanes, where ``ξ t_e`` is small. ``C`` follows from it. At
    ``α0 = 1`` all three are closed-form: ``ln S̄(t_e) = −x``,
    ``ξ C − 1 = x`` and ``C = t_e + 1/ξ``.
    """
    horizon = inputs.stats.horizon[g]
    lifetime = _lifetime_sum(inputs, alpha0, g, xi)
    x = xi * horizon
    if alpha0 == 1.0:
        log_sf, excess, tail_mean = -x, x, horizon + 1.0 / xi
    else:
        log_sf = log_gamma_sf(horizon, alpha0, xi)
        excess = np.exp(
            alpha0 * np.log(x) - x - log_gamma_fn(alpha0) - log_sf
        )
        tail_mean = (alpha0 + excess) / xi
    n = (
        inputs.m_beta[g]
        + inputs.observed[g] * xi * tail_mean
        - xi * (inputs.phi_beta[g] + lifetime)
    ) / excess
    return n, lifetime, tail_mean, log_sf


def _natural_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through each row
    of ``(x, y)`` (``x`` ascending along the row).

    Every row's tridiagonal system is one block of a single banded
    solve (LAPACK ``gtsv``): blocks meet through zero couplings and the
    systems are diagonally dominant, so no pivot crosses a block and
    each row's solution does not depend on the others.
    """
    h = np.diff(x, axis=1)
    secant = np.diff(y, axis=1) / h
    rows, size = x.shape[0], x.shape[1] - 2
    bands = np.zeros((3, rows, size))
    bands[0, :, 1:] = h[:, 1:-1]
    bands[1] = 2.0 * (h[:, :-1] + h[:, 1:])
    bands[2, :, :-1] = h[:, 1:-1]
    interior = solve_banded(
        (1, 1), bands.reshape(3, rows * size),
        (6.0 * (secant[:, 1:] - secant[:, :-1])).ravel(),
    )
    m = np.zeros_like(x)
    m[:, 1:-1] = interior.reshape(rows, size)
    return m


def _spline_at(x, y, m, row, t):
    """Value and slope at ``t`` of row ``row`` of the spline."""
    # The piece: the last node at or below t (the first piece below
    # all nodes), found by binary lifting along each row.
    last = x.shape[1] - 2
    j = np.zeros(t.size, dtype=np.intp)
    step = 1 << last.bit_length()
    while step:
        probe = np.minimum(j + step, last)
        j = np.where(x[row, probe] <= t, probe, j)
        step >>= 1
    x0, x1 = x[row, j], x[row, j + 1]
    y0, y1 = y[row, j], y[row, j + 1]
    m0, m1 = m[row, j], m[row, j + 1]
    h = x1 - x0
    a = (x1 - t) / h
    b = (t - x0) / h
    value = a * y0 + b * y1 + ((a**3 - a) * m0 + (b**3 - b) * m1) * h * h / 6
    slope = (y1 - y0) / h + (
        (3.0 * b * b - 1.0) * m1 - (3.0 * a * a - 1.0) * m0
    ) * h / 6.0
    return value, slope


def _invert(inputs, alpha0, datasets, start, stop, row, n, config, where):
    """``ξ_N`` for every lane ``(row, n)`` — latent count ``n`` of
    dataset ``datasets[row]``, whose lanes run ``start..stop`` — by
    inverting ``N(ξ)``: bracket, evaluate on Chebyshev nodes,
    interpolate ``log ξ`` at each integer ``N``, polish.

    Returns the lane ``ξ`` with the ``A``, ``C`` and ``ln S̄(t_e)`` of
    their last evaluation, the lane evaluations per dataset, and the
    solve record (bracket steps, sweeps, largest final step).
    """
    g = datasets
    count = g.size
    observed = inputs.observed[g]
    horizon = inputs.stats.horizon[g]
    evaluations = np.zeros(count, dtype=np.int64)

    def n_at(points, xi):
        with np.errstate(all="ignore"):
            return _n_of_xi(inputs, alpha0, g[points], xi)[0]

    # 1. Bracket: from the prior-moment seed (every residual fault at
    # the horizon, or at twice it for grouped data) halve ξ_lo and
    # double ξ_hi until N(ξ_lo) > stop and N(ξ_hi) < start, then bisect
    # each end to within BRACKET_RATIO of its crossing. The nodes must
    # stay near the lanes: past the crossing of N = m, N(ξ) can fall to
    # a minimum below its large-ξ limit and rise again.
    stats = inputs.stats
    seed_sum, tail = (
        (stats.seed_dot[g], 2.0 * horizon) if inputs.grouped
        else (stats.sum_times[g], horizon)
    )

    def seed(n):
        return (inputs.m_beta[g] + n * alpha0) / (
            inputs.phi_beta[g] + seed_sum + (n - observed) * tail
        )

    lo, hi = seed(stop), seed(start)
    everyone = np.arange(count)
    n_lo = n_at(everyone, lo)
    n_hi = n_at(everyone, hi)
    evaluations += 2
    # The nearest ξ known to lie inside each end's crossing.
    lo_in, hi_in = np.full(count, np.inf), np.zeros(count)
    steps = 0
    while True:
        low = np.flatnonzero(~(n_lo > stop))
        high = np.flatnonzero(~(n_hi < start))
        if not (low.size or high.size):
            break
        if steps == BRACKET_STEPS:
            k = int(low[0] if low.size else high[0])
            raise ConvergenceError(
                f"{where[k]}no bracket of xi for N in "
                f"[{int(start[k])}, {int(stop[k])}] within "
                f"{BRACKET_STEPS} halvings and doublings",
                iterations=int(evaluations[k]),
            )
        steps += 1
        lo_in[low] = np.minimum(lo_in[low], lo[low])
        hi_in[high] = np.maximum(hi_in[high], hi[high])
        lo[low] *= 0.5
        hi[high] *= 2.0
        values = n_at(
            np.concatenate((low, high)), np.concatenate((lo[low], hi[high]))
        )
        n_lo[low] = values[:low.size]
        n_hi[high] = values[low.size:]
        evaluations[low] += 1
        evaluations[high] += 1
    lo_in = np.minimum(lo_in, hi)
    hi_in = np.maximum(hi_in, lo)
    for _ in range(BRACKET_STEPS):
        low = np.flatnonzero(lo_in > lo * BRACKET_RATIO)
        high = np.flatnonzero(hi > hi_in * BRACKET_RATIO)
        if not (low.size or high.size):
            break
        steps += 1
        mid_lo = np.sqrt(lo[low] * lo_in[low])
        mid_hi = np.sqrt(hi_in[high] * hi[high])
        values = n_at(
            np.concatenate((low, high)), np.concatenate((mid_lo, mid_hi))
        )
        out = values[:low.size] > stop[low]
        lo[low[out]] = mid_lo[out]
        lo_in[low[~out]] = mid_lo[~out]
        out = values[low.size:] < start[high]
        hi[high[out]] = mid_hi[out]
        hi_in[high[~out]] = mid_hi[~out]
        evaluations[low] += 1
        evaluations[high] += 1

    # 2. N(ξ) on Chebyshev-Lobatto nodes in log ξ, increasing in ξ.
    nodes = INVERSE_NODES
    u_lo, u_hi = np.log(lo), np.log(hi)
    cosine = np.cos(np.pi * np.arange(nodes) / (nodes - 1))
    u = (0.5 * (u_lo + u_hi))[:, None] - (
        (0.5 * (u_hi - u_lo))[:, None] * cosine
    )
    n_nodes = n_at(np.repeat(everyone, nodes), np.exp(u).ravel()).reshape(
        count, nodes
    )
    evaluations += nodes
    falling = np.all(np.diff(n_nodes, axis=1) < 0.0, axis=1)
    if not falling.all():
        k = int(np.argmin(falling))
        raise ConvergenceError(
            f"{where[k]}N(xi) is not strictly decreasing on the bracket "
            f"[{lo[k]:.6g}, {hi[k]:.6g}] of N in "
            f"[{int(start[k])}, {int(stop[k])}]",
            iterations=int(evaluations[k]),
        )

    # 3. A natural cubic spline of log ξ in N gives each lane's start
    # and the slope d log ξ / dN its Newton steps use.
    x, y = n_nodes[:, ::-1], u[:, ::-1]
    spline = _natural_spline(x, y)
    log_xi, slope = _spline_at(x, y, spline, row, n)

    # 4. Polish: Δ log ξ = (N − N(ξ)) · slope, one sweep over every live
    # lane, until each lane's step is within tolerance. A lane keeps
    # the ξ of its last evaluation, so A, C and ln S̄ need no re-run.
    lanes = n.size
    lifetime = np.empty(lanes)
    tail_mean = np.empty(lanes)
    log_sf = np.empty(lanes)
    final_step = np.zeros(lanes)
    live = np.arange(lanes)
    sweeps = 0
    while live.size:
        if sweeps == config.fixed_point_max_iter:
            lane = int(live[0])
            raise ConvergenceError(
                f"{where[row[lane]]}polish of xi at N={int(n[lane])} did not "
                f"converge within {sweeps} sweeps (last relative step "
                f"{abs(final_step[lane]):.3e})",
                iterations=sweeps,
                residual=abs(float(final_step[lane])),
            )
        sweeps += 1
        values = _n_of_xi(inputs, alpha0, g[row[live]], np.exp(log_xi[live]))
        step = (n[live] - values[0]) * slope[live]
        evaluations += np.bincount(row[live], minlength=count)
        final_step[live] = step
        if not np.all(np.isfinite(step)):
            lane = int(live[np.argmin(np.isfinite(step))])
            raise ConvergenceError(
                f"{where[row[lane]]}polish of xi at N={int(n[lane])} left "
                f"the finite range (xi={np.exp(log_xi[lane]):.6g})",
                iterations=sweeps,
            )
        done = np.abs(step) <= config.fixed_point_rtol
        for out, value in zip((lifetime, tail_mean, log_sf), values[1:]):
            out[live[done]] = value[done]
        log_xi[live[~done]] += step[~done]
        live = live[~done]
    record = {
        "bracket_steps": steps,
        "sweeps": sweeps,
        "max_step": float(np.max(np.abs(final_step))) if lanes else 0.0,
    }
    return np.exp(log_xi), lifetime, tail_mean, log_sf, evaluations, record


def solve_lanes(
    inputs: SweepInputs,
    alpha0: float,
    datasets: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
    config: VBConfig,
    where=None,
) -> tuple[LaneSolutions, np.ndarray]:
    """The conditional posteriors of lanes ``start[k]..stop[k]`` of
    every dataset ``datasets[k]`` (positions into ``inputs``).

    Goel–Okumoto failure-time lanes (``α0 = 1``) are closed-form
    (:func:`solve_times_exponential_lanes`). Otherwise — any other
    shape, and grouped data, where no closed form exists even for
    ``α0 = 1`` — ``ξ_N`` solves the conditional equation by inverting
    ``N(ξ)`` (see the module docstring): the lanes of a dataset are one
    bracket, one set of :data:`INVERSE_NODES` node evaluations, and a
    few Newton sweeps that stop per lane once ``|Δ log ξ| <=
    config.fixed_point_rtol``. ``where[k]`` prefixes dataset ``k``'s
    error messages (``"dataset 3: "`` in a fleet).

    Returns the lanes, dataset-major, and the lane evaluations of
    ``N(ξ)`` each dataset spent (bracket, nodes and polish).

    Raises
    ------
    ConvergenceError
        No bracket within :data:`BRACKET_STEPS` halvings and doublings,
        node values of ``N(ξ)`` that are not strictly decreasing, or
        more than ``config.fixed_point_max_iter`` polish sweeps.
    ValueError
        ``alpha0`` is not the shape ``inputs`` were packed at.
    """
    datasets = np.asarray(datasets, dtype=np.intp)
    start = np.asarray(start, dtype=np.int64)
    stop = np.asarray(stop, dtype=np.int64)
    if where is None:
        where = [""] * datasets.size
    if float(alpha0) != inputs.alpha0:
        raise ValueError(
            f"inputs were packed at alpha0={inputs.alpha0:g}, not "
            f"alpha0={alpha0:g}"
        )
    # Ragged [start_k .. stop_k] ranges in one shot: a global arange
    # shifted per block. Small integers in float64, so this is exact.
    sizes = stop - start + 1
    offsets = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(datasets.size), sizes)
    n = np.arange(int(sizes.sum()), dtype=float) - np.repeat(
        offsets - start, sizes
    )
    g = datasets[row]
    if alpha0 == 1.0 and not inputs.grouped:
        stats = inputs.stats
        lanes = solve_times_exponential_lanes(
            n, stats.me[g], stats.sum_times[g], stats.horizon[g],
            inputs.m_omega[g], inputs.phi_omega[g],
            inputs.m_beta[g], inputs.phi_beta[g],
        )
        return lanes, np.zeros(datasets.size, dtype=np.int64)
    _validate_lanes(start.astype(float), inputs.observed[datasets],
                    inputs.m_beta[datasets] + start * alpha0)
    with obs.span("vb2.inverse", level="debug", datasets=int(datasets.size),
                  nodes=INVERSE_NODES) as sp:
        xi, lifetime, tail_mean, log_sf, evaluations, record = _invert(
            inputs, alpha0, datasets, start, stop, row, n, config, where
        )
        # The span is the shared no-op handle below the debug level, so
        # attrs only exist on the live span.
        if getattr(sp, "attrs", None) is not None:
            sp.attrs["lanes"] = int(n.size)
            sp.attrs["classes"] = int(
                np.diff(inputs.classes.offsets)[datasets].sum()
            ) if inputs.grouped else 0
            sp.attrs.update(record)
    residual = n - inputs.observed[g]
    has_resid = residual > 0
    m_omega, phi_omega = inputs.m_omega[g], inputs.phi_omega[g]
    a_beta = inputs.m_beta[g] + n * alpha0
    zeta = lifetime + residual * tail_mean
    b_beta = inputs.phi_beta[g] + zeta
    log_weight = _common_log_weight(n, m_omega, phi_omega, a_beta, b_beta)
    if inputs.grouped:
        classes = inputs.classes
        log_weight = (
            log_weight - n * alpha0 * np.log(xi)
            + xi * (zeta - classes.shift[g])
        )
        classes.add_terms(log_weight, log_gamma_cdf_increment, alpha0, g, xi)
        tail_terms = log_sf
    else:
        tail_terms = log_sf - alpha0 * np.log(xi) + xi * tail_mean
    log_weight[has_resid] += residual[has_resid] * tail_terms[has_resid]
    log_weight[has_resid] -= log_factorial(residual[has_resid])
    lanes = LaneSolutions(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
    )
    return lanes, evaluations
