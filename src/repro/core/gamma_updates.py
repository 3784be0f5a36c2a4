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
``N``); :func:`elbo_constant` recovers them for a genuine evidence
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.fixed_point import FixedPointResult, solve_fixed_point
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.stats.rootfind import solve_fixed_point_batch
from repro.stats.special import (
    log_factorial,
    log_gamma_cdf_increment,
    log_gamma_fn,
    log_gamma_sf,
)
from repro.stats.truncated import censored_gamma_mean, truncated_gamma_mean

__all__ = [
    "TimesStats",
    "GroupedStats",
    "ConditionalSolution",
    "LaneSolutions",
    "solve_conditional_times",
    "solve_conditional_grouped",
    "solve_times_exponential_lanes",
    "solve_times_lanes",
    "solve_grouped_lanes",
    "elbo_constant",
]

# The scalar per-N solvers and the lane solvers below are kept
# bit-identical: both evaluate every transcendental through the numpy
# ufuncs in repro.stats.special (whose scalar calls are 0-d instances of
# the array code), accumulate interval sums in the same order, and seed
# the fixed point with the same closed-form expression. Tests in
# tests/core/test_gamma_updates.py and tests/core/test_vb2_batched.py
# pin the equality exactly (max abs diff 0.0).


@dataclass(frozen=True)
class TimesStats:
    """Sufficient statistics of failure-time data for the VB updates."""

    me: int
    sum_times: float
    sum_log_times: float
    horizon: float

    @classmethod
    def from_data(cls, data: FailureTimeData) -> "TimesStats":
        return cls(
            me=data.count,
            sum_times=data.total_time,
            sum_log_times=data.sum_log_times,
            horizon=data.horizon,
        )


@dataclass(frozen=True)
class GroupedStats:
    """Sufficient statistics of grouped data for the VB updates."""

    counts: np.ndarray
    edges: np.ndarray  # length k+1, edges[0] == 0
    total: int
    horizon: float
    sum_log_count_factorials: float

    @classmethod
    def from_data(cls, data: GroupedData) -> "GroupedStats":
        counts = np.asarray(data.counts, dtype=np.int64)
        return cls(
            counts=counts,
            edges=data.interval_edges(),
            total=int(counts.sum()),
            horizon=data.horizon,
            sum_log_count_factorials=float(
                np.sum([log_factorial(int(c)) for c in counts])
            ),
        )


@dataclass(frozen=True)
class ConditionalSolution:
    """Variational solution conditioned on the latent fault count ``N``.

    Attributes
    ----------
    n:
        The conditioning value of the total fault count.
    zeta:
        ``ζ_N = E[Σ T_i | N]`` under the variational posterior.
    xi:
        ``ξ_N = E[β | N]``.
    a_omega, b_omega:
        Shape and rate of ``Pv(ω | N)``.
    a_beta, b_beta:
        Shape and rate of ``Pv(β | N)``.
    log_weight:
        Unnormalised ``log P̃v(N)`` (constants in ``N`` dropped).
    iterations:
        Fixed-point evaluations spent on this ``N``.
    """

    n: int
    zeta: float
    xi: float
    a_omega: float
    b_omega: float
    a_beta: float
    b_beta: float
    log_weight: float
    iterations: int


# ----------------------------------------------------------------------
# Failure-time data
# ----------------------------------------------------------------------
def _zeta_times(n: int, alpha0: float, xi: float, stats: TimesStats) -> float:
    """Paper Eq. 24 (survival-function form): expected total lifetime."""
    residual = n - stats.me
    if residual == 0:
        return stats.sum_times
    return stats.sum_times + residual * censored_gamma_mean(
        stats.horizon, alpha0, xi
    )


def solve_conditional_times(
    n: int,
    alpha0: float,
    prior: ModelPrior,
    stats: TimesStats,
    config: VBConfig,
    xi_start: float | None = None,
) -> ConditionalSolution:
    """Solve the conditional variational posterior for one ``N`` on
    failure-time data.

    For the Goel–Okumoto member (``α0 = 1``) the fixed point has the
    closed form the paper cites in Section 5.2::

        ξ_N = (m_β + m_e) / (φ_β + Σ t_i + (N - m_e) t_e)

    which we use directly; other shapes go through the scalar fixed
    point with Aitken acceleration and a warm start.
    """
    if n < stats.me:
        raise ValueError(f"N={n} is below the observed failure count {stats.me}")
    if n == 0 and not prior.beta.is_proper:
        raise ValueError(
            "N = 0 with an improper beta prior leaves Pv(beta | N) improper; "
            "use a proper prior or data with at least one failure"
        )
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    a_beta = m_beta + n * alpha0
    if a_beta <= 0.0:
        raise ValueError("m_beta + N*alpha0 must be positive")

    if alpha0 == 1.0:
        denom = phi_beta + stats.sum_times + (n - stats.me) * stats.horizon
        xi = (m_beta + stats.me) / denom
        iterations = 0
        result = None
    else:
        def update(xi_val: float) -> float:
            return a_beta / (phi_beta + _zeta_times(n, alpha0, xi_val, stats))

        if xi_start is None:
            # Under-estimate of zeta gives an over-estimate of xi; safe seed.
            xi_start = a_beta / (
                phi_beta
                + stats.sum_times
                + (n - stats.me) * stats.horizon
                + 1e-300
            )
        result = solve_fixed_point(
            update,
            xi_start,
            rtol=config.fixed_point_rtol,
            max_iter=config.fixed_point_max_iter,
            use_aitken=config.use_aitken,
        )
        xi = result.value
        iterations = result.iterations

    zeta = _zeta_times(n, alpha0, xi, stats)
    b_beta = phi_beta + zeta
    residual = n - stats.me
    log_weight = (
        float(log_gamma_fn(m_omega + n))
        - (m_omega + n) * float(np.log(phi_omega + 1.0))
        + float(log_gamma_fn(a_beta))
        - a_beta * float(np.log(b_beta))
    )
    if residual > 0:
        eta = censored_gamma_mean(stats.horizon, alpha0, xi)
        log_weight += residual * (
            log_gamma_sf(stats.horizon, alpha0, xi)
            - alpha0 * float(np.log(xi))
            + xi * eta
        )
        log_weight -= float(log_factorial(residual))
    return ConditionalSolution(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
        iterations=iterations,
    )


def _apply_warm_seeds(
    xi_seed: np.ndarray, xi_warm: np.ndarray | None
) -> np.ndarray:
    """Overlay warm fixed-point seeds onto the default seed array.

    ``xi_warm`` entries that are finite and positive replace the default
    seed for that lane; ``nan`` (or non-positive) entries keep the
    default. ``None`` is a no-op, so cold paths stay bit-identical.
    """
    if xi_warm is None:
        return xi_seed
    xi_warm = np.asarray(xi_warm, dtype=np.float64)
    if xi_warm.shape != xi_seed.shape:
        raise ValueError(
            f"xi_warm shape {xi_warm.shape} does not match the "
            f"{xi_seed.shape} lane grid"
        )
    usable = np.isfinite(xi_warm) & (xi_warm > 0.0)
    if not np.any(usable):
        return xi_seed
    return np.where(usable, xi_warm, xi_seed)


# ----------------------------------------------------------------------
# Grouped data
# ----------------------------------------------------------------------
def _zeta_grouped(n: int, alpha0: float, xi: float, stats: GroupedStats) -> float:
    """Paper Eq. 26 (survival-function form for the tail term)."""
    total = 0.0
    edges = stats.edges
    for i, count in enumerate(stats.counts):
        if count == 0:
            continue
        total += count * truncated_gamma_mean(
            float(edges[i]), float(edges[i + 1]), alpha0, xi
        )
    residual = n - stats.total
    if residual > 0:
        total += residual * censored_gamma_mean(stats.horizon, alpha0, xi)
    return total


def solve_conditional_grouped(
    n: int,
    alpha0: float,
    prior: ModelPrior,
    stats: GroupedStats,
    config: VBConfig,
    xi_start: float | None = None,
) -> ConditionalSolution:
    """Solve the conditional variational posterior for one ``N`` on
    grouped data. No closed form exists even for ``α0 = 1`` because the
    within-interval truncated means depend on ``ξ`` non-linearly."""
    if n < stats.total:
        raise ValueError(f"N={n} is below the observed failure count {stats.total}")
    if n == 0 and not prior.beta.is_proper:
        raise ValueError(
            "N = 0 with an improper beta prior leaves Pv(beta | N) improper; "
            "use a proper prior or data with at least one failure"
        )
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    a_beta = m_beta + n * alpha0
    if a_beta <= 0.0:
        raise ValueError("m_beta + N*alpha0 must be positive")

    def update(xi_val: float) -> float:
        return a_beta / (phi_beta + _zeta_grouped(n, alpha0, xi_val, stats))

    if xi_start is None:
        # Seed from an upper bound on zeta: every observed time at its
        # interval's right edge, every residual fault at 2x the horizon.
        zeta_hi = float(
            np.dot(stats.counts, stats.edges[1:])
        ) + (n - stats.total) * 2.0 * stats.horizon
        xi_start = a_beta / (phi_beta + zeta_hi)
    result: FixedPointResult = solve_fixed_point(
        update,
        xi_start,
        rtol=config.fixed_point_rtol,
        max_iter=config.fixed_point_max_iter,
        use_aitken=config.use_aitken,
    )
    xi = result.value
    zeta = _zeta_grouped(n, alpha0, xi, stats)
    b_beta = phi_beta + zeta
    residual = n - stats.total

    log_weight = (
        float(log_gamma_fn(m_omega + n))
        - (m_omega + n) * float(np.log(phi_omega + 1.0))
        + float(log_gamma_fn(a_beta))
        - a_beta * float(np.log(b_beta))
        - n * alpha0 * float(np.log(xi))
        + xi * zeta
    )
    edges = stats.edges
    for i, count in enumerate(stats.counts):
        if count == 0:
            continue
        log_weight += count * log_gamma_cdf_increment(
            float(edges[i]), float(edges[i + 1]), alpha0, xi
        )
    if residual > 0:
        log_weight += residual * log_gamma_sf(stats.horizon, alpha0, xi)
        log_weight -= float(log_factorial(residual))
    return ConditionalSolution(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
        iterations=result.iterations,
    )


# ----------------------------------------------------------------------
# Lane solvers (every NumPy VB2 fit: one dataset or a fleet)
# ----------------------------------------------------------------------
# A lane is one ``(dataset, N)`` pair: every per-dataset quantity
# (sufficient statistics, prior hyper-parameters) arrives as a per-lane
# array, so one dataset's latent-count range — or a whole portfolio's —
# collapses into one batched fixed-point solve. ``alpha0`` stays a
# *Python scalar* per call — the truncated/censored gamma means branch
# on ``shape == 1.0`` at the Python level, so fleets mix shapes by
# grouping datasets per shape.
#
# Bit-identity with the scalar per-N solvers holds lane-wise because
# (a) every transcendental is the same elementwise ufunc, (b) the
# fixed point evaluates each lane's update map on that lane's own
# inputs only, replaying its scalar iteration regardless of which
# other lanes are still live, and (c) interval sums accumulate through
# ``np.ufunc.at`` — an unbuffered, strictly in-order scatter-add,
# matching the scalar Python loop's left-to-right sums
# (``np.add.reduceat`` would NOT: its segment reduction is pairwise).


@dataclass(frozen=True)
class LaneSolutions:
    """Columnar :class:`ConditionalSolution` for many lanes at once:
    the same fields, as per-lane arrays."""

    n: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    a_omega: np.ndarray
    b_omega: np.ndarray
    a_beta: np.ndarray
    b_beta: np.ndarray
    log_weight: np.ndarray
    iterations: np.ndarray


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
    t_e)``), so no fixed point runs — this is the configuration behind
    the paper's headline speed numbers (Table 7). Every argument is a
    per-lane array (a lane is one ``(dataset, N)`` pair). Bit-identical
    per lane to :func:`solve_conditional_times` with ``alpha0 = 1``.
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
        log_gamma_fn(m_omega + n)
        - (m_omega + n) * np.log(phi_omega + 1.0)
        + log_gamma_fn(a_beta)
        - a_beta * np.log(b_beta)
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
        iterations=np.zeros(n.size, dtype=np.int64),
    )


def solve_times_lanes(
    n: np.ndarray,
    alpha0: float,
    me: np.ndarray,
    sum_times: np.ndarray,
    horizon: np.ndarray,
    m_omega: np.ndarray,
    phi_omega: np.ndarray,
    m_beta: np.ndarray,
    phi_beta: np.ndarray,
    config: VBConfig,
    lane_label=None,
    xi_warm: np.ndarray | None = None,
    rtol_lanes: np.ndarray | None = None,
) -> LaneSolutions:
    """Failure-time lanes for a general gamma shape: paper Eq. 24 as
    the lane-indexed update map of one batched fixed point.

    ``alpha0`` must be a Python scalar shared by every lane (callers
    group datasets per shape); all other arguments are per-lane arrays.
    ``lane_label`` (``lane -> str``) names a failed lane in divergence
    errors (fleet callers label each lane with its dataset).
    ``xi_warm`` optionally replaces the default seed per lane (finite
    entries only; ``nan`` keeps the default) and ``rtol_lanes`` the
    shared stopping tolerance; the exponential short-circuit ignores
    both (closed form, nothing to iterate). Bit-identical per lane to
    :func:`solve_conditional_times`.
    """
    if alpha0 == 1.0:
        return solve_times_exponential_lanes(
            n, me, sum_times, horizon, m_omega, phi_omega, m_beta, phi_beta
        )
    n = np.asarray(n, dtype=float)
    residual = n - me
    has_resid = residual > 0
    a_beta = m_beta + n * alpha0
    _validate_lanes(n, me, a_beta)

    def zeta_of(xi: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        total = sum_times[lanes]
        resid = has_resid[lanes]
        if np.any(resid):
            tails = lanes[resid]
            eta = censored_gamma_mean(horizon[tails], alpha0, xi[resid])
            total[resid] = sum_times[tails] + residual[tails] * eta
        return total

    def update(xi: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return a_beta[lanes] / (phi_beta[lanes] + zeta_of(xi, lanes))

    xi_seed = a_beta / (phi_beta + sum_times + residual * horizon + 1e-300)
    solve = solve_fixed_point_batch(
        update,
        _apply_warm_seeds(xi_seed, xi_warm),
        rtol=(
            config.fixed_point_rtol if rtol_lanes is None else rtol_lanes
        ),
        max_iter=config.fixed_point_max_iter,
        use_aitken=config.use_aitken,
        lane_label=lane_label,
    )
    xi = solve.values
    zeta = zeta_of(xi, np.arange(n.size))
    b_beta = phi_beta + zeta
    log_weight = (
        log_gamma_fn(m_omega + n)
        - (m_omega + n) * np.log(phi_omega + 1.0)
        + log_gamma_fn(a_beta)
        - a_beta * np.log(b_beta)
    )
    if np.any(has_resid):
        xm = xi[has_resid]
        eta = censored_gamma_mean(horizon[has_resid], alpha0, xm)
        log_weight[has_resid] += residual[has_resid] * (
            log_gamma_sf(horizon[has_resid], alpha0, xm)
            - alpha0 * np.log(xm)
            + xm * eta
        )
        log_weight[has_resid] -= log_factorial(residual[has_resid])
    return LaneSolutions(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
        iterations=solve.iterations,
    )


def solve_grouped_lanes(
    n: np.ndarray,
    alpha0: float,
    total_observed: np.ndarray,
    horizon: np.ndarray,
    pair_lane: np.ndarray,
    pair_lo: np.ndarray,
    pair_hi: np.ndarray,
    pair_count: np.ndarray,
    seed_dot: np.ndarray,
    m_omega: np.ndarray,
    phi_omega: np.ndarray,
    m_beta: np.ndarray,
    phi_beta: np.ndarray,
    config: VBConfig,
    lane_label=None,
    xi_warm: np.ndarray | None = None,
    rtol_lanes: np.ndarray | None = None,
) -> LaneSolutions:
    """Grouped-data lanes: paper Eq. 26 as the lane-indexed update map
    of one batched fixed point — the hot path of every grouped VB2 fit
    (no closed form exists even for ``α0 = 1``).

    The ragged per-dataset interval structure arrives flattened as
    ``(lane, interval)`` pairs: ``pair_lane[j]`` is the lane index of
    pair ``j`` and ``pair_lo/hi/count`` its interval geometry, so each
    update evaluates the truncated means of every live lane's intervals
    in one broadcast. Pairs MUST be laid out lane-major with intervals
    in ascending order within each lane — the scatter-adds below then
    accumulate each lane's interval sum in exactly the scalar loop's
    order. ``seed_dot[i]`` is the lane's dataset-level
    ``float(np.dot(counts, edges[1:]))`` (the scalar solver's
    upper-bound zeta seed). ``lane_label``, ``xi_warm`` and
    ``rtol_lanes`` are as in :func:`solve_times_lanes`. Bit-identical
    per lane to :func:`solve_conditional_grouped`.
    """
    n = np.asarray(n, dtype=float)
    residual = n - total_observed
    has_resid = residual > 0
    a_beta = m_beta + n * alpha0
    _validate_lanes(n, total_observed, a_beta)

    def zeta_of(xi: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        total = np.zeros(lanes.size)
        if pair_lane.size:
            if lanes.size == n.size:
                pairs, local = slice(None), pair_lane
            else:
                # The live lanes' pairs, in their original order, and
                # each pair's position in `lanes`.
                live = np.zeros(n.size, dtype=bool)
                live[lanes] = True
                pairs = np.flatnonzero(live[pair_lane])
                local = (np.cumsum(live) - 1)[pair_lane[pairs]]
            terms = pair_count[pairs] * truncated_gamma_mean(
                pair_lo[pairs], pair_hi[pairs], alpha0, xi[local]
            )
            np.add.at(total, local, terms)
        resid = has_resid[lanes]
        if np.any(resid):
            tails = lanes[resid]
            total[resid] = total[resid] + residual[tails] * (
                censored_gamma_mean(horizon[tails], alpha0, xi[resid])
            )
        return total

    def update(xi: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return a_beta[lanes] / (phi_beta[lanes] + zeta_of(xi, lanes))

    zeta_hi = seed_dot + residual * 2.0 * horizon
    solve = solve_fixed_point_batch(
        update,
        _apply_warm_seeds(a_beta / (phi_beta + zeta_hi), xi_warm),
        rtol=(
            config.fixed_point_rtol if rtol_lanes is None else rtol_lanes
        ),
        max_iter=config.fixed_point_max_iter,
        use_aitken=config.use_aitken,
        lane_label=lane_label,
    )
    xi = solve.values
    zeta = zeta_of(xi, np.arange(n.size))
    b_beta = phi_beta + zeta

    log_weight = (
        log_gamma_fn(m_omega + n)
        - (m_omega + n) * np.log(phi_omega + 1.0)
        + log_gamma_fn(a_beta)
        - a_beta * np.log(b_beta)
        - n * alpha0 * np.log(xi)
        + xi * zeta
    )
    if pair_lane.size:
        incs = pair_count * log_gamma_cdf_increment(
            pair_lo, pair_hi, alpha0, xi[pair_lane]
        )
        np.add.at(log_weight, pair_lane, incs)
    if np.any(has_resid):
        log_weight[has_resid] += residual[has_resid] * (
            log_gamma_sf(horizon[has_resid], alpha0, xi[has_resid])
        )
        log_weight[has_resid] -= log_factorial(residual[has_resid])
    return LaneSolutions(
        n=n,
        zeta=zeta,
        xi=xi,
        a_omega=m_omega + n,
        b_omega=phi_omega + 1.0,
        a_beta=a_beta,
        b_beta=b_beta,
        log_weight=log_weight,
        iterations=solve.iterations,
    )


# ----------------------------------------------------------------------
# Evidence lower bound constants
# ----------------------------------------------------------------------
def elbo_constant(
    stats: TimesStats | GroupedStats, prior: ModelPrior, alpha0: float
) -> float:
    """The ``N``-independent terms dropped from ``log P̃v(N)``.

    Adding this to ``logsumexp_N log P̃v(N)`` yields the full variational
    lower bound ``F[Pv] <= log P(D)``. Requires proper priors (improper
    priors have no normaliser, so the bound is only defined up to a
    constant); raises otherwise.
    """
    const = -prior.omega.log_normaliser() - prior.beta.log_normaliser()
    if isinstance(stats, TimesStats):
        const += (alpha0 - 1.0) * stats.sum_log_times
        const -= stats.me * float(log_gamma_fn(alpha0))
    elif isinstance(stats, GroupedStats):
        const -= stats.sum_log_count_factorials
    else:
        raise TypeError(f"unsupported stats type: {type(stats).__name__}")
    return const
