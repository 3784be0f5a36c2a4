"""Data-augmentation Gibbs sampler for grouped data.

The paper (Section 6) handles grouped data by augmenting the latent
failure times inside each counting interval at every sweep (Tanner &
Wong 1987) — with ``m = Σ x_i`` observed failures and the three
parameter/count draws this costs ``m + 3`` variates per sweep,
matching Table 6's (3 + 38) x (10000 + 10 x 20000) = 8.61M variates.

Sweep structure:

1. latent times: for each interval ``(s_{i-1}, s_i]`` draw the ``x_i``
   failure times from the gamma lifetime law truncated to the interval;
2. residual count ``N̄ ~ Poisson(ω S̄(s_k; α0, β))``;
3. ``ω | N̄ ~ Gamma(m_ω + m + N̄, φ_ω + 1)``;
4. ``β`` from the conjugate gamma conditional, with the censored tail
   collapsed analytically for ``α0 = 1`` and augmented otherwise.
"""

from __future__ import annotations

import math

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.mcmc.chains import (
    ChainSettings,
    MCMCResult,
    record_sampler_telemetry,
)
from repro.bayes.mcmc.gibbs_failure_time import _check_kept
from repro.bayes.priors import ModelPrior
from repro.data.failure_data import GroupedData
from repro.stats.gamma_dist import gamma_from_uniform
from repro.stats.poisson import poisson_from_uniform
from repro.stats.truncated import (
    censored_gamma_from_uniform,
    sample_censored_gamma,
    truncated_gamma_from_uniform,
)
from repro.stats.uniforms import UniformLaneStream, segment_sums

__all__ = ["gibbs_grouped"]


def gibbs_grouped(
    data: GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    settings: ChainSettings | None = None,
    rng: np.random.Generator | None = None,
) -> MCMCResult:
    """Run the data-augmentation Gibbs sampler on grouped data.

    Each sweep draws all latent failure times through one
    :func:`~repro.stats.truncated.truncated_gamma_from_uniform` call on
    one ``rng.random`` block. At ``alpha0 = 1`` the latent times are the
    memoryless closed-form inversion and the tail probability is
    ``exp(-β t_e)``; no special function is called in the sweep.

    With ``settings.variate_layer == "inverse"`` the chain consumes the
    generator's raw uniform stream through the explicit inverse-CDF
    layer — the scalar reference for
    :func:`repro.bayes.mcmc.lane_engine.gibbs_grouped_lanes`,
    bit-identical to a lane of a batched run.
    """
    settings = settings or ChainSettings()
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    with obs.span("mcmc.gibbs_grouped", collect=True) as sp:
        if settings.variate_layer == "inverse":
            return _gibbs_grouped_inverse(data, prior, alpha0, settings, rng, sp)
        return _gibbs_grouped(data, prior, alpha0, settings, rng, sp)


#: From this many terms on, NumPy's ``.sum()`` accumulates a row eight
#: ways (pairwise); below it, the terms are added left to right.
_PAIRWISE_FROM = 8


class _IntervalSums:
    """Sum of one sweep's latent draws, interval by interval.

    ``draws`` holds each occupied interval's draws back to back, in
    interval order, ``counts[i]`` of them for interval ``i``. The total
    is bit-identical to adding each interval's ``segment.sum()`` to a
    running float in interval order, without a Python loop over the
    intervals. A row sum of a C-contiguous index block runs the same
    reduction as ``.sum()`` on the row alone, and a running sum
    (``np.add.accumulate``) adds the per-interval sums left to right; a
    reduceat over the offsets would reduce in another order.

    Intervals with fewer than ``_PAIRWISE_FROM`` draws share one block,
    padded to the longest of them with the index of a zero kept after
    the draws: those rows add left to right, and trailing zeros add
    exactly nothing. Each longer draw count ``L``, where ``.sum()`` runs
    pairwise and padding would change the order, keeps a block
    ``starts[rows, None] + arange(L)`` of its own.
    """

    def __init__(self, counts: np.ndarray) -> None:
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        self._padded = np.zeros(total + 1)
        self._size = counts.size
        self._blocks = []
        short = np.flatnonzero(counts < _PAIRWISE_FROM)
        if short.size:
            columns = np.arange(counts[short].max())
            block = np.where(
                columns < counts[short, None], starts[short, None] + columns, total
            )
            self._blocks.append((short, block))
        for length in np.unique(counts[counts >= _PAIRWISE_FROM]):
            rows = np.flatnonzero(counts == length)
            self._blocks.append((rows, starts[rows, None] + np.arange(length)))

    def __call__(self, draws: np.ndarray) -> float:
        padded = self._padded
        padded[:-1] = draws
        sums = np.empty(self._size)
        for rows, block in self._blocks:
            sums[rows] = np.add.reduce(padded[block], axis=1)
        return float(np.add.accumulate(sums)[-1])


def _gibbs_grouped(
    data: GroupedData,
    prior: ModelPrior,
    alpha0: float,
    settings: ChainSettings,
    rng: np.random.Generator,
    sp,
) -> MCMCResult:
    intervals = [item for item in data.intervals() if item[2] > 0]
    total = data.total_count
    horizon = data.horizon
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    # Interval geometry hoisted out of the sweep loop: each occupied
    # interval's bounds repeated once per draw, so all latent times of a
    # sweep map through ONE truncated_gamma_from_uniform call on ONE
    # rng.random block. rng.random takes one double per draw, as the
    # per-interval rng.uniform calls did, and at alpha0 != 1 the map's
    # p_lo + u (p_hi - p_lo) rounds as rng.uniform(p_lo, p_hi) did: the
    # variate stream, the Table 6 variate counts and the alpha0 != 1
    # chains are unchanged bit for bit.
    int_count = np.array([count for _, _, count in intervals], dtype=np.int64)
    n_latent = int(int_count.sum())
    draw_lo = np.repeat([lo for lo, _, _ in intervals], int_count)
    draw_hi = np.repeat([hi for _, hi, _ in intervals], int_count)
    latent_sum_of = _IntervalSums(int_count)

    omega = float(max(total, 1) * 1.2 + 1.0)
    beta = 2.0 * alpha0 / horizon

    samples = np.empty((settings.n_samples, 2))
    residual_trace = np.empty(settings.n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        latent_sum = 0.0
        if n_latent:
            draws = truncated_gamma_from_uniform(
                draw_lo, draw_hi, alpha0, beta, rng.random(n_latent)
            )
            latent_sum = latent_sum_of(draws)
            variates += n_latent

        if collapsed:
            tail_prob = math.exp(-beta * horizon)
        else:
            tail_prob = float(sc.gammaincc(alpha0, beta * horizon))
        residual = int(rng.poisson(omega * tail_prob))
        variates += 1

        omega = float(
            rng.gamma(shape=m_omega + total + residual, scale=1.0 / (phi_omega + 1.0))
        )
        variates += 1

        if collapsed:
            rate = phi_beta + latent_sum + residual * horizon
            beta = float(rng.gamma(shape=m_beta + total * alpha0, scale=1.0 / rate))
            variates += 1
        else:
            tail_sum = 0.0
            if residual > 0:
                tail_times = sample_censored_gamma(
                    horizon, alpha0, beta, residual, rng
                )
                tail_sum = float(tail_times.sum())
                variates += residual
            rate = phi_beta + latent_sum + tail_sum
            shape = m_beta + (total + residual) * alpha0
            beta = float(rng.gamma(shape=shape, scale=1.0 / rate))
            variates += 1

        index = sweep - settings.burn_in
        if index >= 0 and (index + 1) % settings.thin == 0 and kept < settings.n_samples:
            samples[kept, 0] = omega
            samples[kept, 1] = beta
            residual_trace[kept] = residual
            kept += 1
    _check_kept(kept, settings)
    extra = {
        "sampler": "gibbs-data-augmentation",
        "alpha0": alpha0,
        "collapsed_tail": collapsed,
        "residual_trace": residual_trace,
    }
    record_sampler_telemetry("gibbs-data-augmentation", samples, variates)
    if sp.collecting:
        extra["telemetry"] = sp.telemetry()
    return MCMCResult(
        samples=samples,
        settings=settings,
        variate_count=variates,
        extra=extra,
    )


def _gibbs_grouped_inverse(
    data: GroupedData,
    prior: ModelPrior,
    alpha0: float,
    settings: ChainSettings,
    rng: np.random.Generator,
    sp,
) -> MCMCResult:
    """Scalar reference sampler on the inverse-CDF variate layer.

    Same data-augmentation sweep as :func:`_gibbs_grouped`, with every
    variate mapped from the generator's raw uniform stream through the
    inverse-CDF layer — the single-lane ground truth for
    :func:`repro.bayes.mcmc.lane_engine.gibbs_grouped_lanes`. Latent
    sums use the canonical :func:`~repro.stats.uniforms.segment_sums`
    reduction over the lane's whole latent block, matching the engine's
    per-lane reduction bit for bit.
    """
    intervals = [item for item in data.intervals() if item[2] > 0]
    total = float(data.total_count)
    horizon = data.horizon
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    int_count = np.array([count for _, _, count in intervals], dtype=np.intp)
    n_latent = int(int_count.sum())
    if intervals:
        draw_lo = np.repeat(np.array([lo for lo, _, _ in intervals]), int_count)
        draw_hi = np.repeat(np.array([hi for _, hi, _ in intervals]), int_count)
    else:
        draw_lo = np.empty(0)
        draw_hi = np.empty(0)
    latent_counts = np.array([n_latent], dtype=np.intp)

    floor_total = max(total, 1.0)
    omega = np.array([floor_total * 1.2 + 1.0])
    beta = np.full(1, 2.0 * alpha0) / horizon

    shape_omega_base = m_omega + total
    shape_beta = np.full(1, m_beta + total * alpha0) if collapsed else None
    log_gamma_shape_beta = sc.gammaln(shape_beta) if collapsed else None

    stream = UniformLaneStream([rng])
    samples = np.empty((settings.n_samples, 2))
    residual_trace = np.empty(settings.n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        latent_u = stream.take_ragged(latent_counts)
        latent_sum = np.zeros(1)
        if n_latent:
            latent_draws = truncated_gamma_from_uniform(
                draw_lo, draw_hi, alpha0, np.full(n_latent, beta[0]), latent_u
            )
            latent_sum[0] = segment_sums(latent_draws, np.array([0]))[0]
            variates += n_latent

        u = stream.take_block(2)
        if collapsed:
            tail_prob = np.exp(-beta * horizon)
        else:
            tail_prob = sc.gammaincc(alpha0, beta * horizon)
        residual = poisson_from_uniform(u[:, 0], omega * tail_prob)
        variates += 3

        shape_omega = shape_omega_base + residual
        omega = gamma_from_uniform(shape_omega, u[:, 1]) / (phi_omega + 1.0)

        if collapsed:
            u_beta = stream.take_block(1)
            rate_beta = phi_beta + latent_sum + residual * horizon
            beta = (
                gamma_from_uniform(
                    shape_beta, u_beta[:, 0], log_gamma_shape=log_gamma_shape_beta
                )
                / rate_beta
            )
        else:
            count = int(residual[0])
            tail_u = stream.take_ragged(residual)
            tail_sum = np.zeros(1)
            if count:
                tail_draws = censored_gamma_from_uniform(
                    np.full(count, horizon),
                    alpha0,
                    np.full(count, beta[0]),
                    tail_u,
                )
                tail_sum[0] = segment_sums(tail_draws, np.array([0]))[0]
                variates += count
            u_beta = stream.take_block(1)
            rate_beta = phi_beta + latent_sum + tail_sum
            shape_b = m_beta + (total + residual) * alpha0
            beta = gamma_from_uniform(shape_b, u_beta[:, 0]) / rate_beta

        index = sweep - settings.burn_in
        if index >= 0 and (index + 1) % settings.thin == 0:
            samples[kept, 0] = omega[0]
            samples[kept, 1] = beta[0]
            residual_trace[kept] = residual[0]
            kept += 1
    _check_kept(kept, settings)
    extra = {
        "sampler": "gibbs-data-augmentation",
        "alpha0": alpha0,
        "collapsed_tail": collapsed,
        "residual_trace": residual_trace,
    }
    record_sampler_telemetry("gibbs-data-augmentation", samples, variates)
    if sp.collecting:
        extra["telemetry"] = sp.telemetry()
    return MCMCResult(
        samples=samples,
        settings=settings,
        variate_count=variates,
        extra=extra,
    )
