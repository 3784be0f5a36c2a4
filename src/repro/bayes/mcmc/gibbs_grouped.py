"""Data-augmentation Gibbs sampler for grouped data.

The paper (Section 6) handles grouped data by augmenting the latent
failure times inside each counting interval at every sweep (Tanner &
Wong 1987) — with ``m = Σ x_i`` observed failures and the three
parameter/count draws this costs ``m + 3`` variates per sweep,
matching Table 6's (3 + 38) x (10000 + 10 x 20000) = 8.61M variates.

Sweep structure:

1. latent times: for each interval ``(s_{i-1}, s_i]`` draw the ``x_i``
   failure times from the gamma lifetime law truncated to the interval
   (the β draw reads only their sum);
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
from repro.stats.truncated import (
    sample_censored_gamma,
    truncated_gamma_from_uniform,
)

__all__ = ["gibbs_grouped"]


def gibbs_grouped(
    data: GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    settings: ChainSettings | None = None,
    rng: np.random.Generator | None = None,
) -> MCMCResult:
    """Run the data-augmentation Gibbs sampler on grouped data.

    Each sweep draws its latent failure times from one ``rng.random``
    block and keeps only their sum. At ``alpha0 = 1`` the sum is the
    memoryless closed form ``Σ lo_j - Σ log1p(u_j expm1(-β w_j))/β``
    over draws ``j`` on intervals of width ``w_j``, and the tail
    probability is ``exp(-β t_e)``; no special function is called in
    the sweep. Otherwise the block maps through
    :func:`~repro.stats.truncated.truncated_gamma_from_uniform`.
    """
    settings = settings or ChainSettings()
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    with obs.span("mcmc.gibbs_grouped", collect=True) as sp:
        return _gibbs_grouped(data, prior, alpha0, settings, rng, sp)


def _latent_block(intervals, alpha0: float):
    """``(n, sum_of)``: the number of latent times a sweep draws and the
    map ``sum_of(u, beta)`` from its ``rng.random(n)`` block to their sum.

    The block holds one uniform per draw, each occupied interval's draws
    back to back in interval order: one double per draw, as per-interval
    ``rng.uniform`` calls take, so the variate stream and the Table 6
    counts are those of a per-interval loop. The β conditional reads only
    the sum. At ``alpha0 = 1`` memorylessness gives it in closed form,
    ``Σ lo_j - Σ log1p(u_j expm1(-β w_j))/β`` with ``w_j`` the width of
    draw ``j``'s interval and ``Σ lo_j`` fixed for the chain; otherwise
    the block maps through ``truncated_gamma_from_uniform`` and is summed
    once.
    """
    counts = np.array([count for _, _, count in intervals], dtype=np.int64)
    draw_lo = np.repeat([lo for lo, _, _ in intervals], counts)
    draw_hi = np.repeat([hi for _, hi, _ in intervals], counts)
    if alpha0 != 1.0:
        def sum_of(u: np.ndarray, beta: float) -> float:
            return float(
                truncated_gamma_from_uniform(draw_lo, draw_hi, alpha0, beta, u).sum()
            )
        return int(counts.sum()), sum_of

    lo_sum = float(draw_lo.sum())
    neg_width = draw_lo - draw_hi

    def sum_of(u: np.ndarray, beta: float) -> float:
        return lo_sum - float(np.log1p(u * np.expm1(beta * neg_width)).sum()) / beta

    return int(counts.sum()), sum_of


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

    n_latent, latent_sum_of = _latent_block(intervals, alpha0)
    omega_shape = m_omega + total
    omega_scale = 1.0 / (phi_omega + 1.0)
    beta_shape = m_beta + total * alpha0
    burn_in, thin, n_samples = settings.burn_in, settings.thin, settings.n_samples

    omega = float(max(total, 1) * 1.2 + 1.0)
    beta = 2.0 * alpha0 / horizon

    samples = np.empty((n_samples, 2))
    residual_trace = np.empty(n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        latent_sum = 0.0
        if n_latent:
            latent_sum = latent_sum_of(rng.random(n_latent), beta)
            variates += n_latent

        if collapsed:
            tail_prob = math.exp(-beta * horizon)
        else:
            tail_prob = float(sc.gammaincc(alpha0, beta * horizon))
        residual = int(rng.poisson(omega * tail_prob))
        variates += 1

        omega = float(rng.gamma(shape=omega_shape + residual, scale=omega_scale))
        variates += 1

        if collapsed:
            rate = phi_beta + latent_sum + residual * horizon
            beta = float(rng.gamma(shape=beta_shape, scale=1.0 / rate))
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

        index = sweep - burn_in
        if index >= 0 and (index + 1) % thin == 0 and kept < n_samples:
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

