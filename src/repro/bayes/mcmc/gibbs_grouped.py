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

    Each sweep draws all latent failure times through one
    :func:`~repro.stats.truncated.truncated_gamma_from_uniform` call on
    one ``rng.random`` block. At ``alpha0 = 1`` the latent times are the
    memoryless closed-form inversion and the tail probability is
    ``exp(-β t_e)``; no special function is called in the sweep.
    """
    settings = settings or ChainSettings()
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    with obs.span("mcmc.gibbs_grouped", collect=True) as sp:
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

