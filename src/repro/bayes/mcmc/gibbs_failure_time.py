"""Kuo–Yang Gibbs sampler for failure-time data (paper Eqs. 9–11).

For the Goel–Okumoto member (``α0 = 1``) the sweep uses exactly three
elementary variates, matching the cost accounting of the paper's
Table 6 (3 x (10000 + 10 x 20000) = 630000 variates for the default
schedule):

1. residual fault count  ``N̄ | ω, β ~ Poisson(ω S̄(t_e; α0, β))``
2. ``ω | N̄ ~ Gamma(m_ω + m_e + N̄, φ_ω + 1)``
3. ``β | N̄ ~ Gamma(m_β + m_e, φ_β + Σ t_i + N̄ t_e)``
   (the residual faults enter through their survival factor — valid
   only for exponential lifetimes).

For general ``α0`` step 3 is replaced by data augmentation of the
``N̄`` censored lifetimes followed by the conjugate gamma draw.
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
from repro.bayes.priors import ModelPrior
from repro.data.failure_data import FailureTimeData
from repro.stats.truncated import sample_censored_gamma

__all__ = ["gibbs_failure_time"]


def gibbs_failure_time(
    data: FailureTimeData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    settings: ChainSettings | None = None,
    rng: np.random.Generator | None = None,
) -> MCMCResult:
    """Run the Kuo–Yang Gibbs sampler on failure-time data.

    Parameters
    ----------
    data:
        Observed failure times with horizon ``t_e``.
    prior:
        Independent gamma priors (possibly improper).
    alpha0:
        Lifetime shape of the gamma-type family.
    settings:
        Burn-in / thinning schedule; defaults to the paper's.
    rng:
        Random generator; seeded from ``settings.seed`` when omitted.
    """
    settings = settings or ChainSettings()
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    with obs.span("mcmc.gibbs_failure_time", collect=True) as sp:
        return _gibbs_failure_time(data, prior, alpha0, settings, rng, sp)


def _gibbs_failure_time(
    data: FailureTimeData,
    prior: ModelPrior,
    alpha0: float,
    settings: ChainSettings,
    rng: np.random.Generator,
    sp,
) -> MCMCResult:
    me = data.count
    horizon = data.horizon
    sum_times = data.total_time
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    # Sweep invariants, hoisted: each sum is the left operand the sweep's
    # own expression would form first, so the chain is unchanged bit
    # for bit.
    omega_shape = m_omega + me
    omega_scale = 1.0 / (phi_omega + 1.0)
    beta_rate = phi_beta + sum_times
    beta_shape = m_beta + me * alpha0
    burn_in, thin, n_samples = settings.burn_in, settings.thin, settings.n_samples

    # Initial state: crude moment-style guesses; burn-in washes them out.
    omega = float(max(me, 1) * 1.2 + 1.0)
    beta = alpha0 * max(me, 1) / (sum_times + max(me, 1) * horizon)

    samples = np.empty((n_samples, 2))
    residual_trace = np.empty(n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        if collapsed:
            tail_prob = math.exp(-beta * horizon)
        else:
            tail_prob = float(sc.gammaincc(alpha0, beta * horizon))
        residual = int(rng.poisson(omega * tail_prob))
        variates += 1

        omega = float(rng.gamma(shape=omega_shape + residual, scale=omega_scale))
        variates += 1

        if collapsed:
            rate = beta_rate + residual * horizon
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
            rate = beta_rate + tail_sum
            shape = m_beta + (me + residual) * alpha0
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
        "sampler": "gibbs-kuo-yang",
        "alpha0": alpha0,
        "collapsed_tail": collapsed,
        "residual_trace": residual_trace,
    }
    record_sampler_telemetry("gibbs-kuo-yang", samples, variates)
    if sp.collecting:
        extra["telemetry"] = sp.telemetry()
    return MCMCResult(
        samples=samples,
        settings=settings,
        variate_count=variates,
        extra=extra,
    )


def _check_kept(kept: int, settings: ChainSettings) -> None:
    """The schedule is validated to keep exactly ``n_samples`` draws
    (:class:`ChainSettings`); a mismatch here means the keep rule and
    the validation diverged, so fail loudly instead of returning a
    silently truncated sample array."""
    if kept != settings.n_samples:
        raise RuntimeError(
            f"sweep loop kept {kept} draws but the schedule promises "
            f"{settings.n_samples}; keep rule and ChainSettings "
            "validation are out of sync"
        )

