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
from repro.stats.gamma_dist import gamma_from_uniform
from repro.stats.poisson import poisson_from_uniform
from repro.stats.truncated import (
    censored_gamma_from_uniform,
    sample_censored_gamma,
)
from repro.stats.uniforms import UniformLaneStream, segment_sums

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
        Burn-in / thinning schedule; defaults to the paper's. With
        ``variate_layer="inverse"`` the chain consumes the generator's
        raw uniform stream through the explicit inverse-CDF layer —
        the scalar reference for the lane-parallel engine
        (:func:`repro.bayes.mcmc.lane_engine.gibbs_failure_time_lanes`),
        bit-identical to a lane of a batched run.
    rng:
        Random generator; seeded from ``settings.seed`` when omitted.
    """
    settings = settings or ChainSettings()
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    with obs.span("mcmc.gibbs_failure_time", collect=True) as sp:
        if settings.variate_layer == "inverse":
            return _gibbs_failure_time_inverse(
                data, prior, alpha0, settings, rng, sp
            )
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

    # Initial state: crude moment-style guesses; burn-in washes them out.
    omega = float(max(me, 1) * 1.2 + 1.0)
    beta = alpha0 * max(me, 1) / (sum_times + max(me, 1) * horizon)

    samples = np.empty((settings.n_samples, 2))
    residual_trace = np.empty(settings.n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        tail_prob = float(sc.gammaincc(alpha0, beta * horizon))
        residual = int(rng.poisson(omega * tail_prob))
        variates += 1

        omega = float(
            rng.gamma(shape=m_omega + me + residual, scale=1.0 / (phi_omega + 1.0))
        )
        variates += 1

        if collapsed:
            rate = phi_beta + sum_times + residual * horizon
            beta = float(rng.gamma(shape=m_beta + me * alpha0, scale=1.0 / rate))
            variates += 1
        else:
            tail_sum = 0.0
            if residual > 0:
                tail_times = sample_censored_gamma(
                    horizon, alpha0, beta, residual, rng
                )
                tail_sum = float(tail_times.sum())
                variates += residual
            rate = phi_beta + sum_times + tail_sum
            shape = m_beta + (me + residual) * alpha0
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


def _gibbs_failure_time_inverse(
    data: FailureTimeData,
    prior: ModelPrior,
    alpha0: float,
    settings: ChainSettings,
    rng: np.random.Generator,
    sp,
) -> MCMCResult:
    """Scalar reference sampler on the inverse-CDF variate layer.

    The same Kuo–Yang sweep as :func:`_gibbs_failure_time`, but every
    variate is produced by mapping the generator's raw uniform stream
    (via :class:`~repro.stats.uniforms.UniformLaneStream`, one lane)
    through the explicit inverse-CDF layer in :mod:`repro.stats` — the
    exact representation the lane engine batches. This loop is the
    engine's single-lane ground truth: the identity tests assert
    bit-equality between it and the corresponding lane of a batched
    run, which makes the batched/scalar agreement check non-vacuous.
    """
    me = float(data.count)
    horizon = data.horizon
    sum_times = data.total_time
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    floor_me = max(me, 1.0)
    omega = np.array([floor_me * 1.2 + 1.0])
    beta = np.array([alpha0 * floor_me / (sum_times + floor_me * horizon)])

    shape_omega_base = m_omega + me
    shape_beta = np.full(1, m_beta + me * alpha0) if collapsed else None
    log_gamma_shape_beta = sc.gammaln(shape_beta) if collapsed else None

    stream = UniformLaneStream([rng])
    samples = np.empty((settings.n_samples, 2))
    residual_trace = np.empty(settings.n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        if collapsed:
            u = stream.take_block(3)
            tail_prob = np.exp(-beta * horizon)
        else:
            u = stream.take_block(2)
            tail_prob = sc.gammaincc(alpha0, beta * horizon)
        residual = poisson_from_uniform(u[:, 0], omega * tail_prob)
        variates += 3

        shape_omega = shape_omega_base + residual
        omega = gamma_from_uniform(shape_omega, u[:, 1]) / (phi_omega + 1.0)

        if collapsed:
            rate_beta = phi_beta + sum_times + residual * horizon
            beta = (
                gamma_from_uniform(
                    shape_beta, u[:, 2], log_gamma_shape=log_gamma_shape_beta
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
            rate_beta = phi_beta + sum_times + tail_sum
            shape_b = m_beta + (me + residual) * alpha0
            beta = gamma_from_uniform(shape_b, u_beta[:, 0]) / rate_beta

        index = sweep - settings.burn_in
        if index >= 0 and (index + 1) % settings.thin == 0:
            samples[kept, 0] = omega[0]
            samples[kept, 1] = beta[0]
            residual_trace[kept] = residual[0]
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
