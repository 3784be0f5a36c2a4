"""VB1: the fully factorised variational Bayes baseline.

This is the method of Okamura, Sakoh & Dohi (2006) that the paper
improves upon: the variational posterior assumes *complete* independence
``Pv(U, µ) = Pv(U) Pv(µ)`` (paper Eq. 15), so the latent data carries no
information into the joint shape of ``(ω, β)``. The resulting posterior
is a single product of gamma densities — it cannot represent the
negative correlation between ``ω`` and ``β`` (``Cov = 0`` in the
paper's Table 1 by construction) and underestimates the variances,
giving interval estimates that are too narrow.

Mean-field updates (derived in the module tests from the complete-data
likelihood, generalised to shape ``α0`` and to grouped data):

* ``q(ω) = Gamma(m_ω + E[N], φ_ω + 1)``
* ``q(β) = Gamma(m_β + E[N] α0, φ_β + ζ)``
* residual fault count ``N - m ~ Poisson(λ*)`` with
  ``λ* = e^{E[ln ω]} (e^{E[ln β]} / ξ)^{α0} S̄(t_cut; α0, ξ)``
* ``ζ`` = expected total lifetime under truncated/censored gamma laws
  with rate ``ξ = E[β]``.

Note the tell-tale difference from VB2: the latent-count distribution
uses ``e^{E[ln ω]}`` (a *point* summary of ``q(ω)``) instead of
conditioning the parameter posterior on ``N``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import apply_sandwich
from repro.core.config import VBConfig
from repro.core.posterior import VBPosterior
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import ConvergenceError
from repro.stats.gamma_dist import GammaDistribution, gamma_kl_divergence
from repro.stats.special import (
    digamma,
    log_gamma_cdf_increment,
    log_gamma_fn,
    log_gamma_sf,
)
from repro.stats.truncated import censored_gamma_mean, truncated_gamma_mean

__all__ = ["fit_vb1"]


def fit_vb1(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    config: VBConfig | None = None,
) -> VBPosterior:
    """Fit the fully factorised VB1 posterior.

    Returns a one-component :class:`VBPosterior` (product of gammas)
    with ``method_name = "VB1"`` and diagnostics ``{"expected_n",
    "lambda_star", "iterations"}`` (plus a ``telemetry`` summary when
    an obs collector is active).
    """
    if alpha0 <= 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    config = config or VBConfig()
    with obs.span("vb1.fit", collect=True, data=type(data).__name__) as sp:
        posterior = _fit_vb1(data, prior, alpha0, config, sp)
    if config.variance_correction == "sandwich":
        return apply_sandwich(posterior, data, alpha0=alpha0)
    return posterior


def _fit_vb1(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float,
    config: VBConfig,
    sp,
) -> VBPosterior:

    if isinstance(data, FailureTimeData):
        observed = data.count
        cut = data.horizon
        sum_observed = data.total_time
        intervals: list[tuple[float, float, int]] = []
    elif isinstance(data, GroupedData):
        observed = data.total_count
        cut = data.horizon
        sum_observed = 0.0
        intervals = [item for item in data.intervals() if item[2] > 0]
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")
    if observed == 0 and not prior.is_proper:
        raise ConvergenceError(
            "VB1 needs either observed failures or proper priors"
        )

    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate

    # Interval geometry as arrays: one broadcast truncated-mean call per
    # zeta evaluation instead of one scalar special-function call per
    # interval. The per-interval products are still accumulated in
    # interval order, so the sum is bit-identical to the scalar loop.
    int_lo = np.array([lo for lo, _, _ in intervals])
    int_hi = np.array([hi for _, hi, _ in intervals])
    int_count = np.array([count for _, _, count in intervals])

    def zeta_of(xi: float, lam: float) -> float:
        total = sum_observed
        if int_count.size:
            terms = int_count * truncated_gamma_mean(int_lo, int_hi, alpha0, xi)
            for term in terms:
                total += term
        if lam > 0.0:
            total += lam * censored_gamma_mean(cut, alpha0, xi)
        return total

    warm = config.warm_start
    if warm is not None and float(warm.alpha0) != float(alpha0):
        raise ValueError(
            f"warm_start was extracted at alpha0={warm.alpha0:g} but this "
            f"fit uses alpha0={alpha0:g}; warm seeds only transfer within "
            f"one gamma shape"
        )
    lam = max(0.1 * observed, 1.0)
    xi = None
    if warm is not None:
        # Seed the outer residual intensity and the inner rate mean from
        # the previous fit; both loops then start next to their fixed
        # points instead of at the cold defaults. Seeds change the
        # iteration path only, never the converged values.
        if warm.lam > 0.0 and math.isfinite(warm.lam):
            lam = warm.lam
        if warm.xi_mean > 0.0 and math.isfinite(warm.xi_mean):
            xi = warm.xi_mean
    lam_history: list[float] = []
    inner_iterations = 0
    aitken_accepted = 0
    for iteration in range(1, config.fixed_point_max_iter + 1):
        expected_n = observed + lam
        a_omega = m_omega + expected_n
        b_omega = phi_omega + 1.0
        a_beta = m_beta + expected_n * alpha0
        # zeta depends on xi which depends on zeta: inner fixed point.
        xi_inner = a_beta / (phi_beta + zeta_of(1.0 / max(cut, 1.0), lam)) if xi is None else xi
        for _ in range(config.fixed_point_max_iter):
            zeta = zeta_of(xi_inner, lam)
            xi_new = a_beta / (phi_beta + zeta)
            inner_iterations += 1
            if abs(xi_new - xi_inner) <= config.fixed_point_rtol * xi_new:
                xi_inner = xi_new
                break
            xi_inner = xi_new
        xi = xi_inner
        zeta = zeta_of(xi, lam)
        b_beta = phi_beta + zeta
        # Transcendentals via the numpy ufuncs (not math.*): the fleet
        # driver replays this iteration with per-dataset lanes, and the
        # libm behind math.log/exp is not guaranteed to agree with
        # numpy's to the last ulp. Same ufuncs on 0-d and 1-d inputs
        # ARE guaranteed identical, which is what the lane-vs-scalar
        # bit-identity contract needs.
        log_u = float(digamma(a_omega)) - float(np.log(b_omega))
        log_v = float(digamma(a_beta)) - float(np.log(b_beta))
        log_lam = (
            log_u
            + alpha0 * (log_v - float(np.log(xi)))
            + log_gamma_sf(cut, alpha0, xi)
        )
        lam_new = float(np.exp(log_lam))
        if abs(lam_new - lam) <= config.fixed_point_rtol * max(lam_new, 1e-300):
            lam = lam_new
            break
        lam = lam_new
        # Aitken acceleration of the slowly contracting outer sequence
        # (extreme diffuse priors can push the contraction factor near 1).
        # Only applied when the sequence is actually contracting —
        # during a transient growth phase (step ratio >= 1) the
        # extrapolation would aim at the repelling fixed point instead.
        lam_history.append(lam)
        if config.use_aitken and len(lam_history) >= 3:
            l0, l1, l2 = lam_history[-3:]
            step0 = l1 - l0
            step1 = l2 - l1
            contracting = step0 != 0.0 and abs(step1) < abs(step0)
            denom = step1 - step0
            if contracting and denom != 0.0:
                accelerated = l0 - step0**2 / denom
                if accelerated > 0.0 and math.isfinite(accelerated):
                    lam = accelerated
                    aitken_accepted += 1
            lam_history.clear()
    else:
        if obs.enabled():
            obs.counter_add("vb1.failures")
            obs.event(
                "vb1.divergence",
                outer_iterations=config.fixed_point_max_iter,
                lambda_star=lam,
            )
        raise ConvergenceError(
            f"VB1 did not converge within {config.fixed_point_max_iter} outer "
            f"iterations (last lambda* = {lam:.6g})",
            iterations=config.fixed_point_max_iter,
        )

    expected_n = observed + lam
    a_omega = m_omega + expected_n
    b_omega = phi_omega + 1.0
    a_beta = m_beta + expected_n * alpha0
    zeta = zeta_of(xi, lam)
    b_beta = phi_beta + zeta
    q_omega = GammaDistribution(a_omega, b_omega)
    q_beta = GammaDistribution(a_beta, b_beta)

    elbo = None
    if prior.is_proper:
        elbo = _vb1_elbo(
            data, prior, alpha0, q_omega, q_beta, xi, lam, observed, cut
        )

    diagnostics = {
        "expected_n": expected_n,
        "lambda_star": lam,
        "iterations": iteration,
        "alpha0": alpha0,
        "data_kind": type(data).__name__,
        "warm_started": warm is not None,
    }
    if obs.enabled():
        obs.observe("vb1.outer_iterations", iteration)
        obs.observe("vb1.inner_iterations", inner_iterations)
        obs.observe("vb1.lambda_star", lam)
        if warm is not None:
            obs.counter_add("vb1.warm_fits")
            obs.observe("vb1.warm.outer_iterations", iteration)
        obs.fit_health(
            "VB1", iterations=iteration, elbo=elbo, lambda_star=lam,
            warm_start=float(warm is not None),
        )
        if aitken_accepted:
            obs.counter_add("vb1.aitken_accepted", aitken_accepted)
        if sp.collecting:
            diagnostics["telemetry"] = sp.telemetry()
    return VBPosterior(
        n_values=[expected_n],
        weights=[1.0],
        omega_components=[q_omega],
        beta_components=[q_beta],
        method_name="VB1",
        elbo=elbo,
        diagnostics=diagnostics,
    )


def _vb1_elbo(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float,
    q_omega: GammaDistribution,
    q_beta: GammaDistribution,
    xi: float,
    lam: float,
    observed: int,
    cut: float,
) -> float:
    """Variational lower bound at the VB1 fixed point.

    ``F = log Z_TN - KL(q(ω) || p(ω)) - KL(q(β) || p(β))`` where
    ``Z_TN`` is the normaliser of the optimal latent posterior
    ``q(T, N) ∝ exp(E_µ[log P(D, T, N | µ)])``.
    """
    log_u = q_omega.mean_log
    log_v = q_beta.mean_log
    log_z = -q_omega.mean + lam
    if isinstance(data, FailureTimeData):
        log_z += observed * (
            log_u + alpha0 * log_v - float(log_gamma_fn(alpha0))
        )
        log_z += (alpha0 - 1.0) * data.sum_log_times - xi * data.total_time
    else:
        log_z += observed * (log_u + alpha0 * (log_v - math.log(xi)))
        occupied = [item for item in data.intervals() if item[2] > 0]
        if occupied:
            lo_arr = np.array([lo for lo, _, _ in occupied])
            hi_arr = np.array([hi for _, hi, _ in occupied])
            count_arr = np.array([count for _, _, count in occupied])
            incs = count_arr * log_gamma_cdf_increment(
                lo_arr, hi_arr, alpha0, xi
            )
            norms = log_gamma_fn(count_arr + 1.0)
            for i in range(count_arr.size):
                log_z += incs[i]
                log_z -= float(norms[i])
    prior_omega = GammaDistribution(prior.omega.shape, prior.omega.rate)
    prior_beta = GammaDistribution(prior.beta.shape, prior.beta.rate)
    return (
        log_z
        - gamma_kl_divergence(q_omega, prior_omega)
        - gamma_kl_divergence(q_beta, prior_beta)
    )
