"""VB1: the fully factorised variational Bayes baseline.

This is the method of Okamura, Sakoh & Dohi (2006) that the paper
improves upon: the variational posterior assumes *complete* independence
``Pv(U, µ) = Pv(U) Pv(µ)`` (paper Eq. 15), so the latent data carries no
information into the joint shape of ``(ω, β)``. The resulting posterior
is a single product of gamma densities — it cannot represent the
negative correlation between ``ω`` and ``β`` (``Cov = 0`` in the
paper's Table 1 by construction) and underestimates the variances,
giving interval estimates that are too narrow.

Mean-field updates (from the complete-data likelihood, generalised to
shape ``α0`` and to grouped data; ``tests/core/test_vb1.py`` checks the
returned posteriors against them):

* ``q(ω) = Gamma(m_ω + E[N], φ_ω + 1)``
* ``q(β) = Gamma(m_β + E[N] α0, φ_β + ζ)``
* residual fault count ``N - m ~ Poisson(λ*)`` with
  ``λ* = e^{E[ln ω]} (e^{E[ln β]} / ξ)^{α0} S̄(t_cut; α0, ξ)``
* ``ζ`` = expected total lifetime under truncated/censored gamma laws
  with rate ``ξ = E[β]``.

Note the tell-tale difference from VB2: the latent-count distribution
uses ``e^{E[ln ω]}`` (a *point* summary of ``q(ω)``) instead of
conditioning the parameter posterior on ``N``.

The outer λ/ξ iteration is one lock-step lane driver
(:func:`_drive_vb1_group`) shared by :func:`fit_vb1` and
:func:`repro.core.fleet.fit_vb1_fleet`: a lane is a dataset, and a
single fit is the one-dataset case of the fleet sweep.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.posterior import VBPosterior
from repro.core.vb2 import _check_alpha0
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
    _check_alpha0(alpha0)
    config = config or VBConfig()
    warm = config.warm_start
    with obs.span("vb1.fit", collect=True, data=type(data).__name__) as sp:
        (lane,), inner_iterations = _drive_vb1_group(
            [data], [prior], alpha0, config, [warm]
        )
        _, _, elbo, diagnostics = lane
        if obs.enabled():
            iteration = diagnostics["iterations"]
            lam = diagnostics["lambda_star"]
            obs.observe("vb1.outer_iterations", iteration)
            obs.observe("vb1.inner_iterations", inner_iterations)
            obs.observe("vb1.lambda_star", lam)
            if warm is not None:
                obs.counter_add("vb1.warm_fits")
                obs.observe("vb1.warm.outer_iterations", iteration)
            if elbo is not None:
                obs.observe("vb1.elbo", elbo)
            if sp.collecting:
                diagnostics["telemetry"] = sp.telemetry()
    return _vb1_posterior(lane)


def _drive_vb1_group(group_data, group_priors, alpha0, config, group_warms,
                     *, indices=None, on_done=None):
    """Lock-step VB1 outer iteration for the datasets of one ``alpha0``.

    Each dataset is a lane: lanes freeze individually on outer
    convergence and share one Aitken phase (valid because every
    still-active lane appends to its history at exactly the same
    iterations). ``indices`` are the datasets' fleet positions, or
    ``None`` for a single fit, whose errors and events then carry no
    ``dataset`` tag; ``on_done`` is called once per converged lane.

    Returns ``(lanes, inner_iterations)``: one ``(q_omega, q_beta,
    elbo, diagnostics)`` per dataset, and the inner ξ updates summed
    over lanes.
    """
    lanes = len(group_data)

    def where(pos: int) -> str:
        return "" if indices is None else f"dataset {indices[pos]}: "

    observed = np.empty(lanes)
    cut = np.empty(lanes)
    sum_observed = np.empty(lanes)
    lane_parts, lo_parts, hi_parts, count_parts = [], [], [], []
    for pos, data in enumerate(group_data):
        if isinstance(data, FailureTimeData):
            observed[pos] = data.count
            cut[pos] = data.horizon
            sum_observed[pos] = data.total_time
        elif isinstance(data, GroupedData):
            observed[pos] = data.total_count
            cut[pos] = data.horizon
            sum_observed[pos] = 0.0
            occupied = [item for item in data.intervals() if item[2] > 0]
            if occupied:
                lane_parts.append(np.full(len(occupied), pos, dtype=np.intp))
                lo_parts.append(np.array([lo for lo, _, _ in occupied]))
                hi_parts.append(np.array([hi for _, hi, _ in occupied]))
                count_parts.append(
                    np.array([float(c) for _, _, c in occupied])
                )
        else:
            raise TypeError(f"unsupported data type: {type(data).__name__}")
        if observed[pos] == 0 and not group_priors[pos].is_proper:
            raise ConvergenceError(
                f"{where(pos)}VB1 needs either observed failures or "
                f"proper priors"
            )
        warm = group_warms[pos]
        if warm is not None and float(warm.alpha0) != float(alpha0):
            raise ValueError(
                f"{where(pos)}warm_start was extracted at "
                f"alpha0={warm.alpha0:g} but this fit uses "
                f"alpha0={alpha0:g}; warm seeds only transfer within one "
                f"gamma shape"
            )
    pair_lane = (
        np.concatenate(lane_parts) if lane_parts
        else np.empty(0, dtype=np.intp)
    )
    pair_lo = np.concatenate(lo_parts) if lo_parts else np.empty(0)
    pair_hi = np.concatenate(hi_parts) if hi_parts else np.empty(0)
    pair_count = np.concatenate(count_parts) if count_parts else np.empty(0)

    m_omega = np.array([p.omega.shape for p in group_priors])
    phi_omega = np.array([p.omega.rate for p in group_priors])
    m_beta = np.array([p.beta.shape for p in group_priors])
    phi_beta = np.array([p.beta.rate for p in group_priors])

    def zeta_of(rate: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # Expected total lifetime: an in-order scatter-add of the
        # interval terms onto the per-lane base, so each lane's sum is
        # its own left-to-right interval sum whatever lanes share it.
        total = sum_observed.copy()
        if pair_lane.size:
            terms = pair_count * truncated_gamma_mean(
                pair_lo, pair_hi, alpha0, rate[pair_lane]
            )
            np.add.at(total, pair_lane, terms)
        positive = lam > 0.0
        if np.any(positive):
            total[positive] = total[positive] + lam[positive] * (
                censored_gamma_mean(
                    cut[positive], alpha0, rate[positive]
                )
            )
        return total

    lam = np.maximum(0.1 * observed, 1.0)
    xi = np.empty(lanes)
    # Per-lane warm seeds: a valid cached lam replaces the cold default,
    # a valid cached xi_mean pre-seeds the first inner solve. Seeds
    # change the iteration path only, never the converged values.
    xi_seeded = np.zeros(lanes, dtype=bool)
    xi_seed_values = np.empty(lanes)
    for pos, w in enumerate(group_warms):
        if w is None:
            continue
        if w.lam > 0.0 and np.isfinite(w.lam):
            lam[pos] = w.lam
        if w.xi_mean > 0.0 and np.isfinite(w.xi_mean):
            xi_seeded[pos] = True
            xi_seed_values[pos] = w.xi_mean
    frozen = np.zeros(lanes, dtype=bool)
    iterations_out = np.zeros(lanes, dtype=np.int64)
    seed_rate = 1.0 / np.maximum(cut, 1.0)
    hist = np.empty((3, lanes))
    phase = 0
    aitken_accepted = 0
    inner_total = 0
    rtol = config.fixed_point_rtol
    for iteration in range(1, config.fixed_point_max_iter + 1):
        active = ~frozen
        expected_n = observed + lam
        a_omega = m_omega + expected_n
        b_omega = phi_omega + 1.0
        a_beta = m_beta + expected_n * alpha0
        # zeta depends on xi which depends on zeta: inner fixed point.
        if iteration == 1:
            xi_inner = a_beta / (phi_beta + zeta_of(seed_rate, lam))
            if np.any(xi_seeded):
                xi_inner = np.where(xi_seeded, xi_seed_values, xi_inner)
        else:
            xi_inner = xi.copy()
        inner_frozen = frozen.copy()
        for _ in range(config.fixed_point_max_iter):
            if inner_frozen.all():
                break
            zeta = zeta_of(xi_inner, lam)
            xi_new = a_beta / (phi_beta + zeta)
            live = ~inner_frozen
            inner_total += int(live.sum())
            done = live & (np.abs(xi_new - xi_inner) <= rtol * xi_new)
            xi_inner = np.where(live, xi_new, xi_inner)
            inner_frozen |= done
        xi = np.where(active, xi_inner, xi)
        zeta = zeta_of(xi, lam)
        b_beta = phi_beta + zeta
        log_u = digamma(a_omega) - np.log(b_omega)
        log_v = digamma(a_beta) - np.log(b_beta)
        log_lam = (
            log_u
            + alpha0 * (log_v - np.log(xi))
            + log_gamma_sf(cut, alpha0, xi)
        )
        lam_new = np.exp(log_lam)
        conv = active & (
            np.abs(lam_new - lam) <= rtol * np.maximum(lam_new, 1e-300)
        )
        lam = np.where(active, lam_new, lam)
        iterations_out[conv] = iteration
        frozen |= conv
        if on_done is not None:
            for _ in range(int(conv.sum())):
                on_done()
        if frozen.all():
            break
        # Aitken acceleration of the slowly contracting outer sequence
        # (extreme diffuse priors can push the contraction factor near
        # 1), applied only where the sequence is actually contracting:
        # during a transient growth phase (step ratio >= 1) the
        # extrapolation would aim at the repelling fixed point instead.
        # One phase counter serves every lane, since every still-active
        # lane has appended at exactly the same iterations since the
        # last clear (lanes that froze mid-cycle never read their stale
        # history rows again).
        hist[phase] = lam
        phase += 1
        if phase == 3:
            l0, l1, l2 = hist[0], hist[1], hist[2]
            step0 = l1 - l0
            step1 = l2 - l1
            contracting = (step0 != 0.0) & (np.abs(step1) < np.abs(step0))
            denom = step1 - step0
            ok = ~frozen & contracting & (denom != 0.0)
            if np.any(ok):
                with np.errstate(
                    invalid="ignore", divide="ignore", over="ignore"
                ):
                    accelerated = l0 - step0**2 / denom
                accept = ok & (accelerated > 0.0)
                accept &= np.isfinite(accelerated)
                lam = np.where(accept, accelerated, lam)
                aitken_accepted += int(accept.sum())
            phase = 0
    if not frozen.all():
        lane = int(np.argmax(~frozen))
        tags = {} if indices is None else {"dataset": indices[lane]}
        if obs.enabled():
            obs.counter_add("vb1.failures")
            obs.event(
                "vb1.divergence",
                **tags,
                outer_iterations=config.fixed_point_max_iter,
                lambda_star=float(lam[lane]),
            )
        raise ConvergenceError(
            f"{where(lane)}VB1 did not converge within "
            f"{config.fixed_point_max_iter} outer iterations "
            f"(last lambda* = {lam[lane]:.6g})",
            iterations=config.fixed_point_max_iter,
        )
    if obs.enabled() and aitken_accepted:
        obs.counter_add("vb1.aitken_accepted", aitken_accepted)

    expected_n = observed + lam
    a_omega = m_omega + expected_n
    b_omega = phi_omega + 1.0
    a_beta = m_beta + expected_n * alpha0
    zeta = zeta_of(xi, lam)
    b_beta = phi_beta + zeta

    results = []
    for pos, data in enumerate(group_data):
        prior = group_priors[pos]
        q_omega = GammaDistribution(float(a_omega[pos]), float(b_omega[pos]))
        q_beta = GammaDistribution(float(a_beta[pos]), float(b_beta[pos]))
        elbo = None
        if prior.is_proper:
            elbo = _vb1_elbo(
                data, prior, alpha0, q_omega, q_beta,
                float(xi[pos]), float(lam[pos]),
                int(observed[pos]), float(cut[pos]),
            )
        diagnostics = {
            "expected_n": float(expected_n[pos]),
            "lambda_star": float(lam[pos]),
            "iterations": int(iterations_out[pos]),
            "alpha0": alpha0,
            "data_kind": type(data).__name__,
            "warm_started": group_warms[pos] is not None,
        }
        results.append((q_omega, q_beta, elbo, diagnostics))
    return results, inner_total


def _vb1_posterior(lane) -> VBPosterior:
    """One lane's ``(q_omega, q_beta, elbo, diagnostics)`` as a
    posterior."""
    q_omega, q_beta, elbo, diagnostics = lane
    return VBPosterior(
        n_values=[diagnostics["expected_n"]],
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
