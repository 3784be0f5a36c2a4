"""LAPL: Laplace approximation of the joint posterior (paper Section 4.2).

The joint posterior is approximated by a bivariate normal centred at
the MAP estimate with covariance equal to the inverse negative Hessian
of the log posterior at the MAP. That Hessian is exact: the analytic
observed information of the likelihood
(:func:`repro.bayes.sandwich.observed_information`) plus the gamma
prior's curvature ``(m - 1)/x²`` in each parameter. With flat priors
this reduces to the classical MLE confidence-interval construction of
Yamada & Osaki.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from repro import obs
from repro.bayes.normal_posterior import NormalPosterior
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import observed_information
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import EstimationError
from repro.models.gamma_srm import GammaSRM

__all__ = ["find_map", "fit_laplace", "log_posterior_fn"]


def log_posterior_fn(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float,
):
    """Return the scalar unnormalised log posterior ``(ω, β) -> float``."""

    def log_post(omega: float, beta: float) -> float:
        if omega <= 0.0 or beta <= 0.0:
            return -math.inf
        model = GammaSRM(omega=omega, beta=beta, alpha0=alpha0)
        value = model.log_likelihood(data)
        value += float(prior.omega.log_pdf(omega))
        value += float(prior.beta.log_pdf(beta))
        return value

    return log_post


def find_map(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    initial: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Maximum a-posteriori estimate of ``(ω, β)`` (paper Eq. 7).

    The search runs in log-parameter coordinates (pure reparametrisation
    of the domain — the objective value is the original log posterior,
    so the optimum is the genuine MAP of the original parametrisation).
    """
    log_post = log_posterior_fn(data, prior, alpha0)
    if initial is None:
        if isinstance(data, FailureTimeData):
            count, horizon = data.count, data.horizon
        else:
            count, horizon = data.total_count, data.horizon
        count = max(count, 1)
        initial = (1.25 * count, alpha0 / horizon)

    def negative(params: np.ndarray) -> float:
        return -log_post(math.exp(params[0]), math.exp(params[1]))

    x0 = np.log(np.asarray(initial, dtype=float))
    result = optimize.minimize(negative, x0, method="Nelder-Mead",
                               options={"xatol": 1e-12, "fatol": 1e-12,
                                        "maxiter": 20_000})
    polished = optimize.minimize(negative, result.x, method="Nelder-Mead",
                                 options={"xatol": 1e-13, "fatol": 1e-13,
                                          "maxiter": 20_000})
    best = polished if polished.fun <= result.fun else result
    if obs.enabled():
        obs.observe("laplace.map_iterations", int(result.nit) + int(polished.nit))
        obs.observe("laplace.map_evaluations", int(result.nfev) + int(polished.nfev))
        obs.fit_health(
            "LAPL",
            iterations=int(result.nit) + int(polished.nit),
            objective=float(best.fun),
        )
        if polished.fun > result.fun:
            obs.counter_add("laplace.polish_rejected")
    if not np.all(np.isfinite(best.x)):
        if obs.enabled():
            obs.counter_add("laplace.failures")
            obs.event("laplace.map_failure", evaluations=int(best.nfev))
        raise EstimationError("MAP search diverged")
    omega_hat, beta_hat = float(np.exp(best.x[0])), float(np.exp(best.x[1]))
    return omega_hat, beta_hat


def fit_laplace(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    initial: tuple[float, float] | None = None,
) -> NormalPosterior:
    """Fit the Laplace (multivariate normal) posterior approximation.

    Raises
    ------
    EstimationError
        If the negative Hessian at the MAP is not positive definite
        (the posterior is too flat or the MAP search failed).
    """
    with obs.span("laplace.fit", collect=True, data=type(data).__name__) as sp:
        log_post = log_posterior_fn(data, prior, alpha0)
        omega_hat, beta_hat = find_map(data, prior, alpha0, initial=initial)
        information = observed_information(data, omega_hat, beta_hat, alpha0)
        # Every prior here is a (possibly improper) gamma: its log density
        # (m - 1) log x - φ x has the exact curvature -(m - 1)/x².
        precision = information + np.diag([
            (prior.omega.shape - 1.0) / omega_hat**2,
            (prior.beta.shape - 1.0) / beta_hat**2,
        ])
        try:
            cov = np.linalg.inv(precision)
        except np.linalg.LinAlgError as exc:
            if obs.enabled():
                obs.counter_add("laplace.failures")
                obs.event("laplace.hessian_failure", kind="singular")
            raise EstimationError(f"singular Hessian at the MAP: {exc}") from exc
        if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0:
            if obs.enabled():
                obs.counter_add("laplace.failures")
                obs.event("laplace.hessian_failure", kind="not_positive_definite")
            raise EstimationError(
                "negative Hessian at the MAP is not positive definite; the "
                "Laplace approximation is undefined for this posterior"
            )

        posterior = NormalPosterior(
            mean=np.array([omega_hat, beta_hat]),
            cov=cov,
        )
        posterior.diagnostics = {
            "map": (omega_hat, beta_hat),
            "log_posterior_at_map": log_post(omega_hat, beta_hat),
            "alpha0": alpha0,
            "data_kind": type(data).__name__,
            "horizon": data.horizon,
        }
        if obs.enabled():
            obs.counter_add("laplace.fits")
            if sp.collecting:
                posterior.diagnostics["telemetry"] = sp.telemetry()
        return posterior
