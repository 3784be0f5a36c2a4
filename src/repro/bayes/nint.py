"""NINT: direct numerical integration of the joint posterior.

The paper's reference method (Section 4.1): evaluate the unnormalised
posterior ``P(D | ω, β) P(ω) P(β)`` over a rectangle in ``(ω, β)``,
normalise, and compute every functional by quadrature. Working in log
space with log-sum-exp normalisation replaces the multiple-precision
arithmetic the paper needed in Mathematica.

The paper chooses the integration rectangle from VB2 quantiles: each
lower limit is the VB2 0.5%-quantile divided by two, each upper limit
the 99.5%-quantile times 1.5. :func:`fit_nint` reproduces exactly that
heuristic when handed a VB2 posterior, and also accepts explicit limits.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.grid_posterior import GridPosterior
from repro.bayes.joint import JointPosterior
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import _g_increments
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.stats.quadrature import TensorGrid

__all__ = [
    "fit_nint",
    "integration_limits_from_posterior",
    "log_posterior_matrix",
]


def log_posterior_matrix(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float,
    omega_nodes: np.ndarray,
    beta_nodes: np.ndarray,
) -> np.ndarray:
    """Unnormalised log posterior on a tensor grid.

    Exploits the separable structure of the gamma-type likelihood: for
    each β node the data terms are scalars, and the ω dependence is
    ``me log ω - ω G(horizon; β)`` — so the matrix is built from outer
    sums instead of a double loop.
    """
    omega_nodes = np.asarray(omega_nodes, dtype=float)
    beta_nodes = np.asarray(beta_nodes, dtype=float)
    if np.any(omega_nodes <= 0.0) or np.any(beta_nodes <= 0.0):
        raise ValueError("grid nodes must be strictly positive")

    if isinstance(data, FailureTimeData):
        me = data.count
        # sum_i log g(t_i; α0, β) = me α0 log β + (α0-1) Σ log t_i
        #                           - β Σ t_i - me ln Γ(α0)
        beta_part = (
            me * alpha0 * np.log(beta_nodes)
            + (alpha0 - 1.0) * data.sum_log_times
            - beta_nodes * data.total_time
            - me * float(sc.gammaln(alpha0))
        )
        tail_g = sc.gammainc(alpha0, beta_nodes * data.horizon)
        observed = me
    elif isinstance(data, GroupedData):
        edges = data.interval_edges()
        observed = data.total_count
        # One broadcast over the whole (beta, edge) mesh instead of a
        # Python loop per beta row: the incomplete-gamma evaluation at
        # every node lands in one ufunc call (and one more for the
        # survival differences past the median).
        mask = data.counts > 0
        _, increments = _g_increments(edges, alpha0, beta_nodes[:, None])
        increments = increments[:, mask]
        bad = np.any(increments <= 0.0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_inc = np.log(increments)
        beta_part = log_inc @ np.asarray(data.counts, dtype=float)[mask]
        beta_part[bad] = -np.inf
        beta_part -= float(np.sum(sc.gammaln(np.asarray(data.counts) + 1.0)))
        tail_g = sc.gammainc(alpha0, beta_nodes * data.horizon)
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")

    log_prior_omega = np.asarray(prior.omega.log_pdf(omega_nodes))
    log_prior_beta = np.asarray(prior.beta.log_pdf(beta_nodes))
    omega_part = observed * np.log(omega_nodes) + log_prior_omega
    matrix = (
        omega_part[:, None]
        + (beta_part + log_prior_beta)[None, :]
        - np.outer(omega_nodes, tail_g)
    )
    return matrix


def integration_limits_from_posterior(
    posterior: JointPosterior,
    *,
    lower_quantile: float = 0.005,
    upper_quantile: float = 0.995,
    lower_factor: float = 0.5,
    upper_factor: float = 1.5,
) -> dict[str, tuple[float, float]]:
    """The paper's limit heuristic: ``[q_0.005 / 2, q_0.995 * 1.5]``
    per parameter, read off a (typically VB2) posterior."""
    limits = {}
    for param in ("omega", "beta"):
        lo = posterior.quantile(param, lower_quantile) * lower_factor
        hi = posterior.quantile(param, upper_quantile) * upper_factor
        limits[param] = (lo, hi)
    return limits


def fit_nint(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    limits: dict[str, tuple[float, float]] | None = None,
    reference_posterior: JointPosterior | None = None,
    n_omega: int = 321,
    n_beta: int = 321,
) -> GridPosterior:
    """Fit the NINT posterior on a Simpson tensor grid.

    Parameters
    ----------
    data, prior, alpha0:
        Model specification as elsewhere.
    limits:
        Explicit integration rectangle ``{"omega": (lo, hi), "beta":
        (lo, hi)}``. If omitted, ``reference_posterior`` must be given
        and the paper's VB2-quantile heuristic is applied.
    reference_posterior:
        Posterior used for the limit heuristic (the paper uses VB2).
    n_omega, n_beta:
        Grid resolution per axis (rounded up to odd for Simpson).
    """
    if limits is None:
        if reference_posterior is None:
            raise ValueError(
                "either explicit limits or a reference_posterior is required"
            )
        limits = integration_limits_from_posterior(reference_posterior)
    omega_range = limits["omega"]
    beta_range = limits["beta"]
    if not (0.0 < omega_range[0] < omega_range[1]):
        raise ValueError(f"invalid omega limits {omega_range}")
    if not (0.0 < beta_range[0] < beta_range[1]):
        raise ValueError(f"invalid beta limits {beta_range}")

    with obs.span("nint.fit", collect=True, data=type(data).__name__) as sp:
        grid = TensorGrid.simpson(omega_range, beta_range, n_omega, n_beta)
        log_post = log_posterior_matrix(data, prior, alpha0, grid.x, grid.y)
        posterior = GridPosterior(
            grid,
            log_post,
            log_pdf_fn=partial(log_posterior_matrix, data, prior, alpha0),
        )
        if obs.enabled():
            obs.counter_add("nint.fits")
            obs.counter_add("nint.grid_evaluations", grid.x.size * grid.y.size)
            obs.observe("nint.nodes_omega", grid.x.size)
            obs.observe("nint.nodes_beta", grid.y.size)
            obs.observe("nint.log_normaliser", posterior.log_normaliser)
            if sp.collecting:
                posterior.diagnostics = {"telemetry": sp.telemetry()}
        return posterior
