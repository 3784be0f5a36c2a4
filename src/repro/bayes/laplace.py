"""LAPL: Laplace approximation of the joint posterior (paper Section 4.2).

The joint posterior is approximated by a bivariate normal centred at
the MAP estimate with covariance equal to the inverse negative Hessian
of the log posterior at the MAP. That Hessian is exact: the analytic
observed information of the likelihood
(:func:`repro.bayes.sandwich.observed_information`) plus the gamma
prior's curvature ``(m - 1)/x²`` in each parameter. With flat priors
this reduces to the classical MLE confidence-interval construction of
Yamada & Osaki.

The MAP is found on a profile. For failure times and grouped data
alike, ω enters the log posterior only through
``(m_ω + m - 1) log ω - (φ_ω + G(t_e; α0, β)) ω`` (the conjugacy of
paper Eq. 22), so at fixed β its maximiser is the closed form
``ω̂(β) = (m_ω + m - 1)/(φ_ω + G(t_e; α0, β))``. What is left is a
one-dimensional search in ``s = log β``: a Newton iteration on the
profile's slope, kept inside a sign-change bracket and falling back to
bisection (docs/METHOD.md §4.6).
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.bayes.normal_posterior import NormalPosterior
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import (
    _g_dbeta,
    _g_dbeta2,
    _g_increments,
    _g_value,
    observed_information,
)
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import EstimationError
from repro.models.gamma_srm import GammaSRM

__all__ = ["find_map", "fit_laplace", "log_posterior_fn"]

#: The profile search covers ``β t_e`` in this range. Below its floor
#: the data no longer inform β: with flat priors the profile's slope
#: there is ``O(β t_e)`` and drowns in rounding near ``1e-14``, so a
#: slope that keeps its sign down to the floor means the mode is the
#: ``β -> 0`` boundary.
_SCALED_BETA_RANGE = (1e-10, 1e10)

#: Newton stops once its step in ``log β`` is below this.
_STEP_TOL = 1e-12

_MAX_STEPS = 200


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


class _Profile:
    """Slope and curvature in ``s = log β`` of the log posterior with ω
    profiled out.

    With ``A = m_ω + m - 1``, ``r1 = β G'(t_e)/(φ_ω + G(t_e))`` and
    ``r2 = β² G''(t_e)/(φ_ω + G(t_e))``, the profile's slope is
    ``S1 + (m_β - 1) - φ_β β - A r1`` and its curvature
    ``S1' - φ_β β - A (r1 + r2 - r1²)``, where ``S1`` is ``β ∂/∂β`` of
    the data's β terms and ``S1'`` its ``s``-derivative: for failure
    times ``S1 = m α0 - β Σ t_i`` and ``S1' = -β Σ t_i``; for grouped
    data ``S1 = Σ x_i q1_i`` and ``S1' = Σ x_i (q1_i + q2_i - q1_i²)``
    with ``q1 = β ΔG'/ΔG`` and ``q2 = β² ΔG''/ΔG`` per occupied interval.
    """

    def __init__(self, data, prior: ModelPrior, alpha0: float) -> None:
        self.alpha0 = alpha0
        self.phi_omega = prior.omega.rate
        self.m_beta1 = prior.beta.shape - 1.0
        self.phi_beta = prior.beta.rate
        if isinstance(data, FailureTimeData):
            count = data.count
            self.edges = np.array([data.horizon])
            self.counts = None
            self.sum_times = data.total_time
        elif isinstance(data, GroupedData):
            count = data.total_count
            self.edges = data.interval_edges()
            occupied = data.counts > 0
            self.counts = data.counts[occupied].astype(float)
            self.occupied = occupied
        else:
            raise TypeError(f"unsupported data type: {type(data).__name__}")
        self.count = count
        self.shape = prior.omega.shape + count - 1.0
        self.evaluations = 0

    def omega_hat(self, beta: float) -> float:
        """The ω maximiser at ``β``: ``A/(φ_ω + G(t_e))``."""
        tail = float(_g_value(self.edges[-1:], self.alpha0, beta)[0])
        return self.shape / (self.phi_omega + tail)

    def __call__(self, s: float) -> tuple[float, float]:
        """``(slope, curvature)`` at ``s``; NaN where the log posterior
        is not finite (an occupied interval without model mass)."""
        self.evaluations += 1
        beta = math.exp(s)
        alpha0 = self.alpha0
        g0, inc = _g_increments(self.edges, alpha0, beta)
        g1 = _g_dbeta(self.edges, alpha0, beta)
        g2 = _g_dbeta2(self.edges, alpha0, beta)
        denom = self.phi_omega + g0[-1]
        r1 = beta * g1[-1] / denom
        r2 = beta * beta * g2[-1] / denom
        if self.counts is None:
            s1 = self.count * alpha0 - beta * self.sum_times
            ds1 = -beta * self.sum_times
        else:
            inc = inc[self.occupied]
            with np.errstate(divide="ignore", invalid="ignore"):
                q1 = beta * np.diff(g1)[self.occupied] / inc
                q2 = beta * beta * np.diff(g2)[self.occupied] / inc
                s1 = float(self.counts @ q1)
                ds1 = float(self.counts @ (q1 + q2 - q1 * q1))
        shape = self.shape
        prior_beta = self.phi_beta * beta
        slope = s1 + self.m_beta1 - prior_beta - shape * r1
        curvature = ds1 - prior_beta - shape * (r1 + r2 - r1 * r1)
        return float(slope), float(curvature)


def _map_failure(profile: _Profile, reason: str) -> EstimationError:
    if obs.enabled():
        obs.counter_add("laplace.failures")
        obs.event("laplace.map_failure", reason=reason,
                  evaluations=profile.evaluations)
    return EstimationError(f"LAPL found no MAP: {reason}")


def _bracket(profile: _Profile, s: float, s_min: float, s_max: float):
    """Walk from ``s`` up the profile in doubling steps until its slope
    changes sign. Return ``(lo, hi, start)``: a positive slope at ``lo``,
    a negative one at ``hi``, and ``start`` the one of the two with the
    smaller slope (all three are the mode if a step lands on it).

    A step that lands where the log posterior is not finite is retried
    at a quarter of its length. A zero slope counts as a mode only where
    the curvature is negative: where both underflow to zero (a grouped
    profile rising to a plateau) the walk goes on. Reaching the end of
    ``[s_min, s_max]`` with the sign unchanged means the mode is on the
    boundary.
    """
    slope, curvature = profile(s)
    if not math.isfinite(slope):
        raise _map_failure(profile, "the log posterior is not finite at "
                           "the starting point")
    direction = 1.0 if slope >= 0.0 else -1.0
    step = 1.0
    while not (slope == 0.0 and curvature < 0.0):
        target = min(max(s + direction * step, s_min), s_max)
        if target == s:
            raise _map_failure(
                profile, "the posterior has no interior mode (the profile "
                f"slope keeps its sign over beta*t_e in "
                f"[{_SCALED_BETA_RANGE[0]:g}, {_SCALED_BETA_RANGE[1]:g}])",
            )
        target_slope, target_curvature = profile(target)
        if not math.isfinite(target_slope):
            step /= 4.0
            if step < 1e-3:
                raise _map_failure(
                    profile, "the log posterior is not finite past the "
                    "last point of ascent (an occupied interval's model "
                    "mass underflows)"
                )
            continue
        if direction * target_slope < 0.0:
            start = target if abs(target_slope) < abs(slope) else s
            return ((s, target) if direction > 0.0 else (target, s)) + (start,)
        s, slope, curvature = target, target_slope, target_curvature
        step *= 2.0
    return s, s, s


def find_map(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
) -> tuple[float, float]:
    """Maximum a-posteriori estimate of ``(ω, β)`` (paper Eq. 7).

    ω is profiled out in closed form and the profile is maximised in
    ``s = log β`` by a bracketed Newton iteration with a bisection
    fallback, started at ``β t_e = α0``.

    Raises
    ------
    EstimationError
        If the posterior has no interior mode: ``m_ω + m <= 1`` (the ω
        mode is at 0), or the profile's slope keeps its sign over the
        searched range (the β mode is on the boundary).
    """
    profile = _Profile(data, prior, alpha0)
    if profile.shape <= 0.0:
        raise _map_failure(
            profile, "the posterior has no interior mode (m_omega + m <= 1 "
            "puts the omega mode at 0)"
        )
    horizon = data.horizon
    s_min = math.log(_SCALED_BETA_RANGE[0] / horizon)
    s_max = math.log(_SCALED_BETA_RANGE[1] / horizon)
    lo, hi, s = _bracket(profile, math.log(alpha0 / horizon), s_min, s_max)
    steps = 0
    step = math.inf
    while lo < hi and abs(step) > _STEP_TOL:
        steps += 1
        if steps > _MAX_STEPS:
            raise _map_failure(profile, f"no settled step in {_MAX_STEPS}")
        slope, curvature = profile(s)
        if slope == 0.0:
            break
        if slope > 0.0:
            lo = s
        else:
            hi = s
        # Newton's step, unless the curvature is not negative or the
        # step leaves the bracket: then bisect. A step below the
        # tolerance is taken even onto a bracket end.
        step = -slope / curvature if curvature < 0.0 else math.inf
        if abs(step) > _STEP_TOL and not lo < s + step < hi:
            step = 0.5 * (lo + hi) - s
        s += step
    beta_hat = math.exp(s)
    omega_hat = profile.omega_hat(beta_hat)
    if obs.enabled():
        obs.observe("laplace.map_iterations", steps)
        obs.observe("laplace.map_evaluations", profile.evaluations)
    return omega_hat, beta_hat


def fit_laplace(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
) -> NormalPosterior:
    """Fit the Laplace (multivariate normal) posterior approximation.

    Raises
    ------
    EstimationError
        If the posterior has no interior mode (:func:`find_map`), or the
        negative Hessian at the MAP is not positive definite.
    """
    with obs.span("laplace.fit", collect=True, data=type(data).__name__) as sp:
        omega_hat, beta_hat = find_map(data, prior, alpha0)
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
            "log_posterior_at_map": log_posterior_fn(data, prior, alpha0)(
                omega_hat, beta_hat
            ),
            "alpha0": alpha0,
            "data_kind": type(data).__name__,
            "horizon": data.horizon,
        }
        if obs.enabled():
            obs.counter_add("laplace.fits")
            obs.observe("laplace.log_posterior_at_map",
                        posterior.diagnostics["log_posterior_at_map"])
            if sp.collecting:
                posterior.diagnostics["telemetry"] = sp.telemetry()
        return posterior
