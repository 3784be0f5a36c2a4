"""Sandwich-style posterior-variance correction for misspecified fits.

Under model misspecification a Bayesian (and *a fortiori* a variational)
posterior concentrates at the KL-minimising pseudo-true parameter with a
spread governed by the *model* curvature ``A`` — not by the sampling
variability ``B`` of the score under the true data-generating process.
The classic frequentist repair is the sandwich covariance
``A⁻¹ B A⁻¹`` (Huber 1967; White 1982); Wang & Blei (arXiv:1905.10859)
show the same correction is the right target for variational posteriors.

For NHPP failure-time data there is only one realisation of the
process, so ``B`` cannot be estimated from i.i.d. replicates. We use
the independent-increments structure instead: the observation window is
split into ``K`` blocks, the per-block score contributions ``s_k`` are
independent with mean ≈ 0 at the fitted parameter, and

``B = K/(K-1) · Σ_k (s_k - s̄)(s_k - s̄)ᵀ``.

Under the true model each block's score variance adds up to the Fisher
information, so ``B ≈ A`` and the correction is asymptotically a no-op;
under misspecification the systematic misfit of the mean-value function
across blocks inflates ``B`` above ``A``, widening the intervals.

The correction is applied through the posterior *quantile contract*
(:class:`ScaledPosterior`): each marginal is stretched about its mean by

``κ_i = sqrt( (A⁻¹ B A⁻¹)_{ii} / (A⁻¹)_{ii} )``,

i.e. the posterior keeps its location and shape but its spread is
rescaled to the sandwich target. For a :class:`~repro.bayes.
normal_posterior.NormalPosterior` the same affine map is exact in
closed form, so :func:`apply_sandwich` rebuilds it via
``with_covariance`` instead of wrapping.

This is deliberately a *spread* correction, not a re-derivation of the
posterior: with an informative prior the posterior variance is smaller
than ``A⁻¹`` and the multiplicative ``κ`` carries the likelihood-level
inflation onto whatever spread the posterior actually has.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.joint import JointPosterior
from repro.bayes.normal_posterior import NormalPosterior
from repro.data.failure_data import FailureTimeData, GroupedData

__all__ = [
    "observed_information",
    "score_covariance",
    "sandwich_covariance",
    "variance_inflation",
    "ScaledPosterior",
    "apply_sandwich",
]

#: Inflation factors are clipped to this range: a numerically degenerate
#: block estimate must not collapse or explode the intervals.
KAPPA_FLOOR = 1e-2
KAPPA_CEILING = 1e2


# ----------------------------------------------------------------------
# Gamma-family mean-value derivatives: G(t; α0, β) = P(α0, βt)
# ----------------------------------------------------------------------
def _g_value(t: np.ndarray, alpha0: float, beta: float) -> np.ndarray:
    return sc.gammainc(alpha0, beta * np.clip(t, 0.0, None))


def _g_increments(edges: np.ndarray, alpha0: float, beta) -> tuple:
    """``(G, ΔG)``: ``G`` at the interval ``edges`` and its increments
    between consecutive edges (along the last axis).

    ``beta`` is a scalar, or a column of nodes (NINT's β axis) giving
    one row per node. Past the median a CDF difference loses its digits
    to cancellation; there the increment is the survival difference
    ``Q(α0, βt_{i-1}) - Q(α0, βt_i)``, which keeps them.
    """
    scaled = beta * np.clip(edges, 0.0, None)
    g = sc.gammainc(alpha0, scaled)
    inc = np.diff(g, axis=-1)
    upper = g[..., :-1] > 0.5
    if upper.any():
        survival = sc.gammaincc(alpha0, scaled)
        inc = np.where(upper, -np.diff(survival, axis=-1), inc)
    return g, inc


def _g_dbeta(t: np.ndarray, alpha0: float, beta: float) -> np.ndarray:
    """``∂G/∂β = t (βt)^{α0-1} e^{-βt} / Γ(α0)`` (= ``(t/β) g(t)``)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0.0
    bt = beta * t[pos]
    out[pos] = t[pos] * np.exp(
        (alpha0 - 1.0) * np.log(bt) - bt - sc.gammaln(alpha0)
    )
    return out


def _g_dbeta2(t: np.ndarray, alpha0: float, beta: float) -> np.ndarray:
    """``∂²G/∂β² = t² (βt)^{α0-2} e^{-βt} (α0 - 1 - βt) / Γ(α0)``."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0.0
    bt = beta * t[pos]
    out[pos] = (
        t[pos] ** 2
        * np.exp((alpha0 - 2.0) * np.log(bt) - bt - sc.gammaln(alpha0))
        * (alpha0 - 1.0 - bt)
    )
    return out


def _check_point(omega: float, beta: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")


# ----------------------------------------------------------------------
# The two slices of bread: A (curvature) and B (score variance)
# ----------------------------------------------------------------------
def observed_information(
    data: FailureTimeData | GroupedData,
    omega: float,
    beta: float,
    alpha0: float = 1.0,
) -> np.ndarray:
    """Observed information ``A = -∇² log L`` at ``(ω, β)``.

    For failure-time data the log-likelihood is
    ``m log ω + Σ log g(t_i; β) - ω G(te; β)``, giving

    ``A = [[m/ω²,            ∂βG(te)],
           [∂βG(te), m α0/β² + ω ∂²βG(te)]]``.

    The grouped-data version sums the corresponding per-interval terms
    of the Poisson-count likelihood.
    """
    _check_point(omega, beta)
    if isinstance(data, FailureTimeData):
        m = data.count
        te = data.horizon
        dg = float(_g_dbeta(np.array([te]), alpha0, beta)[0])
        ddg = float(_g_dbeta2(np.array([te]), alpha0, beta)[0])
        return np.array(
            [
                [m / omega**2, dg],
                [dg, m * alpha0 / beta**2 + omega * ddg],
            ]
        )
    if isinstance(data, GroupedData):
        edges = data.interval_edges()
        counts = data.counts.astype(float)
        _, d_g = _g_increments(edges, alpha0, beta)
        d_dg = np.diff(_g_dbeta(edges, alpha0, beta))
        d_ddg = np.diff(_g_dbeta2(edges, alpha0, beta))
        occupied = counts > 0
        curv = np.zeros(counts.shape)
        curv[occupied] = counts[occupied] * (
            d_dg[occupied] ** 2 - d_ddg[occupied] * d_g[occupied]
        ) / d_g[occupied] ** 2
        a11 = float(curv.sum() + omega * d_ddg.sum())
        return np.array(
            [
                [counts.sum() / omega**2, float(d_dg.sum())],
                [float(d_dg.sum()), a11],
            ]
        )
    raise TypeError(f"unsupported data type: {type(data).__name__}")


def score_covariance(
    data: FailureTimeData | GroupedData,
    omega: float,
    beta: float,
    alpha0: float = 1.0,
    *,
    n_blocks: int | None = None,
) -> np.ndarray:
    """Block estimate ``B`` of the score variance at ``(ω, β)``.

    Failure-time data is split into ``n_blocks`` equal-width time blocks
    (default ``max(4, min(m, 100))``); grouped data uses its recorded
    intervals as the blocks. Block score contributions are independent
    by the independent-increments property, so their empirical
    (centred, ``K/(K-1)``-corrected) scatter estimates the sampling
    variance of the total score.
    """
    _check_point(omega, beta)
    if isinstance(data, FailureTimeData):
        m = data.count
        te = data.horizon
        k = n_blocks if n_blocks is not None else max(4, min(m, 100))
        if k < 2:
            raise ValueError(f"need at least 2 blocks, got {k}")
        edges = np.linspace(0.0, te, k + 1)
        m_k, _ = np.histogram(data.times, bins=edges)
        sum_t_k, _ = np.histogram(data.times, bins=edges, weights=data.times)
        d_g = np.diff(_g_value(edges, alpha0, beta))
        d_dg = np.diff(_g_dbeta(edges, alpha0, beta))
        scores = np.stack(
            [
                m_k / omega - d_g,
                m_k * alpha0 / beta - sum_t_k - omega * d_dg,
            ],
            axis=1,
        )
    elif isinstance(data, GroupedData):
        k = data.n_intervals
        if k < 2:
            raise ValueError("grouped data needs at least 2 intervals for B")
        edges = data.interval_edges()
        counts = data.counts.astype(float)
        _, d_g = _g_increments(edges, alpha0, beta)
        d_dg = np.diff(_g_dbeta(edges, alpha0, beta))
        ratio = np.zeros(counts.shape)
        occupied = counts > 0
        ratio[occupied] = counts[occupied] * d_dg[occupied] / d_g[occupied]
        scores = np.stack(
            [
                counts / omega - d_g,
                ratio - omega * d_dg,
            ],
            axis=1,
        )
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")
    centred = scores - scores.mean(axis=0)
    return (centred.T @ centred) * (k / (k - 1.0))


def sandwich_covariance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A⁻¹ B A⁻¹`` (symmetrised)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_inv = np.linalg.inv(a)
    out = a_inv @ b @ a_inv
    return 0.5 * (out + out.T)


def variance_inflation(
    a: np.ndarray, b: np.ndarray, *, conservative: bool = True
) -> np.ndarray:
    """Marginal inflation factors ``κ = sqrt(diag(A⁻¹BA⁻¹)/diag(A⁻¹))``.

    With ``conservative=True`` (the default used by the correction) the
    factors are floored at 1: the block estimate of ``B`` is noisy on a
    single realisation, and letting a downward fluctuation *narrow* the
    posterior would trade the Bayesian interval's calibration for noise.
    The correction is one-sided by design — it only ever widens — which
    is the standard conservative reading of robust variances. Pass
    ``conservative=False`` for the raw two-sided estimate.

    Clipped to ``[KAPPA_FLOOR, KAPPA_CEILING]``; a non-positive-definite
    ``A`` (degenerate fit) yields the identity correction ``κ = (1, 1)``
    rather than an error, so campaign cells cannot crash on pathological
    replications.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.linalg.det(a) <= 0.0 or a[0, 0] <= 0.0 or a[1, 1] <= 0.0:
        return np.ones(2)
    a_inv = np.linalg.inv(a)
    model_var = np.diag(a_inv)
    robust_var = np.diag(sandwich_covariance(a, b))
    if np.any(model_var <= 0.0) or np.any(robust_var < 0.0):
        return np.ones(2)
    kappa = np.sqrt(robust_var / model_var)
    kappa = np.clip(kappa, KAPPA_FLOOR, KAPPA_CEILING)
    if conservative:
        kappa = np.maximum(kappa, 1.0)
    return kappa


# ----------------------------------------------------------------------
# Applying the correction through the quantile contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ScaledIncrement:
    """``c(β)`` pre-composed with the inverse spread map of β.

    Frozen (hence hashable whenever ``base`` is) so the wrapped
    posterior's quadrature-table cache keys on it, exactly like the raw
    increment functions in :mod:`repro.core.reliability`.
    """

    base: Callable[[np.ndarray], np.ndarray]
    center: float
    scale: float

    def __call__(self, beta: float | np.ndarray) -> float | np.ndarray:
        beta = np.asarray(beta, dtype=float)
        mapped = np.clip(
            self.center + self.scale * (beta - self.center), 0.0, None
        )
        return self.base(mapped)


class ScaledPosterior(JointPosterior):
    """A posterior with its marginal spreads rescaled about the mean.

    Represents the law of ``θ' = μ + K (θ - μ)`` where ``θ`` follows the
    base posterior, ``μ`` is its mean vector and ``K = diag(κ)``. Means
    are unchanged, variances scale by ``κ²``, the covariance by
    ``κ_ω κ_β``, and every marginal quantile moves affinely:
    ``q'(p) = μ + κ (q(p) - μ)``.

    Reliability functionals are computed *exactly* under the transformed
    law when the base posterior exposes gamma-mixture quadrature tables
    (:meth:`~repro.core.posterior.VBPosterior.reliability_tables`): the
    β nodes are pushed through the spread map inside ``c``, and the
    affine ω transform turns the per-component gamma MGF/tail into a
    shifted MGF/tail in closed form.
    """

    def __init__(
        self,
        base: JointPosterior,
        kappa,
        *,
        diagnostics: dict | None = None,
    ) -> None:
        kappa = np.asarray(kappa, dtype=float)
        if kappa.shape != (2,):
            raise ValueError("kappa must have shape (2,) for (omega, beta)")
        if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0.0):
            raise ValueError(f"kappa must be positive and finite, got {kappa}")
        self._base = base
        self._kappa = kappa
        self._mu = np.array([base.mean("omega"), base.mean("beta")])
        self.method_name = f"{base.method_name}+SW"
        self.diagnostics = dict(diagnostics or {})

    # ------------------------------------------------------------------
    @property
    def base(self) -> JointPosterior:
        """The uncorrected posterior."""
        return self._base

    @property
    def kappa(self) -> np.ndarray:
        """Inflation factors ``(κ_ω, κ_β)`` (copy)."""
        return self._kappa.copy()

    def _k(self, param: str) -> float:
        return float(self._kappa[0 if self._check_param(param) == "omega" else 1])

    def _m(self, param: str) -> float:
        return float(self._mu[0 if self._check_param(param) == "omega" else 1])

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self, param: str) -> float:
        return self._base.mean(param)

    def variance(self, param: str) -> float:
        return self._k(param) ** 2 * self._base.variance(param)

    def central_moment(self, param: str, k: int) -> float:
        return self._k(param) ** k * self._base.central_moment(param, k)

    def cross_moment(self) -> float:
        cov = float(self._kappa[0] * self._kappa[1]) * self._base.covariance()
        return cov + float(self._mu[0] * self._mu[1])

    # ------------------------------------------------------------------
    # Quantiles and densities
    # ------------------------------------------------------------------
    def quantile(self, param: str, q: float) -> float:
        mu, k = self._m(param), self._k(param)
        return mu + k * (self._base.quantile(param, q) - mu)

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        mu, k = self._m(param), self._k(param)
        return mu + k * (np.asarray(self._base.quantile_batch(param, q)) - mu)

    def cdf(self, param: str, x: float) -> float:
        mu, k = self._m(param), self._k(param)
        return self._base.cdf(param, mu + (x - mu) / k)

    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        beta = np.asarray(beta, dtype=float)
        base_omega = self._mu[0] + (omega - self._mu[0]) / self._kappa[0]
        base_beta = self._mu[1] + (beta - self._mu[1]) / self._kappa[1]
        jacobian = float(np.log(self._kappa[0]) + np.log(self._kappa[1]))
        return self._base.log_pdf_grid(base_omega, base_beta) - jacobian

    # ------------------------------------------------------------------
    # Reliability under the transformed law
    # ------------------------------------------------------------------
    def _tables(self, c: Callable[[np.ndarray], np.ndarray]):
        tabler = getattr(self._base, "reliability_tables", None)
        if tabler is None:
            raise NotImplementedError(
                f"{type(self._base).__name__} does not expose reliability "
                "quadrature tables; apply the sandwich correction to its "
                "native representation instead"
            )
        scaled_c = _ScaledIncrement(
            base=c, center=float(self._mu[1]), scale=float(self._kappa[1])
        )
        return tabler(scaled_c).cells()

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        table = self._tables(c)
        quad_w, c_values, a_omega, b_omega = table.arrays()
        k_omega = float(self._kappa[0])
        shift = c_values * self._mu[0] * (1.0 - k_omega)
        factors = np.exp(
            a_omega * (np.log(b_omega) - np.log(b_omega + c_values * k_omega))
            - shift
        )
        # cells whose D is 0 surely sit in the atom: their factor is 1
        total = table.atom + np.sum(quad_w * factors)
        return float(min(max(total, 0.0), 1.0))

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        return self._reliability_cdf_at(c)(r)

    def _reliability_cdf_at(self, c):
        # the atom's cells hold R = 1: they add nothing below r = 1
        quad_w, c_values, a_omega, b_omega = self._tables(c).arrays()
        k_omega = float(self._kappa[0])
        mu_omega = float(self._mu[0])

        def cdf(r: float) -> float:
            if r <= 0.0:
                return 0.0
            if r >= 1.0:
                return 1.0
            with np.errstate(divide="ignore"):
                cut = np.where(c_values > 0.0, -math.log(r) / c_values, np.inf)
            # ω' >= cut  ⇔  ω >= μ + (cut - μ)/κ; a non-positive base
            # cut means the whole component mass is in the tail.
            cut_base = np.clip(mu_omega + (cut - mu_omega) / k_omega, 0.0, None)
            tail = sc.gammaincc(a_omega, b_omega * cut_base)
            return float(np.sum(quad_w * tail))

        return cdf


def apply_sandwich(
    posterior: JointPosterior,
    data: FailureTimeData | GroupedData,
    alpha0: float = 1.0,
    *,
    n_blocks: int | None = None,
) -> JointPosterior:
    """Return ``posterior`` with its spread rescaled to the sandwich
    covariance estimated from ``data`` at the posterior mean.

    A :class:`NormalPosterior` is rebuilt with the exactly transformed
    covariance (the affine map of a normal is normal); every other
    posterior is wrapped in a :class:`ScaledPosterior`. Diagnostics
    (``kappa``, ``A``, ``B``, block count) travel on the result.
    """
    omega = posterior.mean("omega")
    beta = posterior.mean("beta")
    a = observed_information(data, omega, beta, alpha0)
    b = score_covariance(data, omega, beta, alpha0, n_blocks=n_blocks)
    raw = variance_inflation(a, b, conservative=False)
    kappa = np.maximum(raw, 1.0)
    if obs.enabled():
        method = getattr(posterior, "method_name", None) or "posterior"
        prefix = "sandwich." + method.lower().replace("+", "_")
        obs.observe(f"{prefix}.kappa_omega", float(kappa[0]))
        obs.observe(f"{prefix}.kappa_beta", float(kappa[1]))
    diagnostics = {
        "variance_correction": "sandwich",
        "kappa_omega": float(kappa[0]),
        "kappa_beta": float(kappa[1]),
        "kappa_omega_raw": float(raw[0]),
        "kappa_beta_raw": float(raw[1]),
        "information": a.tolist(),
        "score_covariance": b.tolist(),
    }
    if isinstance(posterior, NormalPosterior):
        scale = np.diag(kappa)
        corrected = posterior.with_covariance(
            scale @ posterior.covariance_matrix() @ scale
        )
        corrected.diagnostics = diagnostics
        return corrected
    return ScaledPosterior(posterior, kappa, diagnostics=diagnostics)
