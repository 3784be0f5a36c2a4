"""Posterior-predictive distribution of future failure counts.

Beyond the reliability probability the paper reports (no failures in
``(te, te+u]``), a test manager usually wants the full predictive
distribution of the *number* of failures in the next period:

``P(K = k | D) = E_posterior[ Poisson(k; ω c(β)) ]``

with ``c(β) = G(te+u; β) - G(te; β)``. Under the VB posterior this is a
mixture of gamma-Poisson (negative-binomial) laws — for each latent
count ``N``, integrating ``ω ~ Gamma(a_ω, b_ω)`` out of the Poisson
gives a negative binomial with size ``a_ω`` and odds ``c(β)/b_ω``, and
the remaining ``β`` integral is one-dimensional quadrature. For sample
posteriors the mixture is over samples. ``reliability`` equals
``P(K = 0)`` by construction, which the tests verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from repro.stats import scipy_special as sc

from repro.bayes.joint import JointPosterior
from repro.bayes.normal_posterior import NormalPosterior
from repro.bayes.sample_posterior import EmpiricalPosterior
from repro.core.posterior import VBPosterior
from repro.core.reliability import reliability_increment

__all__ = ["PredictiveCounts", "predict_failure_counts"]

_QUAD_NODES = 48


@dataclass(frozen=True)
class PredictiveCounts:
    """Predictive pmf of the failure count in ``(te, te+u]``.

    Attributes
    ----------
    pmf:
        ``pmf[k] = P(K = k | D)`` for ``k = 0 .. len(pmf)-1``; the
        support is truncated where the tail mass drops below ``tail_eps``.
    tail_mass:
        Probability mass beyond the truncated support.
    te, u:
        The prediction window.
    method:
        Label of the posterior that produced it.
    """

    pmf: np.ndarray
    tail_mass: float
    te: float
    u: float
    method: str

    @property
    def support(self) -> np.ndarray:
        """The integer support ``0 .. kmax``."""
        return np.arange(self.pmf.size)

    def mean(self) -> float:
        """Predictive mean number of failures."""
        return float(self.support @ self.pmf + self._tail_mean_correction())

    def _tail_mean_correction(self) -> float:
        # The truncated tail carries at most tail_mass * O(kmax) mean; we
        # truncate at 1e-10 mass so the correction is negligible, but
        # account linearly to keep the estimate conservative.
        return self.tail_mass * self.pmf.size

    def cdf(self, k: int) -> float:
        """``P(K <= k)``."""
        if k < 0:
            return 0.0
        return float(self.pmf[: k + 1].sum())

    def quantile(self, q: float) -> int:
        """Smallest ``k`` with ``P(K <= k) >= q``."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        cumulative = np.cumsum(self.pmf)
        idx = int(np.searchsorted(cumulative, q))
        return min(idx, self.pmf.size - 1)

    def probability_of_no_failure(self) -> float:
        """``P(K = 0)``: the software reliability (paper Eq. 3)."""
        return float(self.pmf[0])


def predict_failure_counts(
    posterior: JointPosterior,
    te: float,
    u: float,
    *,
    alpha0: float = 1.0,
    max_count: int = 1000,
    tail_eps: float = 1e-10,
) -> PredictiveCounts:
    """Posterior-predictive pmf of the failure count in ``(te, te+u]``.

    Supports VB posteriors (analytic negative-binomial mixture with β
    quadrature), empirical posteriors (sample average of Poisson pmfs)
    and normal/Laplace posteriors (plug-in Poisson at the MAP, matching
    how the paper uses LAPL).
    """
    c = reliability_increment(alpha0, te, u)
    if isinstance(posterior, VBPosterior):
        pmf = _vb_predictive(posterior, c, max_count, tail_eps)
    elif isinstance(posterior, EmpiricalPosterior):
        pmf = _sample_predictive(posterior, c, max_count, tail_eps)
    elif isinstance(posterior, NormalPosterior):
        pmf = _plugin_predictive(posterior, c, max_count, tail_eps)
    else:
        pmf = _generic_predictive(posterior, c, max_count, tail_eps)
    tail = max(1.0 - float(pmf.sum()), 0.0)
    return PredictiveCounts(
        pmf=pmf,
        tail_mass=tail,
        te=te,
        u=u,
        method=posterior.method_name,
    )


def _truncate(pmf: np.ndarray, tail_eps: float) -> np.ndarray:
    cumulative = np.cumsum(pmf)
    keep = int(np.searchsorted(cumulative, 1.0 - tail_eps)) + 1
    return pmf[: max(keep, 1)]


def _poisson_pmf_matrix(means: np.ndarray, max_count: int) -> np.ndarray:
    """``pmf[i, k] = Poisson(k; means[i])`` built in log space."""
    k = np.arange(max_count + 1)
    means = np.clip(means, 1e-300, None)[:, None]
    log_pmf = k[None, :] * np.log(means) - means - sc.gammaln(k + 1.0)[None, :]
    return np.exp(log_pmf)


def _vb_predictive(
    posterior: VBPosterior, c, max_count: int, tail_eps: float
) -> np.ndarray:
    quad_w, c_values, a_omega, b_omega = posterior.reliability_tables(c).cells()
    k = np.arange(max_count + 1)
    # Negative binomial from Gamma(a, b) mixing of Poisson(omega * c):
    # log P(K=k) = ln C(a+k-1, k) + a ln(b/(b+c)) + k ln(c/(b+c)).
    flat_w = quad_w.ravel()
    flat_c = np.clip(c_values.ravel(), 0.0, None)
    flat_a = np.broadcast_to(a_omega, c_values.shape).ravel()
    flat_b = np.broadcast_to(b_omega, c_values.shape).ravel()
    pmf = np.zeros(max_count + 1)
    zero = flat_c <= 0.0
    if np.any(zero):
        pmf[0] += float(flat_w[zero].sum())
    pos = ~zero
    if np.any(pos):
        a = flat_a[pos][:, None]
        log_odds = np.log(flat_c[pos] / (flat_b[pos] + flat_c[pos]))[:, None]
        log_base = (flat_a * np.log(flat_b / (flat_b + flat_c)))[pos][:, None]
        log_comb = (
            sc.gammaln(a + k[None, :])
            - sc.gammaln(a)
            - sc.gammaln(k + 1.0)[None, :]
        )
        contributions = np.exp(log_comb + log_base + k[None, :] * log_odds)
        pmf += flat_w[pos] @ contributions
    return _truncate(pmf, tail_eps)


def _sample_predictive(
    posterior: EmpiricalPosterior, c, max_count: int, tail_eps: float
) -> np.ndarray:
    samples = posterior.samples
    means = samples[:, 0] * np.asarray(c(samples[:, 1]), dtype=float)
    pmf = _poisson_pmf_matrix(means, max_count).mean(axis=0)
    return _truncate(pmf, tail_eps)


def _plugin_predictive(
    posterior: NormalPosterior, c, max_count: int, tail_eps: float
) -> np.ndarray:
    omega_hat = posterior.mean("omega")
    beta_hat = posterior.mean("beta")
    mean = max(omega_hat * float(c(beta_hat)), 0.0)
    pmf = _poisson_pmf_matrix(np.array([mean]), max_count)[0]
    return _truncate(pmf, tail_eps)


def _generic_predictive(
    posterior: JointPosterior, c, max_count: int, tail_eps: float
) -> np.ndarray:
    """Fallback via sampling if the posterior supports it."""
    sample = getattr(posterior, "sample", None)
    if sample is None:
        raise TypeError(
            f"posterior type {type(posterior).__name__} supports neither an "
            "analytic predictive nor sampling"
        )
    rng = np.random.default_rng(0)
    draws = np.asarray(sample(20_000, rng), dtype=float)
    draws = draws[(draws[:, 0] > 0.0) & (draws[:, 1] > 0.0)]
    means = draws[:, 0] * np.asarray(c(draws[:, 1]), dtype=float)
    pmf = _poisson_pmf_matrix(means, max_count).mean(axis=0)
    return _truncate(pmf, tail_eps)
