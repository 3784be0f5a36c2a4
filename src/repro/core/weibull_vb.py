"""VB2 for the Weibull-type NHPP family via the power transform.

The paper derives VB2 for gamma-type lifetimes only. The Weibull-type
family with *fixed* shape ``c`` reduces exactly to the exponential
(Goel–Okumoto) case under the deterministic clock change ``t → t^c``:

``P(T ≤ t) = 1 - e^{-(βt)^c} = 1 - e^{-θ t^c}``  with  ``θ = β^c``,

so fitting the Goel–Okumoto VB2 on the transformed failure times (or
transformed interval boundaries) gives the exact structured variational
posterior of ``(ω, θ)``; pulling ``β = θ^{1/c}`` back through the
monotone map yields the Weibull-rate posterior in closed form
(fractional gamma moments ``E[θ^{k/c}] = Γ(a + k/c) / (Γ(a) b^{k/c})``).

This extends the paper's method to a family it never covered, at zero
additional algorithmic cost — and the test suite validates it against
NINT on the untransformed Weibull likelihood.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bayes.joint import JointPosterior
from repro.bayes.priors import GammaPrior, ModelPrior
from repro.core.config import VBConfig
from repro.core.posterior import VBPosterior
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.stats.mixtures import MixtureDistribution
from repro.stats.rootfind import bisect_increasing

__all__ = ["WeibullVBPosterior", "fit_vb2_weibull"]


class WeibullVBPosterior(JointPosterior):
    """Posterior of ``(ω, β)`` for the Weibull-type model, backed by a
    gamma-type VB posterior of ``(ω, θ = β^c)``.

    All ``ω`` functionality delegates; ``β`` quantities come through the
    monotone transform ``β = θ^{1/c}`` (quantiles map exactly, moments
    use closed-form fractional gamma moments).
    """

    method_name = "VB2-Weibull"

    def __init__(
        self,
        theta_posterior: VBPosterior,
        shape: float,
        *,
        log_jacobian: float = 0.0,
    ) -> None:
        if shape <= 0.0:
            raise ValueError("Weibull shape must be positive")
        self._inner = theta_posterior
        self._shape = shape
        self._log_jacobian = log_jacobian

    # ------------------------------------------------------------------
    @property
    def shape(self) -> float:
        """The fixed Weibull lifetime shape ``c``."""
        return self._shape

    @property
    def theta_posterior(self) -> VBPosterior:
        """The underlying gamma-type posterior of ``(ω, θ)``."""
        return self._inner

    @property
    def elbo(self) -> float | None:
        """Evidence lower bound on the *original* clock.

        The inner fit bounds ``log P(t^c data)``; densities transform
        with the Jacobian ``Π c t_i^(c-1)``, so adding its log makes
        this bound directly comparable with ELBOs of other lifetime
        families fitted to the same untransformed data. (For grouped
        data the counts are invariant and the correction is zero.)
        """
        if self._inner.elbo is None:
            return None
        return self._inner.elbo + self._log_jacobian

    def _theta_component_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Shape/rate arrays of the inner θ mixture, built once."""
        cached = getattr(self, "_theta_arrays", None)
        if cached is None:
            cached = (self._inner._beta_shape, self._inner._beta_rate)
            self._theta_arrays = cached
        return cached

    def _beta_moment(self, order: float) -> float:
        """``E[β^order] = E[θ^(order/c)]`` via fractional gamma moments,
        evaluated for all mixture components in one broadcast."""
        from repro.stats.scipy_special import gammaln

        k = order / self._shape
        shapes, rates = self._theta_component_arrays()
        log_m = gammaln(shapes + k) - gammaln(shapes) - k * np.log(rates)
        return float(np.dot(self._inner.weights, np.exp(log_m)))

    # ------------------------------------------------------------------
    def mean(self, param: str) -> float:
        self._check_param(param)
        if param == "omega":
            return self._inner.mean("omega")
        return self._beta_moment(1.0)

    def variance(self, param: str) -> float:
        self._check_param(param)
        if param == "omega":
            return self._inner.variance("omega")
        return self._beta_moment(2.0) - self._beta_moment(1.0) ** 2

    def central_moment(self, param: str, k: int) -> float:
        if param == "omega":
            return self._inner.central_moment("omega", k)
        mean = self._beta_moment(1.0)
        total = 0.0
        for j in range(k + 1):
            total += (
                math.comb(k, j) * self._beta_moment(float(j)) * (-mean) ** (k - j)
            )
        return total

    def cross_moment(self) -> float:
        """``E[ω β] = Σ_N Pv(N) E[ω|N] E[θ^(1/c)|N]``, one broadcast over
        the mixture components."""
        from repro.stats.scipy_special import gammaln

        k = 1.0 / self._shape
        shapes, rates = self._theta_component_arrays()
        omega_means = self._inner._omega_shape / self._inner._omega_rate
        log_m = gammaln(shapes + k) - gammaln(shapes) - k * np.log(rates)
        return float(
            np.dot(self._inner.weights, omega_means * np.exp(log_m))
        )

    def quantile(self, param: str, q: float) -> float:
        self._check_param(param)
        if param == "omega":
            return self._inner.quantile("omega", q)
        # Monotone transform: quantiles map exactly.
        return self._inner.quantile("beta", q) ** (1.0 / self._shape)

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """Batched quantiles through the inner mixture's vectorized
        path; the monotone power transform maps β levels exactly."""
        self._check_param(param)
        if param == "omega":
            return self._inner.quantile_batch("omega", q)
        return self._inner.quantile_batch("beta", q) ** (1.0 / self._shape)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        draws = self._inner.sample(size, rng)
        draws[:, 1] = draws[:, 1] ** (1.0 / self._shape)
        return draws

    # ------------------------------------------------------------------
    # Reliability: map the window through the clock change.
    # ------------------------------------------------------------------
    def _transform_c(self, c):
        """Build the θ-space increment matching a β-space increment.

        ``G_W(t; β) = 1 - e^{-θ t^c}``: a Weibull reliability increment
        over ``(te, te+u]`` equals the exponential (α0=1) increment over
        ``(te^c, (te+u)^c]`` in the transformed clock.
        """
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            raise TypeError(
                "WeibullVBPosterior needs a ReliabilityIncrement to map "
                "the window through the clock change"
            )
        if c.alpha0 != 1.0:
            raise ValueError(
                "the Weibull reduction applies to exponential-kernel "
                "increments (alpha0 = 1)"
            )
        te_prime = c.te ** self._shape
        u_prime = (c.te + c.u) ** self._shape - te_prime
        return ReliabilityIncrement(alpha0=1.0, te=te_prime, u=u_prime)

    def reliability_point(self, c) -> float:
        return self._inner.reliability_point(self._transform_c(c))

    def reliability_cdf(self, r: float, c) -> float:
        return self._inner.reliability_cdf(r, self._transform_c(c))

    def reliability_quantile(self, q: float, c) -> float:
        return self._inner.reliability_quantile(q, self._transform_c(c))

    # ------------------------------------------------------------------
    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Joint density with the ``θ → β`` Jacobian ``c β^(c-1)``."""
        beta = np.asarray(beta, dtype=float)
        theta = beta**self._shape
        inner = self._inner.log_pdf_grid(np.asarray(omega, dtype=float), theta)
        jacobian = math.log(self._shape) + (self._shape - 1.0) * np.log(beta)
        return inner + jacobian[None, :]


def fit_vb2_weibull(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    shape: float,
    config: VBConfig | None = None,
) -> WeibullVBPosterior:
    """Fit VB2 for the Weibull-type NHPP SRM with fixed shape ``c``.

    Parameters
    ----------
    data:
        Failure-time or grouped data on the *original* clock.
    prior:
        Prior for ``(ω, θ)`` where ``θ = β^c`` — i.e. the ``beta``
        member is the prior of the *transformed* rate. (Conjugacy holds
        for ``θ``, not for ``β`` itself.)
    shape:
        The fixed Weibull shape ``c > 0``.

    A ``config.warm_start`` state flows straight through to the inner
    :func:`fit_vb2` call and therefore lives in ``θ``-space: extract it
    (via :func:`repro.core.warmstart.warm_start_from`) from a posterior
    fitted at the *same* shape ``c``, since the transformed clock
    ``t^c`` — and with it the latent-count support — changes with the
    shape. No transform of the state itself is needed;
    ``warm_start_from`` on a :class:`WeibullVBPosterior` already reads
    the inner ``θ``-space mixture.
    """
    if shape <= 0.0:
        raise ValueError("shape must be positive")
    if isinstance(data, FailureTimeData):
        transformed = FailureTimeData(
            data.times**shape,
            horizon=data.horizon**shape,
            unit=f"{data.unit}^{shape:g}",
        )
        # d(t^c)/dt = c t^(c-1) per observed time: the density Jacobian
        # that makes the transformed evidence comparable on the
        # original clock.
        log_jacobian = data.count * math.log(shape) + (
            shape - 1.0
        ) * data.sum_log_times
    elif isinstance(data, GroupedData):
        transformed = GroupedData(
            counts=data.counts,
            boundaries=data.boundaries**shape,
            unit=f"{data.unit}^{shape:g}",
        )
        log_jacobian = 0.0  # counts are invariant under the clock change
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")
    inner = fit_vb2(transformed, prior, alpha0=1.0, config=config)
    return WeibullVBPosterior(inner, shape, log_jacobian=log_jacobian)
