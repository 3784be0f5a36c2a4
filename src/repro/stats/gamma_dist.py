"""Gamma distribution in the rate parametrisation.

The variational posteriors of both model parameters (``ω`` and ``β``)
are gamma distributions conditioned on the latent fault count, so this
small value class is the workhorse of the whole inference layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as st

from repro.stats import scipy_special as sc
from repro.stats.special import as_float, log_gamma_cdf, log_gamma_sf

__all__ = ["GammaDistribution", "gamma_kl_divergence", "gamma_from_uniform"]

#: Fast-path domain of :func:`gamma_from_uniform`: the Wilson–Hilferty
#: start is accurate enough there for two Halley steps to reach ~1e-11
#: relative error; outside it the exact (iterative) inversion is used.
_FAST_SHAPE_MIN = 8.0
_FAST_TAIL = 1e-10


def _gamma_from_uniform_fast(shape, u, log_gamma_shape):
    """Wilson–Hilferty start + two Halley refinements (unit rate).

    Each Halley step costs one ``gammainc`` (~6x cheaper than one
    ``gammaincinv`` Newton iteration set) plus elementwise arithmetic,
    which is what lets a lock-step Gibbs sweep invert every lane's
    gamma conditionals in a handful of vectorized calls.
    """
    z = sc.ndtri(u)
    inv9 = 1.0 / (9.0 * shape)
    cube_root = 1.0 - inv9 + z * np.sqrt(inv9)
    x = shape * cube_root * cube_root * cube_root
    shape_m1 = shape - 1.0
    for _ in range(2):
        residual = sc.gammainc(shape, x) - u
        # residual / pdf, with the pdf in log space to dodge overflow.
        step = residual * np.exp(x - shape_m1 * np.log(x) + log_gamma_shape)
        x = x - step / (1.0 - 0.5 * step * (shape_m1 / x - 1.0))
    return x


def gamma_from_uniform(
    shape: np.ndarray,
    u: np.ndarray,
    *,
    log_gamma_shape: np.ndarray | None = None,
) -> np.ndarray:
    """Unit-rate gamma quantiles ``G⁻¹(u; shape)``, elementwise.

    The uniform→variate map the lane-parallel Gibbs engine uses for its
    conjugate gamma conditionals (divide by the rate to get the
    ``Gamma(shape, rate)`` variate). A pure elementwise transform of
    ``(shape, u)``: a lane gets bit-identical variates whether inverted
    alone or inside a batch, which is the engine's identity contract.

    For ``shape >= 8`` away from the extreme tails the Wilson–Hilferty
    normal approximation plus two Halley steps on the regularised
    incomplete gamma delivers better than 1e-9 relative accuracy (the Gibbs
    conditionals here have shape ``>= m_e``, far inside this region);
    elsewhere the exact ``gammaincinv`` inversion is used. Passing
    ``log_gamma_shape = gammaln(shape)`` skips recomputing the constant
    when the shape vector repeats across sweeps.
    """
    shape = np.atleast_1d(as_float(shape))
    u = np.atleast_1d(as_float(u))
    shape, u = np.broadcast_arrays(shape, u)
    fast = (shape >= _FAST_SHAPE_MIN) & (u > _FAST_TAIL) & (u < 1.0 - _FAST_TAIL)
    if fast.all():
        if log_gamma_shape is None:
            log_gamma_shape = sc.gammaln(shape)
        else:
            log_gamma_shape = np.broadcast_to(
                as_float(log_gamma_shape), shape.shape
            )
        return _gamma_from_uniform_fast(shape, u, log_gamma_shape)
    out = np.empty(shape.shape, dtype=np.result_type(shape, u))
    slow = ~fast
    out[slow] = sc.gammaincinv(shape[slow], u[slow])
    if fast.any():
        lgs = (
            sc.gammaln(shape[fast])
            if log_gamma_shape is None
            else np.broadcast_to(
                as_float(log_gamma_shape), shape.shape
            )[fast]
        )
        out[fast] = _gamma_from_uniform_fast(shape[fast], u[fast], lgs)
    return out


def gamma_kl_divergence(p: "GammaDistribution", q: "GammaDistribution") -> float:
    """``KL(p || q)`` between two gamma distributions in closed form.

    ``KL = (a_p - a_q) ψ(a_p) - lnΓ(a_p) + lnΓ(a_q)
    + a_q (ln b_p - ln b_q) + a_p (b_q - b_p) / b_p``.
    """
    a_p, b_p = p.shape, p.rate
    a_q, b_q = q.shape, q.rate
    return float(
        (a_p - a_q) * sc.digamma(a_p)
        - sc.gammaln(a_p)
        + sc.gammaln(a_q)
        + a_q * (math.log(b_p) - math.log(b_q))
        + a_p * (b_q - b_p) / b_p
    )


@dataclass(frozen=True, slots=True)
class GammaDistribution:
    """``Gamma(shape, rate)`` with density ``rate^shape x^(shape-1)
    e^(-rate x) / Γ(shape)``.

    Parameters
    ----------
    shape:
        Shape parameter ``a > 0``.
    rate:
        Rate parameter ``b > 0`` (inverse scale).
    """

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """``E[X] = shape / rate``."""
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        """``Var[X] = shape / rate^2``."""
        return self.shape / self.rate**2

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    @property
    def mean_log(self) -> float:
        """``E[log X] = ψ(shape) - log(rate)``."""
        return float(sc.digamma(self.shape)) - math.log(self.rate)

    @property
    def mode(self) -> float:
        """Mode ``(shape-1)/rate`` for shape >= 1, else 0."""
        if self.shape >= 1.0:
            return (self.shape - 1.0) / self.rate
        return 0.0

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = Γ(shape+k) / (Γ(shape) rate^k)``."""
        if k < 0:
            if self.shape + k <= 0:
                raise ValueError(f"moment of order {k} does not exist for shape {self.shape}")
        log_m = float(sc.gammaln(self.shape + k) - sc.gammaln(self.shape)) - k * math.log(self.rate)
        return math.exp(log_m)

    def central_moment(self, k: int) -> float:
        """Central moment ``E[(X - E[X])^k]`` via the exact recurrence
        ``µ_(n+1) = (n/rate) (µ_n + mean µ_(n-1))``.

        The binomial expansion of raw moments cancels catastrophically
        for large shapes (relative width ``1/√shape``); the recurrence
        has no subtractions and stays exact.
        """
        if k < 0:
            raise ValueError(f"central moment order must be >= 0, got {k}")
        if k == 0:
            return 1.0
        prev, cur = 1.0, 0.0  # µ_0, µ_1
        for n in range(1, k):
            prev, cur = cur, (n / self.rate) * (cur + self.mean * prev)
        return cur

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "GammaDistribution":
        """Construct the gamma distribution with the given mean and
        standard deviation (moment matching, used for prior elicitation)."""
        if mean <= 0 or std <= 0:
            raise ValueError("mean and std must be positive")
        shape = (mean / std) ** 2
        rate = mean / std**2
        return cls(shape=shape, rate=rate)

    # ------------------------------------------------------------------
    # Densities and tail functions
    # ------------------------------------------------------------------
    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Log density; ``-inf`` for ``x <= 0``."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        xp = x[pos]
        out[pos] = (
            self.shape * math.log(self.rate)
            + (self.shape - 1.0) * np.log(xp)
            - self.rate * xp
            - float(sc.gammaln(self.shape))
        )
        if out.ndim == 0:
            return float(out)
        return out

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density."""
        return np.exp(self.log_pdf(x))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Cumulative distribution function."""
        x = np.asarray(x, dtype=float)
        out = sc.gammainc(self.shape, self.rate * np.clip(x, 0.0, None))
        if out.ndim == 0:
            return float(out)
        return out

    def sf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Survival function ``1 - cdf``."""
        x = np.asarray(x, dtype=float)
        out = sc.gammaincc(self.shape, self.rate * np.clip(x, 0.0, None))
        if out.ndim == 0:
            return float(out)
        return out

    def log_cdf(self, x: float) -> float:
        """Log CDF, stable in the deep lower tail."""
        return log_gamma_cdf(x, self.shape, self.rate)

    def log_sf(self, x: float) -> float:
        """Log survival function, stable in the deep upper tail."""
        return log_gamma_sf(x, self.shape, self.rate)

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantile function (inverse CDF)."""
        out = sc.gammaincinv(self.shape, np.asarray(q, dtype=float)) / self.rate
        if out.ndim == 0:
            return float(out)
        return out

    def mgf_negative(self, c: float) -> float:
        """``E[exp(-c X)] = (rate / (rate + c))^shape`` for ``c > -rate``.

        The software-reliability point estimate under a gamma posterior of
        ``ω`` is exactly this transform (paper Eq. 31 with Eq. 3).
        """
        if c <= -self.rate:
            raise ValueError("mgf_negative requires c > -rate")
        return math.exp(self.shape * (math.log(self.rate) - math.log(self.rate + c)))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. variates."""
        return rng.gamma(shape=self.shape, scale=1.0 / self.rate, size=size)

    def as_scipy(self) -> st.rv_continuous:
        """Frozen :mod:`scipy.stats` equivalent (for cross-checking)."""
        return st.gamma(a=self.shape, scale=1.0 / self.rate)
