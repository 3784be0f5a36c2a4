"""Multivariate-normal joint posterior (the Laplace approximation).

Mirrors the paper's LAPL method faithfully, including its known
pathologies: marginal quantiles are normal quantiles (which can be
negative for a positive parameter), the reliability point estimate is
the plug-in value at the MAP, and the reliability interval comes from
the delta method — so its upper bound can exceed one, exactly as the
bracketed values in the paper's Tables 2–4 show.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy import stats as st

from repro.bayes.joint import JointPosterior

__all__ = ["NormalPosterior"]

_PARAM_INDEX = {"omega": 0, "beta": 1}


class NormalPosterior(JointPosterior):
    """Bivariate normal posterior ``N(mean, cov)`` over ``(ω, β)``.

    Parameters
    ----------
    mean:
        Length-2 location (the MAP estimate).
    cov:
        2x2 covariance (inverse negative Hessian at the MAP).
    c_derivative:
        Optional callable ``beta -> dc/dβ`` used by the delta-method
        reliability interval; when absent a central difference on ``c``
        is used.
    """

    method_name = "LAPL"

    def __init__(
        self,
        mean: np.ndarray,
        cov: np.ndarray,
        *,
        c_derivative: Callable[[float], float] | None = None,
    ) -> None:
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must have shape (2,)")
        if cov.shape != (2, 2):
            raise ValueError("cov must have shape (2, 2)")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and cov must be finite")
        if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0:
            raise ValueError("covariance diagonal must be positive")
        self._mean = mean
        self._cov = 0.5 * (cov + cov.T)  # symmetrise
        self._c_derivative = c_derivative

    # ------------------------------------------------------------------
    @property
    def map_estimate(self) -> np.ndarray:
        """The MAP location (copy)."""
        return self._mean.copy()

    def with_covariance(self, cov: np.ndarray) -> "NormalPosterior":
        """Copy of this posterior with a replaced covariance.

        Keeps the MAP location and the reliability-derivative hook; the
        sandwich correction (:func:`repro.bayes.sandwich.apply_sandwich`)
        uses this because an affine spread change of a normal is again a
        normal in closed form.
        """
        return NormalPosterior(
            self._mean, np.asarray(cov, dtype=float),
            c_derivative=self._c_derivative,
        )

    def mean(self, param: str) -> float:
        return float(self._mean[_PARAM_INDEX[self._check_param(param)]])

    def variance(self, param: str) -> float:
        idx = _PARAM_INDEX[self._check_param(param)]
        return float(self._cov[idx, idx])

    def central_moment(self, param: str, k: int) -> float:
        """Normal central moments: 0 for odd k, ``σ^k (k-1)!!`` for even."""
        sigma = self.std(param)
        if k % 2 == 1:
            return 0.0
        double_factorial = 1
        for factor in range(k - 1, 0, -2):
            double_factorial *= factor
        return float(double_factorial) * sigma**k

    def cross_moment(self) -> float:
        return float(self._cov[0, 1] + self._mean[0] * self._mean[1])

    def quantile(self, param: str, q: float) -> float:
        idx = _PARAM_INDEX[self._check_param(param)]
        return float(
            st.norm.ppf(q, loc=self._mean[idx], scale=math.sqrt(self._cov[idx, idx]))
        )

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """All levels through one vectorized normal ppf call."""
        idx = _PARAM_INDEX[self._check_param(param)]
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        return np.asarray(
            st.norm.ppf(
                levels, loc=self._mean[idx], scale=math.sqrt(self._cov[idx, idx])
            ),
            dtype=float,
        )

    def cdf(self, param: str, x: float) -> float:
        idx = _PARAM_INDEX[self._check_param(param)]
        return float(
            st.norm.cdf(x, loc=self._mean[idx], scale=math.sqrt(self._cov[idx, idx]))
        )

    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        beta = np.asarray(beta, dtype=float)
        mesh = np.stack(
            np.meshgrid(omega, beta, indexing="ij"), axis=-1
        )  # (n_omega, n_beta, 2)
        return st.multivariate_normal(self._mean, self._cov, allow_singular=True).logpdf(
            mesh
        )

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Joint normal samples; may contain negative coordinates, as is
        inherent to this approximation."""
        return rng.multivariate_normal(self._mean, self._cov, size=size)

    # ------------------------------------------------------------------
    # Reliability: plug-in point, delta-method interval (paper Section 6)
    # ------------------------------------------------------------------
    def _reliability_mean_std(
        self, c: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, float]:
        omega_hat, beta_hat = self._mean
        c_hat = float(c(beta_hat))
        r_hat = math.exp(-omega_hat * c_hat)
        if self._c_derivative is not None:
            dc = float(self._c_derivative(beta_hat))
        else:
            step = 1e-6 * beta_hat
            dc = float(c(beta_hat + step) - c(beta_hat - step)) / (2.0 * step)
        grad = np.array([-c_hat * r_hat, -omega_hat * dc * r_hat])
        var = float(grad @ self._cov @ grad)
        return r_hat, math.sqrt(max(var, 0.0))

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        r_hat, _ = self._reliability_mean_std(c)
        return r_hat

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        r_hat, sd = self._reliability_mean_std(c)
        if sd == 0.0:
            return 0.0 if r < r_hat else 1.0
        return float(st.norm.cdf(r, loc=r_hat, scale=sd))

    def reliability_quantile(
        self, q: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        """Normal quantile; deliberately *not* clipped to [0, 1] so the
        method's over-coverage is visible, as in the paper's tables."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        r_hat, sd = self._reliability_mean_std(c)
        if sd == 0.0:  # a degenerate window: R is r_hat surely
            return r_hat
        return float(st.norm.ppf(q, loc=r_hat, scale=sd))

    # ------------------------------------------------------------------
    # Residual fault count: delta method on D = omega * c(beta) directly
    # ------------------------------------------------------------------
    def residual_quantile_batch(
        self, q: np.ndarray, survival: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Delta-method normal quantiles of ``D = ω c(β)``.

        The generic ``-log``-of-reliability transform is ill-defined
        here (the delta-method reliability quantile can leave ``(0, 1]``),
        so LAPL linearises ``D`` itself — with the same known pathology
        that the lower bound can be negative.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        omega_hat, beta_hat = self._mean
        c_hat = float(survival(beta_hat))
        step = 1e-6 * beta_hat
        dc = float(survival(beta_hat + step) - survival(beta_hat - step)) / (
            2.0 * step
        )
        grad = np.array([c_hat, omega_hat * dc])
        var = float(grad @ self._cov @ grad)
        if not var > 0.0:  # a degenerate window: D is its plug-in surely
            return np.full(levels.shape, omega_hat * c_hat)
        return np.asarray(
            st.norm.ppf(levels, loc=omega_hat * c_hat, scale=math.sqrt(var)),
            dtype=float,
        )
