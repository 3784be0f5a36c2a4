"""Abstract interface for joint posteriors of ``(ω, β)``.

Every approximation method in this package — NINT, Laplace, MCMC, VB1
and VB2 — returns an object implementing this interface, so the
experiment harness can compare them uniformly: moments (Table 1 of the
paper), marginal credible intervals (Tables 2–3), density grids
(Figure 1) and software-reliability functionals (Tables 4–5).

Reliability support
-------------------
Software reliability for a gamma-type model is ``R = exp(-ω c(β))``
where ``c(β) = G(te+u; β) - G(te; β)`` depends only on ``β`` (paper
Eq. 3). Posteriors therefore expose reliability through the scalar
function ``c``; :mod:`repro.core.reliability` builds ``c`` from the
model family and packages results.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable

import numpy as np

from repro.stats.rootfind import bisect_increasing

__all__ = ["JointPosterior", "PARAM_NAMES"]

PARAM_NAMES = ("omega", "beta")

#: ``log s`` bracket of the residual-count solve: below ``s ~ 1.1e-16``
#: ``e^(-s)`` is 1 in floats, above ``s ~ 745`` it is 0.
_LOG_S_MIN = math.log(1.1e-16)
_LOG_S_MAX = math.log(746.0)


class JointPosterior(abc.ABC):
    """Joint posterior distribution of the pair ``(ω, β)``."""

    #: Label used in comparison tables ("NINT", "LAPL", "MCMC", "VB1", "VB2").
    method_name: str = "?"

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def mean(self, param: str) -> float:
        """Posterior mean of ``param`` ("omega" or "beta")."""

    @abc.abstractmethod
    def variance(self, param: str) -> float:
        """Posterior variance of ``param``."""

    @abc.abstractmethod
    def cross_moment(self) -> float:
        """``E[ω β]`` under the joint posterior."""

    def covariance(self) -> float:
        """``Cov(ω, β)``."""
        return self.cross_moment() - self.mean("omega") * self.mean("beta")

    def covariance_matrix(self) -> np.ndarray:
        """2x2 matrix in the order (omega, beta)."""
        cov = self.covariance()
        return np.array(
            [
                [self.variance("omega"), cov],
                [cov, self.variance("beta")],
            ]
        )

    def std(self, param: str) -> float:
        """Posterior standard deviation."""
        return math.sqrt(max(self.variance(param), 0.0))

    def central_moment(self, param: str, k: int) -> float:
        """k-th central moment; subclasses with analytic structure
        override. The default integrates via :meth:`quantile`-free means
        and must be overridden where no generic path exists."""
        raise NotImplementedError(
            f"{type(self).__name__} does not provide central moments of order {k}"
        )

    def correlation(self) -> float:
        """Posterior correlation of ``(ω, β)``."""
        denom = self.std("omega") * self.std("beta")
        if denom == 0.0:
            return 0.0
        return self.covariance() / denom

    # ------------------------------------------------------------------
    # Marginal quantiles and intervals
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def quantile(self, param: str, q: float) -> float:
        """Marginal posterior quantile of ``param`` at level ``q``."""

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """Marginal posterior quantiles of ``param`` at many levels.

        The default loops over :meth:`quantile`; posteriors with a
        vectorized quantile path (VB mixtures, grid and sample
        posteriors) override it so the whole batch costs one
        simultaneous inversion. Interval consumers — central credible
        intervals, the HPD search in :mod:`repro.core.hpd`, coverage
        campaigns — should prefer this entry point.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        return np.array([self.quantile(param, float(level)) for level in levels])

    def credible_interval(self, param: str, level: float) -> tuple[float, float]:
        """Central two-sided credible interval (paper uses level 0.99)."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        tail = 0.5 * (1.0 - level)
        lower, upper = self.quantile_batch(param, np.array([tail, 1.0 - tail]))
        return float(lower), float(upper)

    @abc.abstractmethod
    def cdf(self, param: str, x: float) -> float:
        """Marginal posterior CDF of ``param`` at ``x``. The validation
        layer uses it for probability-integral-transform (SBC rank)
        statistics."""

    # ------------------------------------------------------------------
    # Density (for Figure 1 style contour data); optional
    # ------------------------------------------------------------------
    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Joint log density evaluated on a tensor grid
        (shape ``(len(omega), len(beta))``); optional capability."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a joint density"
        )

    # ------------------------------------------------------------------
    # Software reliability R = exp(-omega * c(beta))
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """Posterior mean of ``R = exp(-ω c(β))`` (paper Eq. 31)."""

    @abc.abstractmethod
    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``P(R <= r)`` under the posterior (the inversion target of
        paper Eq. 32)."""

    def reliability_quantile(
        self, q: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        """Quantile of the reliability posterior by bisection on
        :meth:`reliability_cdf` over ``[0, 1]``."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        cdf = self._reliability_cdf_at(c)
        r = bisect_increasing(lambda r: cdf(r) - q, 0.0, 1.0, xtol=1e-10)
        # A CDF that stays 0 below r = 1 means R = 1 surely; the bracket
        # midpoint would sit a tolerance below it.
        if 1.0 - r <= 1e-10 and cdf(r) == 0.0:
            return 1.0
        return r

    def _reliability_cdf_at(
        self, c: Callable[[np.ndarray], np.ndarray]
    ) -> Callable[[float], float]:
        """``r ↦ P(R ≤ r)`` for the window ``c``, for solvers that
        evaluate it many times; posteriors that build per-window cells
        override it to build them once per solve."""
        return lambda r: self.reliability_cdf(r, c)

    def reliability_quantile_batch(
        self, q: np.ndarray, c: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Reliability quantiles at many levels.

        The default loops over :meth:`reliability_quantile`; sample
        posteriors override it so the shared work (transforming and
        sorting the reliability samples) happens once for the whole
        batch. Interval consumers should prefer this entry point, like
        :meth:`quantile_batch` for the marginals.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        return np.array(
            [self.reliability_quantile(float(level), c) for level in levels]
        )

    def reliability_interval(
        self, level: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, float]:
        """Central two-sided credible interval for the reliability."""
        lower, upper = self.reliability_quantile_batch(_central(level), c)
        return float(lower), float(upper)

    def reliability_estimate(
        self, q: np.ndarray, c: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, np.ndarray]:
        """``(point, quantiles)``: :meth:`reliability_point` and
        :meth:`reliability_quantile_batch` at the levels ``q`` of one
        window. Posteriors that build per-window cells override it to
        build them once for the point and every level."""
        return self.reliability_point(c), self.reliability_quantile_batch(q, c)

    # ------------------------------------------------------------------
    # Residual fault count D = omega * c(beta), c = 1 - G(te)
    # ------------------------------------------------------------------
    def residual_quantile_batch(
        self, q: np.ndarray, survival: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Quantiles of the expected residual fault count
        ``D = ω c(β)`` with ``c`` a :class:`~repro.core.reliability.
        ResidualSurvival` (``c(β) = 1 - G(te; β)``).

        ``D = -log R`` for the reliability ``R = exp(-ω c(β))``, so
        ``P(D ≤ s) = 1 - P(R ≤ e^(-s))`` and the ``q``-quantile of ``D``
        is the root of ``P(R ≤ e^(-s)) = 1 - q``. It is solved in
        ``s`` itself, by bisection in ``log s`` to a relative tolerance
        of 1e-10: bisecting ``r`` would resolve ``D`` only to
        ``~1e-10 e^D``. Posteriors whose reliability CDF is not a
        genuine probability (the Laplace delta method) override this
        with a native approximation, and sample posteriors with the
        exact rank rule.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(~((levels > 0.0) & (levels < 1.0))):
            raise ValueError("quantile levels must be in (0, 1)")
        cdf = self._reliability_cdf_at(survival)
        # Below s ~ 1.1e-16, e^(-s) is 1 in floats: such levels give 0.
        at_one = cdf(math.nextafter(1.0, 0.0))
        out = np.zeros_like(levels)
        for i, level in enumerate(levels):
            complement = 1.0 - float(level)
            if at_one > complement:
                out[i] = math.exp(bisect_increasing(
                    lambda t: complement - cdf(math.exp(-math.exp(t))),
                    _LOG_S_MIN, _LOG_S_MAX, xtol=1e-10, rtol=0.0,
                ))
        return out

    def residual_interval(
        self, level: float, survival: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, float]:
        """Central two-sided credible interval for the residual fault
        count (the robustness campaign's second coverage target)."""
        lower, upper = self.residual_quantile_batch(_central(level), survival)
        return float(lower), float(upper)

    # ------------------------------------------------------------------
    def moments_summary(self) -> dict[str, float]:
        """The five quantities of the paper's Table 1."""
        return {
            "E[omega]": self.mean("omega"),
            "E[beta]": self.mean("beta"),
            "Var(omega)": self.variance("omega"),
            "Var(beta)": self.variance("beta"),
            "Cov(omega,beta)": self.covariance(),
        }

    @staticmethod
    def _check_param(param: str) -> str:
        if param not in PARAM_NAMES:
            raise ValueError(f"param must be one of {PARAM_NAMES}, got {param!r}")
        return param


def _central(level: float) -> np.ndarray:
    """The tail levels ``[(1 - level)/2, (1 + level)/2]`` of a central
    interval."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    tail = 0.5 * (1.0 - level)
    return np.array([tail, 1.0 - tail])
