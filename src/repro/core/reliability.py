"""Posterior inference for software reliability ``R(te+u | te)``.

For the gamma-type NHPP family, the reliability over ``(te, te+u]`` is
``R = exp(-ω c(β))`` with ``c(β) = G(te+u; α0, β) - G(te; α0, β)``
(paper Eq. 3). Every posterior class implements the two primitives
``reliability_point`` and ``reliability_cdf`` in terms of ``c``; this
module supplies the user-facing wrapper: it builds ``c`` from the model
family and packages the point estimate with a two-sided credible
interval (paper Tables 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.stats import scipy_special as sc

from repro.bayes.joint import JointPosterior

__all__ = ["ReliabilityIncrement", "ResidualSurvival", "reliability_increment",
           "ReliabilityEstimate", "estimate_reliability"]


@dataclass(frozen=True)
class ReliabilityIncrement:
    """The scalar function ``c(β) = G(te+u; α0, β) - G(te; α0, β)``.

    Frozen and hashable so posterior implementations can cache the
    quadrature tables they build around it.
    """

    alpha0: float
    te: float
    u: float

    def __post_init__(self) -> None:
        # Written as `not (x >= 0)` so NaN fails too; u = +inf is the
        # residual-survival limit and stays valid.
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")
        if not self.te >= 0.0:
            raise ValueError(f"te must be non-negative, got {self.te}")
        if not self.u >= 0.0:
            raise ValueError(f"u must be non-negative, got {self.u}")

    def __call__(self, beta: float | np.ndarray) -> float | np.ndarray:
        beta = np.asarray(beta, dtype=float)
        # SF difference: better conditioned than CDF difference when both
        # arguments sit in the right tail (large beta * te).
        out = sc.gammaincc(self.alpha0, beta * self.te) - sc.gammaincc(
            self.alpha0, beta * (self.te + self.u)
        )
        out = np.clip(out, 0.0, 1.0)
        if out.ndim == 0:
            return float(out)
        return out


def reliability_increment(alpha0: float, te: float, u: float) -> ReliabilityIncrement:
    """Build the ``c(β)`` function for a gamma-type model."""
    return ReliabilityIncrement(alpha0=alpha0, te=te, u=u)


@dataclass(frozen=True)
class ResidualSurvival:
    """``c(β) = 1 - G(te; α0, β)``: the ``u → ∞`` limit of
    :class:`ReliabilityIncrement`.

    With this ``c``, ``exp(-ω c(β))`` is the probability that no fault
    remains latent at ``te``, and ``ω c(β)`` is the expected residual
    fault count — the derived quantity whose posterior calibration the
    SBC engine checks. Frozen and hashable so posteriors can cache
    quadrature tables per instance, like :class:`ReliabilityIncrement`.
    """

    alpha0: float
    te: float

    def __post_init__(self) -> None:
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")
        if not self.te >= 0.0:
            raise ValueError(f"te must be non-negative, got {self.te}")

    def __call__(self, beta: float | np.ndarray) -> float | np.ndarray:
        beta = np.asarray(beta, dtype=float)
        out = sc.gammaincc(self.alpha0, beta * self.te)
        out = np.clip(out, 0.0, 1.0)
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Point and interval estimate of ``R(te+u | te)``."""

    point: float
    lower: float
    upper: float
    level: float
    te: float
    u: float
    method: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"R({self.te:g}+{self.u:g} | {self.te:g}) = {self.point:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] @ {self.level:.0%} "
            f"({self.method})"
        )


def estimate_reliability(
    posterior: JointPosterior,
    te: float,
    u: float,
    *,
    alpha0: float = 1.0,
    level: float = 0.99,
) -> ReliabilityEstimate:
    """Posterior point estimate and two-sided credible interval of the
    software reliability for the period ``(te, te+u]``.

    Parameters
    ----------
    posterior:
        Any joint posterior over ``(ω, β)`` from this package.
    te:
        End of the observation period (same time unit as the data the
        posterior was fitted on).
    u:
        Length of the prediction window.
    alpha0:
        Lifetime shape of the gamma-type model family.
    level:
        Credible level (the paper uses 0.99).
    """
    c = reliability_increment(alpha0, te, u)
    point, lower, upper = posterior.reliability_estimate(level, c)
    return ReliabilityEstimate(
        point=point,
        lower=lower,
        upper=upper,
        level=level,
        te=te,
        u=u,
        method=posterior.method_name,
    )
