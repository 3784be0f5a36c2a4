"""Prior distributions for the NHPP model parameters.

The paper uses independent gamma priors for ``ω`` and ``β`` (conjugate
to the complete-data likelihood) in the "Info" scenario, elicited from
a mean and standard deviation, and improper flat priors in the "NoInfo"
scenario. Improper priors are represented as gamma priors with
degenerate hyper-parameters so the conjugate update algebra applies
uniformly:

* flat ``p(x) ∝ 1``      → ``shape = 1, rate = 0``
* scale-invariant ``∝ 1/x`` → ``shape = 0, rate = 0``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from repro.stats import scipy_special as sc

from repro.exceptions import PriorSpecificationError

__all__ = ["GammaPrior", "FlatPrior", "ScaleInvariantPrior", "ModelPrior"]


@dataclass(frozen=True)
class GammaPrior:
    """(Possibly improper) gamma prior ``p(x) ∝ x^(shape-1) e^(-rate x)``.

    Parameters
    ----------
    shape:
        Hyper-parameter ``m >= 0`` (the paper's ``m_ω`` / ``m_β``).
    rate:
        Hyper-parameter ``φ >= 0`` (the paper's ``φ_ω`` / ``φ_β``).
        ``rate == 0`` makes the prior improper.
    """

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 0.0 or not math.isfinite(self.shape):
            raise PriorSpecificationError(f"shape must be >= 0, got {self.shape}")
        if self.rate < 0.0 or not math.isfinite(self.rate):
            raise PriorSpecificationError(f"rate must be >= 0, got {self.rate}")

    # ------------------------------------------------------------------
    def canonical(self) -> dict:
        """Stable content view for cache-key serialization."""
        return {"shape": float(self.shape), "rate": float(self.rate)}

    @property
    def is_proper(self) -> bool:
        """True when the prior integrates to one."""
        return self.shape > 0.0 and self.rate > 0.0

    @property
    def mean(self) -> float:
        """Prior mean (proper priors only)."""
        if not self.is_proper:
            raise PriorSpecificationError("improper prior has no mean")
        return self.shape / self.rate

    @property
    def std(self) -> float:
        """Prior standard deviation (proper priors only)."""
        if not self.is_proper:
            raise PriorSpecificationError("improper prior has no std")
        return math.sqrt(self.shape) / self.rate

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "GammaPrior":
        """Elicit hyper-parameters by moment matching, as the paper's
        "Info" scenario does (Section 6)."""
        if mean <= 0 or std <= 0:
            raise PriorSpecificationError("mean and std must be positive")
        return cls(shape=(mean / std) ** 2, rate=mean / std**2)

    # ------------------------------------------------------------------
    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Unnormalised for improper priors, normalised otherwise."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        xp = x[pos]
        val = (self.shape - 1.0) * np.log(xp) - self.rate * xp
        if self.is_proper:
            val = val + self.shape * math.log(self.rate) - float(sc.gammaln(self.shape))
        out[pos] = val
        if out.ndim == 0:
            return float(out)
        return out

    def log_normaliser(self) -> float:
        """``log ∫ x^(shape-1) e^(-rate x) dx`` for proper priors; raises
        otherwise (improper priors contribute no evidence constant)."""
        if not self.is_proper:
            raise PriorSpecificationError("improper prior has no normaliser")
        return float(sc.gammaln(self.shape)) - self.shape * math.log(self.rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_proper:
            return (
                f"GammaPrior(shape={self.shape:g}, rate={self.rate:g}, "
                f"mean={self.mean:g}, std={self.std:g})"
            )
        return f"GammaPrior(shape={self.shape:g}, rate={self.rate:g}, improper)"


def FlatPrior() -> GammaPrior:
    """Improper flat prior ``p(x) ∝ 1`` on the positive half line."""
    return GammaPrior(shape=1.0, rate=0.0)


def ScaleInvariantPrior() -> GammaPrior:
    """Improper scale-invariant prior ``p(x) ∝ 1/x``."""
    return GammaPrior(shape=0.0, rate=0.0)


@dataclass(frozen=True)
class ModelPrior:
    """Independent priors for the two model parameters ``(ω, β)``."""

    omega: GammaPrior
    beta: GammaPrior

    @classmethod
    def informative(
        cls,
        omega_mean: float,
        omega_std: float,
        beta_mean: float,
        beta_std: float,
    ) -> "ModelPrior":
        """Moment-matched gamma priors (paper's "Info" scenario)."""
        return cls(
            omega=GammaPrior.from_mean_std(omega_mean, omega_std),
            beta=GammaPrior.from_mean_std(beta_mean, beta_std),
        )

    @classmethod
    def noninformative(cls) -> "ModelPrior":
        """Flat priors on both parameters (paper's "NoInfo" scenario)."""
        return cls(omega=FlatPrior(), beta=FlatPrior())

    def canonical(self) -> dict:
        """Stable content view for cache-key serialization."""
        return {"omega": self.omega.canonical(), "beta": self.beta.canonical()}

    @property
    def is_proper(self) -> bool:
        """True when both marginal priors are proper."""
        return self.omega.is_proper and self.beta.is_proper

    def log_pdf(self, omega: float | np.ndarray, beta: float | np.ndarray):
        """Joint (independent) log prior density."""
        return self.omega.log_pdf(omega) + self.beta.log_pdf(beta)
