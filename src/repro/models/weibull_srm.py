"""Weibull-type NHPP SRM (extension beyond the paper's gamma family).

Fault lifetimes follow a Weibull distribution with fixed shape ``c`` and
free rate ``β``:  ``G(t) = 1 - exp(-(βt)^c)``. ``c = 1`` recovers the
Goel–Okumoto model; ``c = 2`` is the Rayleigh-type SRM. Included so the
robustness generators can simulate data from a model outside the family
covered by the VB algorithm (the VB layer rejects it cleanly).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from repro.exceptions import ModelSpecificationError
from repro.models.base import NHPPModel

__all__ = ["WeibullSRM", "RayleighSRM"]


class WeibullSRM(NHPPModel):
    """Weibull-type NHPP SRM with fixed lifetime shape ``c``.

    Parameters
    ----------
    omega:
        Expected total number of faults.
    beta:
        Rate parameter ``β > 0`` (inverse scale of the Weibull lifetime).
    shape:
        Fixed Weibull shape ``c > 0``.
    """

    name = "weibull"

    def __init__(self, omega: float, beta: float, shape: float = 1.0) -> None:
        super().__init__(omega)
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ModelSpecificationError(f"beta must be positive, got {beta}")
        if not (shape > 0.0 and math.isfinite(shape)):
            raise ModelSpecificationError(f"shape must be positive, got {shape}")
        self._beta = float(beta)
        self._shape = float(shape)

    @property
    def beta(self) -> float:
        """Lifetime rate ``β``."""
        return self._beta

    @property
    def shape(self) -> float:
        """Fixed Weibull shape ``c``."""
        return self._shape

    @property
    def params(self) -> Mapping[str, float]:
        return MappingProxyType({"omega": self.omega, "beta": self.beta})

    def replace(self, **changes: float) -> "WeibullSRM":
        allowed = {"omega", "beta"}
        unknown = set(changes) - allowed
        if unknown:
            raise ModelSpecificationError(f"unknown parameters: {sorted(unknown)}")
        return type(self)(
            omega=changes.get("omega", self.omega),
            beta=changes.get("beta", self.beta),
            shape=self._shape,
        )

    # ------------------------------------------------------------------
    def lifetime_cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = -np.expm1(-((self._beta * np.clip(t, 0.0, None)) ** self._shape))
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-((self._beta * np.clip(t, 0.0, None)) ** self._shape))
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_log_pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, -np.inf)
        pos = t > 0
        bt = self._beta * t[pos]
        out[pos] = (
            math.log(self._shape)
            + math.log(self._beta)
            + (self._shape - 1.0) * np.log(bt)
            - bt**self._shape
        )
        if out.ndim == 0:
            return float(out)
        return out

    def sample_lifetimes(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.weibull(self._shape, size=size) / self._beta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(omega={self.omega:g}, beta={self.beta:g}, "
            f"shape={self._shape:g})"
        )


class RayleighSRM(WeibullSRM):
    """Rayleigh-type NHPP SRM: Weibull lifetimes with shape fixed at 2."""

    name = "rayleigh"

    def __init__(self, omega: float, beta: float) -> None:
        super().__init__(omega=omega, beta=beta, shape=2.0)

    def replace(self, **changes: float) -> "RayleighSRM":
        merged = dict(self.params)
        merged.update(changes)
        return RayleighSRM(omega=merged["omega"], beta=merged["beta"])
