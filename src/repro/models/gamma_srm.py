"""Gamma-type NHPP software reliability model (paper Section 5.2).

Fault lifetimes follow ``Gamma(α0, β)`` with *fixed* shape ``α0`` and
free rate ``β``. The free parameters are ``(ω, β)``; the shape selects
the family member:

* ``α0 = 1`` → Goel–Okumoto model (exponential lifetimes),
* ``α0 = 2`` → delayed S-shaped model (2-stage Erlang lifetimes).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
from repro.stats import scipy_special as sc

from repro.exceptions import ModelSpecificationError
from repro.models.base import NHPPModel
from repro.stats.special import log_gamma_sf

__all__ = ["GammaSRM"]


class GammaSRM(NHPPModel):
    """Gamma-type NHPP SRM with fixed lifetime shape ``α0``.

    Parameters
    ----------
    omega:
        Expected total number of faults ``ω > 0``.
    beta:
        Lifetime rate parameter ``β > 0``.
    alpha0:
        Fixed lifetime shape ``α0 > 0``. Not estimated; it defines which
        member of the gamma family the model is.
    """

    name = "gamma"

    def __init__(self, omega: float, beta: float, alpha0: float = 1.0) -> None:
        super().__init__(omega)
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ModelSpecificationError(f"beta must be positive, got {beta}")
        if not (alpha0 > 0.0 and math.isfinite(alpha0)):
            raise ModelSpecificationError(f"alpha0 must be positive, got {alpha0}")
        self._beta = float(beta)
        self._alpha0 = float(alpha0)

    # ------------------------------------------------------------------
    @property
    def beta(self) -> float:
        """Lifetime rate ``β``."""
        return self._beta

    @property
    def alpha0(self) -> float:
        """Fixed lifetime shape ``α0``."""
        return self._alpha0

    @property
    def params(self) -> Mapping[str, float]:
        return MappingProxyType({"omega": self.omega, "beta": self.beta})

    def replace(self, **changes: float) -> "GammaSRM":
        allowed = {"omega", "beta"}
        unknown = set(changes) - allowed
        if unknown:
            raise ModelSpecificationError(f"unknown parameters: {sorted(unknown)}")
        return type(self)(
            omega=changes.get("omega", self.omega),
            beta=changes.get("beta", self.beta),
            alpha0=self.alpha0,
        )

    # ------------------------------------------------------------------
    def lifetime_cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = sc.gammainc(self._alpha0, self._beta * np.clip(t, 0.0, None))
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_sf(self, t):
        t = np.asarray(t, dtype=float)
        out = sc.gammaincc(self._alpha0, self._beta * np.clip(t, 0.0, None))
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_log_sf(self, t: float) -> float:
        """Tail-stable ``log(1 - G(t))``."""
        return log_gamma_sf(t, self._alpha0, self._beta)

    def lifetime_log_pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, -np.inf)
        pos = t > 0
        tp = t[pos]
        out[pos] = (
            self._alpha0 * math.log(self._beta)
            + (self._alpha0 - 1.0) * np.log(tp)
            - self._beta * tp
            - float(sc.gammaln(self._alpha0))
        )
        if out.ndim == 0:
            return float(out)
        return out

    def sample_lifetimes(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(shape=self._alpha0, scale=1.0 / self._beta, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(omega={self.omega:g}, beta={self.beta:g}, "
            f"alpha0={self.alpha0:g})"
        )
