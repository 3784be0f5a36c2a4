"""Log-normal-type NHPP SRM (extension beyond the paper's gamma family).

Fault lifetimes are log-normal with fixed log-scale ``sigma`` and free
median parameter expressed as a rate ``β = 1 / exp(µ)``, so the free
parameters remain ``(ω, β)`` like every other family here. Log-normal
lifetime distributions capture the "hump-shaped, heavy-tailed"
detection profiles reported for several industrial datasets; the MLE
layer can fit it, while the VB layer (gamma-family specific) cleanly
rejects it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
from repro.stats import scipy_special as sc

from repro.exceptions import ModelSpecificationError
from repro.models.base import NHPPModel

__all__ = ["LogNormalSRM"]

_SQRT2 = math.sqrt(2.0)


class LogNormalSRM(NHPPModel):
    """Log-normal-type NHPP SRM.

    Parameters
    ----------
    omega:
        Expected total number of faults.
    beta:
        Inverse median lifetime: the lifetime log-mean is ``-log(beta)``.
    sigma:
        Fixed log-standard-deviation of the lifetime, ``> 0``.
    """

    name = "lognormal"

    def __init__(self, omega: float, beta: float, sigma: float = 1.0) -> None:
        super().__init__(omega)
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ModelSpecificationError(f"beta must be positive, got {beta}")
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ModelSpecificationError(f"sigma must be positive, got {sigma}")
        self._beta = float(beta)
        self._sigma = float(sigma)

    @property
    def beta(self) -> float:
        """Inverse median lifetime."""
        return self._beta

    @property
    def sigma(self) -> float:
        """Fixed lifetime log-standard-deviation."""
        return self._sigma

    @property
    def params(self) -> Mapping[str, float]:
        return MappingProxyType({"omega": self.omega, "beta": self.beta})

    def replace(self, **changes: float) -> "LogNormalSRM":
        allowed = {"omega", "beta"}
        unknown = set(changes) - allowed
        if unknown:
            raise ModelSpecificationError(f"unknown parameters: {sorted(unknown)}")
        return type(self)(
            omega=changes.get("omega", self.omega),
            beta=changes.get("beta", self.beta),
            sigma=self._sigma,
        )

    # ------------------------------------------------------------------
    def _z(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return (np.log(t) + math.log(self._beta)) / self._sigma

    def lifetime_cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        pos = t > 0
        out[pos] = 0.5 * (1.0 + sc.erf(self._z(t[pos]) / _SQRT2))
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones(t.shape)
        pos = t > 0
        out[pos] = 0.5 * sc.erfc(self._z(t[pos]) / _SQRT2)
        if out.ndim == 0:
            return float(out)
        return out

    def lifetime_log_pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, -np.inf)
        pos = t > 0
        z = self._z(t[pos])
        out[pos] = (
            -0.5 * z**2
            - np.log(t[pos])
            - math.log(self._sigma)
            - 0.5 * math.log(2.0 * math.pi)
        )
        if out.ndim == 0:
            return float(out)
        return out

    def sample_lifetimes(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(mean=-math.log(self._beta), sigma=self._sigma, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogNormalSRM(omega={self.omega:g}, beta={self.beta:g}, "
            f"sigma={self._sigma:g})"
        )
