"""Quadrature rules for the direct numerical-integration posterior.

The NINT baseline (paper Section 4.1) evaluates the unnormalised joint
posterior on a two-dimensional tensor grid and integrates it with
composite rules. Working entirely in log space and normalising via
log-sum-exp makes the method immune to the underflow issues the paper
attributes to naive implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from repro.stats import scipy_special as sc

__all__ = ["gauss_legendre_panel", "simpson_weights", "TensorGrid"]


def gauss_legendre_panel(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on the interval ``[a, b]``.

    Parameters
    ----------
    a, b:
        Interval endpoints, ``a < b``.
    n:
        Number of nodes (exact for polynomials up to degree ``2n-1``).
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for ``n`` equally spaced points.

    ``n`` must be odd (an even number of panels). The weights integrate
    a function sampled at ``x_0, x_0+h, ..., x_0+(n-1)h``.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd number of points >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class TensorGrid:
    """Two-dimensional tensor-product quadrature grid.

    Attributes
    ----------
    x, y:
        1-D node arrays along each axis.
    wx, wy:
        Matching 1-D weight arrays.
    """

    x: np.ndarray
    y: np.ndarray
    wx: np.ndarray
    wy: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape != self.wx.shape or self.y.shape != self.wy.shape:
            raise ValueError("node and weight arrays must have matching shapes")
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ValueError("TensorGrid axes must be one-dimensional")

    @classmethod
    def simpson(
        cls,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        nx: int,
        ny: int,
    ) -> "TensorGrid":
        """Uniform Simpson grid; ``nx`` / ``ny`` are rounded up to odd."""
        nx += 1 - nx % 2
        ny += 1 - ny % 2
        x = np.linspace(*x_range, nx)
        y = np.linspace(*y_range, ny)
        return cls(
            x=x,
            y=y,
            wx=simpson_weights(nx, x[1] - x[0]),
            wy=simpson_weights(ny, y[1] - y[0]),
        )

    @classmethod
    def gauss_legendre(
        cls,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        nx: int,
        ny: int,
    ) -> "TensorGrid":
        """Gauss–Legendre tensor grid."""
        x, wx = gauss_legendre_panel(*x_range, nx)
        y, wy = gauss_legendre_panel(*y_range, ny)
        return cls(x=x, y=y, wx=wx, wy=wy)

    # ------------------------------------------------------------------
    @property
    def log_weight_matrix(self) -> np.ndarray:
        """``log(wx_i * wy_j)`` as a 2-D array (outer sum of logs)."""
        with np.errstate(divide="ignore"):
            return np.log(self.wx)[:, None] + np.log(self.wy)[None, :]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (indexing='ij') of the axes."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Integrate function values sampled on the grid."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.x.size, self.y.size):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.x.size}, {self.y.size})"
            )
        return float(self.wx @ values @ self.wy)

    def log_integrate(self, log_values: np.ndarray) -> float:
        """Stable ``log ∫∫ exp(log_values)`` over the grid.

        Weight signs are all positive for the rules above, so plain
        log-sum-exp applies.
        """
        log_values = np.asarray(log_values, dtype=float)
        if log_values.shape != (self.x.size, self.y.size):
            raise ValueError(
                f"log_values shape {log_values.shape} does not match grid "
                f"({self.x.size}, {self.y.size})"
            )
        combined = log_values + self.log_weight_matrix
        return float(sc.logsumexp(combined))

    def normalised_density(self, log_values: np.ndarray) -> np.ndarray:
        """Exponentiate ``log_values`` so the grid integral equals one."""
        log_norm = self.log_integrate(log_values)
        if not math.isfinite(log_norm):
            raise ValueError("density integrates to zero or infinity on this grid")
        return np.exp(np.asarray(log_values, dtype=float) - log_norm)
