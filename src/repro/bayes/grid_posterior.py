"""Joint posterior represented on a two-dimensional quadrature grid.

This is the representation behind the NINT baseline (paper Section
4.1): the unnormalised log posterior is evaluated on a tensor grid and
normalised by log-sum-exp; all functionals (moments, marginal
quantiles, reliability transforms) are quadrature sums over the grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.bayes.joint import JointPosterior

__all__ = ["GridPosterior"]


class GridPosterior(JointPosterior):
    """Posterior of ``(ω, β)`` on a tensor quadrature grid.

    Parameters
    ----------
    grid:
        A :class:`repro.stats.quadrature.TensorGrid`; axis 0 is ``ω``,
        axis 1 is ``β``.
    log_post:
        Unnormalised log posterior evaluated on the grid,
        shape ``(len(grid.x), len(grid.y))``.
    log_pdf_fn:
        Optional callable ``(omega_nodes, beta_nodes) -> matrix`` that
        re-evaluates the unnormalised log posterior on arbitrary nodes;
        enables :meth:`log_pdf_grid` beyond the stored grid. A
        module-level function or a ``functools.partial`` of one keeps
        the posterior picklable (parallel scenario runs).
    """

    method_name = "NINT"

    def __init__(
        self,
        grid,
        log_post: np.ndarray,
        log_pdf_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        log_post = np.asarray(log_post, dtype=float)
        if log_post.shape != (grid.x.size, grid.y.size):
            raise ValueError(
                f"log_post shape {log_post.shape} does not match grid "
                f"({grid.x.size}, {grid.y.size})"
            )
        self._grid = grid
        self._log_norm = grid.log_integrate(log_post)
        if not math.isfinite(self._log_norm):
            raise ValueError("posterior mass on the grid is zero or infinite")
        self._density = np.exp(log_post - self._log_norm)
        self._log_pdf_fn = log_pdf_fn
        # Cell masses for marginal work: density times weights.
        self._mass = self._density * grid.wx[:, None] * grid.wy[None, :]
        self._mass_total = float(self._mass.sum())
        self._marginal_omega = self._mass.sum(axis=1)  # already weight-included
        self._marginal_beta = self._mass.sum(axis=0)
        # Reliability CDF tables: per β column, the cumulative trapezoid
        # ω mass at each ω node (the β quadrature weight included), the
        # column totals and their sum.
        columns = self._density * grid.wy[None, :]
        d_omega = np.diff(grid.x)
        cell_mass = 0.5 * (columns[1:, :] + columns[:-1, :]) * d_omega[:, None]
        self._column_cum = np.vstack(
            [np.zeros(columns.shape[1]), np.cumsum(cell_mass, axis=0)]
        )
        self._column_totals = self._column_cum[-1, :]
        self._column_norm = float(self._column_totals.sum())

    # ------------------------------------------------------------------
    @property
    def grid(self):
        """The underlying quadrature grid."""
        return self._grid

    @property
    def log_normaliser(self) -> float:
        """``log ∫∫ exp(log_post)`` over the grid: the evidence estimate
        (exact up to truncation and quadrature error)."""
        return self._log_norm

    @property
    def density(self) -> np.ndarray:
        """Normalised joint density on the grid (copy)."""
        return self._density.copy()

    def _axis(self, param: str) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, marginal masses) for the requested parameter."""
        self._check_param(param)
        if param == "omega":
            return self._grid.x, self._marginal_omega
        return self._grid.y, self._marginal_beta

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self, param: str) -> float:
        nodes, masses = self._axis(param)
        return float(np.dot(masses, nodes) / self._mass_total)

    def variance(self, param: str) -> float:
        nodes, masses = self._axis(param)
        mu = self.mean(param)
        return float(np.dot(masses, (nodes - mu) ** 2) / self._mass_total)

    def central_moment(self, param: str, k: int) -> float:
        nodes, masses = self._axis(param)
        mu = float(np.dot(masses, nodes) / self._mass_total)
        return float(np.dot(masses, (nodes - mu) ** k) / self._mass_total)

    def cross_moment(self) -> float:
        outer = self._grid.x[:, None] * self._grid.y[None, :]
        return float((self._mass * outer).sum() / self._mass_total)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _cdf_table(self, param: str) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, cdf)`` of the trapezoid CDF, monotone by
        construction: quadrature masses converted back to density
        values and cumulated over the node spacing."""
        nodes, masses = self._axis(param)
        grid_w = self._grid.wx if param == "omega" else self._grid.wy
        density = np.where(grid_w > 0.0, masses / grid_w, 0.0)
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(nodes)))
        )
        cdf /= cdf[-1]
        return nodes, cdf

    def quantile(self, param: str, q: float) -> float:
        """Marginal quantile by inverting the piecewise-linear CDF built
        with trapezoid masses (monotone by construction)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        nodes, cdf = self._cdf_table(param)
        return float(np.interp(q, cdf, nodes))

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """All levels from one CDF-table build and one interpolation."""
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if levels.size and not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError("quantile levels must be in (0, 1)")
        nodes, cdf = self._cdf_table(param)
        return np.interp(levels, cdf, nodes)

    def cdf(self, param: str, x: float) -> float:
        """Marginal CDF from the same trapezoid construction as
        :meth:`quantile`."""
        nodes, cdf = self._cdf_table(param)
        return float(np.interp(x, nodes, cdf, left=0.0, right=1.0))

    # ------------------------------------------------------------------
    # Density re-evaluation (Figure 1)
    # ------------------------------------------------------------------
    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        if self._log_pdf_fn is None:
            raise NotImplementedError(
                "this GridPosterior was built without a re-evaluation callable"
            )
        return (
            np.asarray(self._log_pdf_fn(np.asarray(omega), np.asarray(beta)))
            - self._log_norm
        )

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        c_values = np.asarray(c(self._grid.y), dtype=float)  # per beta node
        r_matrix = np.exp(-np.outer(self._grid.x, c_values))
        point = (self._mass * r_matrix).sum() / self._mass_total
        return float(min(max(point, 0.0), 1.0))

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``P(R <= r)``: for each β column, the ω mass above the
        threshold ``-log r / c(β)``, interpolated inside grid cells.

        All columns are interpolated at once. The columns' shares are
        added left to right, as a per-column ``np.interp`` loop would."""
        if r <= 0.0:
            return 0.0
        if r >= 1.0:
            return 1.0
        cum, col_totals = self._column_cum, self._column_totals
        c_values = np.asarray(c(self._grid.y), dtype=float)
        # A slice with c <= 0 has reliability exactly 1, so R <= r < 1
        # is impossible there; an empty column adds nothing.
        kept = np.flatnonzero((col_totals != 0.0) & ~(c_values <= 0.0))
        if kept.size == 0:
            return 0.0
        with np.errstate(over="ignore"):  # c underflow: the cut is +inf
            cut = -math.log(r) / c_values[kept]
        below = _interp_columns(cut, self._grid.x, cum, kept)
        total = np.cumsum(col_totals[kept] - below)[-1]
        return float(total / self._column_norm)


def _interp_columns(
    x: np.ndarray, nodes: np.ndarray, table: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """``np.interp(x[i], nodes, table[:, columns[i]])`` for every ``i``,
    bit for bit: the same cell search, the same formula
    ``slope * (x - x_k) + y_k``, ends clamped to the first/last row, and
    NaN propagated. np.interp's rule for an exact node hit is not
    needed: the nodes are distinct and the table finite, so the slope
    is finite and the formula returns ``y_k`` there."""
    last = nodes.size - 1
    k = np.searchsorted(nodes, x, side="right") - 1  # nodes[k] <= x < nodes[k+1]
    inside = (k >= 0) & (k < last)
    cell = np.clip(k, 0, last - 1)
    x0, x1 = nodes[cell], nodes[cell + 1]
    y0, y1 = table[cell, columns], table[cell + 1, columns]
    slope = (y1 - y0) / (x1 - x0)
    offset = np.where(inside, x, x0) - x0  # keeps inf cuts out of the formula
    value = slope * offset + y0
    value = np.where(k < 0, table[0, columns], value)
    value = np.where(k >= last, table[last, columns], value)
    return np.where(np.isnan(x), x, value)
