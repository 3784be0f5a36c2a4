"""The variational joint posterior: a mixture over the latent fault count.

VB2's approximate posterior is ``Pv(ω, β) = Σ_N Pv(N) Pv(ω|N) Pv(β|N)``
with gamma conditionals (paper Step 5). Although ``ω`` and ``β`` are
conditionally independent given ``N``, mixing over ``N`` induces the
negative correlation and right skew of the true posterior — the
property VB1's fully factorised posterior cannot represent (paper
Table 1 and Figure 1 discussion).

The same class represents VB1's product-of-gammas posterior as the
degenerate one-component case, so every downstream consumer (moments,
quantiles, reliability, density grids) is shared.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.joint import JointPosterior
from repro.stats.gamma_cells import GammaCells, unit_steps
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.mixtures import MixtureDistribution, _normalised

__all__ = ["VBPosterior"]

#: Gauss–Legendre nodes per β block: ``_RELIABILITY_NODES`` for a
#: block holding more than 1e-6 of the mass, fewer for lighter blocks,
#: whose quadrature error counts in proportion to their mass.
_RELIABILITY_NODES = 128
_BLOCK_NODES = ((1e-6, _RELIABILITY_NODES), (1e-10, 64), (0.0, 32))


def _gauss_legendre(n: int):
    """Nodes and log weights of the ``n``-point rule on ``[-1, 1]``."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, np.log(w)


_RULES = {n: _gauss_legendre(n) for _, n in _BLOCK_NODES}
#: Each component's β range runs between these tail quantiles.
_BETA_CLIP = 1e-13
#: Adjacent components share a β block while the union of their ranges
#: is at most this many times the narrowest one.
_BLOCK_WIDTHS = 2.0
#: The reliability tables drop the lightest components at both ends of
#: the ``N`` range whose combined weight is at most this.
_DROP_MASS = 1e-13
#: Round budget of the reliability-quantile solve.
_MAX_SWEEPS = 120
#: Cells whose ``ρ = b_ω / c(β)`` exceeds this hold ``D = ω c(β)``
#: below ~1e-140, where ``r = exp(-D)`` is 1 in floats; they are
#: treated as ``c(β) = 0`` (and ``Wρ²`` stays finite).
_MAX_RATE = 1e150


class VBPosterior(JointPosterior):
    """Mixture-of-gamma-products posterior over ``(ω, β)``.

    Parameters
    ----------
    n_values:
        Latent-count support (integers for VB2; VB1 passes the single
        non-integer ``E[N]``).
    weights:
        Mixture weights ``Pv(N)``; normalised internally.
    omega_components, beta_components:
        Per-``N`` gamma conditionals (:meth:`from_arrays` takes their
        parameters as arrays instead).
    method_name:
        Table label, "VB2" or "VB1".
    elbo:
        Variational lower bound on the log evidence, when available.
    diagnostics:
        Free-form fitting metadata (iteration counts, nmax history...).
    """

    def __init__(
        self,
        n_values: Sequence[float],
        weights: Sequence[float],
        omega_components: Sequence[GammaDistribution],
        beta_components: Sequence[GammaDistribution],
        *,
        method_name: str = "VB2",
        elbo: float | None = None,
        diagnostics: dict | None = None,
    ) -> None:
        if len(omega_components) != len(beta_components):
            raise ValueError("component arrays must have equal length")
        self._install(
            n_values, weights,
            *([getattr(d, field) for d in components]
              for components in (omega_components, beta_components)
              for field in ("shape", "rate")),
            method_name=method_name, elbo=elbo, diagnostics=diagnostics,
        )

    @classmethod
    def from_arrays(cls, n_values, weights, omega_shape, omega_rate,
                    beta_shape, beta_rate, *, method_name: str = "VB2",
                    elbo: float | None = None, diagnostics: dict | None = None,
                    normalised: bool = False) -> "VBPosterior":
        """The posterior from per-``N`` parameter arrays.

        With ``normalised`` the weights are installed verbatim: the
        cache layer (:mod:`repro.cache.store`) persists ``_weights``
        *after* normalisation, and dividing again on load would perturb
        last-ulp bits (``sum(w_i / total) != 1.0`` exactly), breaking
        the byte-identical-hit contract.
        """
        post = cls.__new__(cls)
        post._install(n_values, weights, omega_shape, omega_rate, beta_shape,
                      beta_rate, method_name=method_name, elbo=elbo,
                      diagnostics=diagnostics, normalised=normalised)
        return post

    def _install(self, n_values, weights, *params, method_name, elbo,
                 diagnostics, normalised=False) -> None:
        n_values, weights, *params = (
            np.asarray(v, dtype=float) for v in (n_values, weights, *params)
        )
        if not all(v.shape == n_values.shape == weights.shape for v in params):
            raise ValueError("component arrays must have equal length")
        if n_values.size == 0:
            raise ValueError("posterior needs at least one mixture component")
        if not normalised:
            weights = _normalised(weights, n_values.size)
        # one vectorised check, with GammaDistribution's messages
        for name, values in zip(("shape", "rate") * 2, params):
            bad = ~((values > 0.0) & np.isfinite(values))
            if bad.any():
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {values[np.argmax(bad)]}")
        self._n_values = n_values
        self._weights = weights
        self._omega_shape, self._omega_rate, self._beta_shape, self._beta_rate = params
        self.method_name = method_name
        self.elbo = elbo
        self.diagnostics = dict(diagnostics or {})
        self._marginals = {
            name: MixtureDistribution.of_gammas(shape, rate, weights)
            for name, shape, rate in (("omega", *params[:2]),
                                      ("beta", *params[2:]))
        }
        self._beta_grid = None
        self._reliability_cache: dict[object, _ReliabilityTables] = {}

    @property
    def _omega_components(self) -> list[GammaDistribution]:
        """Per-``N`` ω conditionals as objects, built on first use."""
        return self._marginals["omega"].components

    @property
    def _beta_components(self) -> list[GammaDistribution]:
        """Per-``N`` β conditionals as objects, built on first use."""
        return self._marginals["beta"].components

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def n_values(self) -> np.ndarray:
        """Latent-count support (copy)."""
        return self._n_values.copy()

    @property
    def weights(self) -> np.ndarray:
        """Normalised mixture weights ``Pv(N)`` (copy)."""
        return self._weights.copy()

    @property
    def n_components(self) -> int:
        """Number of mixture components."""
        return self._n_values.size

    def marginal(self, param: str) -> MixtureDistribution:
        """Marginal posterior of ``param`` as a gamma mixture."""
        return self._marginals[self._check_param(param)]

    def fault_count_pmf(self) -> tuple[np.ndarray, np.ndarray]:
        """``(support, Pv(N))`` of the latent total fault count."""
        return self.n_values, self.weights

    def expected_total_faults(self) -> float:
        """``E[N]`` under the variational posterior."""
        return float(np.dot(self._weights, self._n_values))

    def tail_mass(self) -> float:
        """``Pv(nmax)``: mass at the truncation point (paper Step 4)."""
        return float(self._weights[-1])

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self, param: str) -> float:
        return self.marginal(param).mean

    def variance(self, param: str) -> float:
        return self.marginal(param).variance

    def central_moment(self, param: str, k: int) -> float:
        return self.marginal(param).central_moment(k)

    def cross_moment(self) -> float:
        """``E[ωβ] = Σ_N Pv(N) E[ω|N] E[β|N]`` by conditional independence."""
        means_omega = self._omega_shape / self._omega_rate
        means_beta = self._beta_shape / self._beta_rate
        return float(np.dot(self._weights, means_omega * means_beta))

    # ------------------------------------------------------------------
    # Quantiles, density, sampling
    # ------------------------------------------------------------------
    def quantile(self, param: str, q: float) -> float:
        return self.marginal(param).ppf(q)

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """All levels in one call of the gamma-cell quantile engine
        (see :meth:`MixtureDistribution.ppf`)."""
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        return np.asarray(self.marginal(param).ppf(levels))

    def cdf(self, param: str, x: float) -> float:
        return float(self.marginal(param).cdf(x))

    def log_pdf_grid(self, omega: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """``log Pv(ω, β)`` on a tensor grid via log-sum-exp over
        components."""
        omega = np.asarray(omega, dtype=float)
        beta = np.asarray(beta, dtype=float)
        parts = np.empty((self.n_components, omega.size, beta.size))
        with np.errstate(divide="ignore"):
            log_w = np.log(self._weights)
        for idx in range(self.n_components):
            log_po = np.asarray(self._omega_components[idx].log_pdf(omega))
            log_pb = np.asarray(self._beta_components[idx].log_pdf(beta))
            parts[idx] = log_w[idx] + log_po[:, None] + log_pb[None, :]
        return sc.logsumexp(parts, axis=0)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw joint samples ``(ω, β)``; shape ``(size, 2)``."""
        component_ids = rng.choice(self.n_components, size=size, p=self._weights)
        out = np.empty((size, 2))
        for idx in np.unique(component_ids):
            mask = component_ids == idx
            count = int(mask.sum())
            out[mask, 0] = self._omega_components[idx].sample(count, rng)
            out[mask, 1] = self._beta_components[idx].sample(count, rng)
        return out

    # ------------------------------------------------------------------
    # Software reliability R = exp(-omega * c(beta))
    # ------------------------------------------------------------------
    def reliability_tables(
        self, c: Callable[[np.ndarray], np.ndarray]
    ) -> "_ReliabilityTables":
        """Quadrature tables of the β integral for the window ``c``;
        cached per hashable ``c``.

        The β nodes sit on Gauss–Legendre grids shared by blocks of
        adjacent ``N`` (:class:`_BetaGrid`, built once per posterior),
        so ``c(β)`` is evaluated only at the block nodes, and every
        cell of one block and node shares the ω rate ``b_ω / c(β_j)``:
        a ladder run of :class:`~repro.stats.gamma_cells.GammaCells`.
        The posterior-predictive quadrature in
        :mod:`repro.core.prediction` and the sandwich-scaled posterior
        read the same tables through :meth:`_ReliabilityTables.cells`.
        """
        key = c if getattr(c, "__hash__", None) else None
        if key is not None and key in self._reliability_cache:
            return self._reliability_cache[key]
        if self._beta_grid is None:
            self._beta_grid = _BetaGrid(self._weights, self._beta_shape,
                                        self._beta_rate)
        grid = self._beta_grid
        tables = _ReliabilityTables(
            grid,
            np.split(np.asarray(c(grid.nodes), dtype=float), grid.node_starts),
            self._omega_shape[grid.kept],
            self._omega_rate[grid.kept],
        )
        if key is not None:
            self._reliability_cache[key] = tables
        return tables

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``E[exp(-ω c(β))]``: gamma MGF in ``ω``, quadrature in ``β``."""
        tables = self.reliability_tables(c)
        if not any(np.any(c_block > 0.0) for c_block in tables.c_nodes):
            return 1.0  # R = 1 surely
        total = 0.0
        for rows, weight, c_nodes in tables.blocks():
            b = tables.b_omega[rows, None]
            log_mgf = np.log(b) - np.log(b + c_nodes)
            total += np.sum(weight * np.exp(tables.a_omega[rows, None] * log_mgf))
        # The weights sum to 1 only to rounding; clip to the valid range.
        return float(min(max(total, 0.0), 1.0))

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``P(exp(-ω c(β)) <= r) = P(D >= -log r)`` for the residual
        count ``D = ω c(β)``: the upper tail of the table's gamma cells."""
        return self._reliability_cdf_at(c)(r)

    def _reliability_cdf_at(self, c):
        cells, _ = self.reliability_tables(c).gamma_cells()

        def cdf(r: float) -> float:
            if r <= 0.0:
                return 0.0
            if r >= 1.0:
                return 1.0
            tail, _, _ = cells.tails(np.array([-math.log(r)]), False)
            return float(tail[0])

        return cdf

    def reliability_quantile(
        self, q: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            # the generic batch path loops over this scalar method —
            # delegating up (not sideways) keeps the pair recursion-free
            return super().reliability_quantile(q, c)
        return float(
            self.reliability_quantile_batch(np.asarray([q], dtype=float), c)[0]
        )

    def reliability_quantile_batch(
        self, q: np.ndarray, c: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Reliability quantiles from the gamma-cell quantile engine.

        Works in ``s = -log r``, where the CDF is the upper tail
        ``S(s) = Σ_cells W Q(a_ω, ρ s)`` with ``ρ = b_ω / c(β)`` of the
        residual count ``D = ω c(β)``
        (:meth:`~repro.stats.gamma_cells.GammaCells.quantiles` with
        ``upper`` and ``negexp``): a moment-matched start, Halley steps
        on the log tail, the log-space bracket fallback, and
        :class:`~repro.exceptions.ConvergenceError` after
        ``_MAX_SWEEPS`` rounds. Every block and node of the tables is a
        ladder run, so a sweep costs one incomplete gamma per run and
        one ``exp`` per cell. A 95% or 99% interval typically takes 2–3
        sweeps and agrees with the generic bisection of
        :meth:`~repro.bayes.joint.JointPosterior.reliability_quantile`
        to its ``xtol = 1e-10`` in ``r`` (docs/PERFORMANCE.md §5).

        Only :class:`~repro.core.reliability.ReliabilityIncrement`
        windows take this path. Residual-count windows delegate to the
        shared generic solver, which the sandwich-scaled posterior uses
        too; the sandwich-nesting contracts need both sides on one
        solver.
        """
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            return super().reliability_quantile_batch(q, c)
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(~((levels > 0.0) & (levels < 1.0))):
            raise ValueError("quantile levels must be in (0, 1)")
        cells, dropped = self.reliability_tables(c).gamma_cells()
        if cells.size == 0:  # c(β) = 0 everywhere: R = 1 surely
            return np.ones_like(levels)
        with obs.span("reliability.quantile", level="debug",
                      lanes=levels.size) as sp:
            result, sweeps, bracket_exits = cells.quantiles(
                levels, upper=True, negexp=True, xtol=1e-10,
                max_sweeps=_MAX_SWEEPS,
            )
            # The span is the shared no-op handle when the collector
            # sits below the debug level, so attrs only exist on the
            # live span.
            if getattr(sp, "attrs", None) is not None:
                sp.attrs["cells"] = cells.runs
                sp.attrs["ladder_terms"] = cells.size
                sp.attrs["dropped_mass"] = dropped
                sp.attrs["sweeps"] = sweeps
                sp.attrs["bracket_exits"] = bracket_exits
        return np.clip(result, 0.0, 1.0)


class _BetaGrid:
    """Gauss–Legendre β nodes shared by blocks of adjacent ``N``.

    Components are taken in ``N`` order, less the lightest at either end
    whose combined weight is at most ``_DROP_MASS``. Each has a β range
    between its ``_BETA_CLIP`` tail quantiles; a block grows while the
    union of its members' ranges stays within ``_BLOCK_WIDTHS`` times
    the narrowest of them, and gets Gauss–Legendre nodes over that
    union (``_BLOCK_NODES`` by the block's mass). The cell weights
    ``Pv(N) · half-width · w_j · Pv(β_j | N)``, normalised to sum to 1
    (which keeps the reliability CDF exact at ``r = 1``), are rebuilt
    on each use from the per-component log scales kept here: only the
    nodes and ``O(K)`` constants are cached. Nothing depends on the
    window ``c``, so one grid serves every window of the posterior.
    """

    __slots__ = ("kept", "dropped_mass", "starts", "nodes", "node_starts",
                 "log_nodes", "shape_m1", "rate", "log_scale")

    def __init__(self, weights, beta_shape, beta_rate) -> None:
        cum = np.cumsum(weights)
        first = int(np.searchsorted(cum, 0.5 * _DROP_MASS, "right"))
        tail = np.cumsum(weights[::-1])
        stop = weights.size - int(np.searchsorted(tail, 0.5 * _DROP_MASS,
                                                  "right"))
        if stop <= first:  # everything is light: keep the heaviest
            first = int(np.argmax(weights))
            stop = first + 1
        self.kept = slice(first, stop)
        self.dropped_mass = float(weights[:first].sum() + weights[stop:].sum())
        kept_w = weights[self.kept]
        a = beta_shape[self.kept]
        b = beta_rate[self.kept]
        lo = sc.gammaincinv(a, _BETA_CLIP) / b
        hi = sc.gammainccinv(a, _BETA_CLIP) / b
        self.starts = _blocks(lo, hi)
        union_lo = np.minimum.reduceat(lo, self.starts)
        union_hi = np.maximum.reduceat(hi, self.starts)
        mid, half = 0.5 * (union_lo + union_hi), 0.5 * (union_hi - union_lo)
        sizes = [
            next(n for floor, n in _BLOCK_NODES if mass > floor)
            for mass in np.add.reduceat(kept_w, self.starts)
        ]
        self.nodes = np.concatenate([
            m + h * _RULES[n][0] for m, h, n in zip(mid, half, sizes)
        ])
        self.node_starts = np.cumsum(sizes)[:-1]
        self.log_nodes = np.log(self.nodes)
        self.shape_m1 = a - 1.0
        self.rate = b
        counts = np.diff(np.append(self.starts, a.size))
        with np.errstate(divide="ignore"):
            self.log_scale = (np.log(kept_w * np.repeat(half, counts))
                              + a * np.log(b) - sc.gammaln(a))

    def blocks(self) -> list:
        """``(rows, weights)`` per block: the block's component rows and
        its ``(rows, nodes)`` cell weights, normalised over all blocks."""
        rows = np.append(self.starts, self.shape_m1.size)
        cuts = np.concatenate(([0], self.node_starts, [self.nodes.size]))
        out = []
        for r0, r1, n0, n1 in zip(rows[:-1], rows[1:], cuts[:-1], cuts[1:]):
            block, nodes = slice(r0, r1), slice(n0, n1)
            log_w = np.multiply.outer(self.shape_m1[block], self.log_nodes[nodes])
            log_w -= np.multiply.outer(self.rate[block], self.nodes[nodes])
            log_w += self.log_scale[block, None]
            log_w += _RULES[n1 - n0][1]
            out.append((block, np.exp(log_w, out=log_w)))
        total = sum(float(w.sum()) for _, w in out)
        for _, w in out:
            w /= total
        return out


def _blocks(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Start indices of the β blocks: greedy runs of adjacent ranges
    whose union spans at most ``_BLOCK_WIDTHS`` narrowest widths."""
    starts = [0]
    while True:
        i = starts[-1]
        span = np.maximum.accumulate(hi[i:]) - np.minimum.accumulate(lo[i:])
        narrowest = np.minimum.accumulate(hi[i:] - lo[i:])
        fits = span <= _BLOCK_WIDTHS * narrowest
        if fits.all():
            return np.array(starts)
        starts.append(i + int(np.argmin(fits)))


class _ReliabilityTables:
    """One window's reliability tables: the posterior's β grid and
    ``c(β)`` at its nodes, one array per block.

    Cell arrays are built on each call, never cached.
    """

    __slots__ = ("grid", "c_nodes", "a_omega", "b_omega")

    def __init__(self, grid: _BetaGrid, c_nodes, a_omega, b_omega) -> None:
        self.grid = grid
        self.c_nodes = c_nodes
        self.a_omega = a_omega
        self.b_omega = b_omega

    def blocks(self) -> list:
        """``(rows, weights, c)`` per block, ``c`` at its nodes."""
        return [(rows, weights, c_nodes) for (rows, weights), c_nodes
                in zip(self.grid.blocks(), self.c_nodes)]

    def cells(self):
        """``(quad_w, c_values, a_omega, b_omega)``, one entry per
        (component, node) cell."""
        parts = [
            (w.ravel(), np.broadcast_to(c, w.shape).ravel(),
             np.repeat(self.a_omega[rows], c.size),
             np.repeat(self.b_omega[rows], c.size))
            for rows, w, c in self.blocks()
        ]
        return tuple(np.concatenate(v) for v in zip(*parts))

    def gamma_cells(self) -> tuple[GammaCells, float]:
        """The cells of ``D = ω c(β)`` and the mass the grid dropped.

        Each block is a ladder grid whose runs are its nodes and whose
        rungs are its ``N``. A node with ``c(β) = 0``, or so small that
        ``ρ = b_ω / c`` exceeds ``_MAX_RATE``, holds ``D = 0``: its
        cells join the point mass at 0. Blocks whose ω rates differ, or
        whose shapes do not step by 1 (posteriors not from VB2), go in
        as flat cells.
        """
        log_gamma = sc.gammaln(self.a_omega)
        runs, flat = [], []
        atom = 0.0
        for rows, weights, c_nodes in self.blocks():
            b, shape = self.b_omega[rows], self.a_omega[rows]
            # ρ = b / c at most _MAX_RATE, written to hold at c = 0 too
            live = c_nodes * _MAX_RATE >= b.max()
            atom += weights[:, ~live].sum()
            if not live.any():
                continue
            if np.all(b == b[0]) and unit_steps(shape).all():
                runs.append((weights.T[live], shape, b[0] / c_nodes[live],
                             log_gamma[rows]))
            else:
                flat.append((weights.T[live].ravel(),
                             np.tile(shape, np.count_nonzero(live)),
                             np.divide.outer(b, c_nodes[live]).T.ravel()))
        weight, shape, rate = (
            (np.concatenate(v) for v in zip(*flat)) if flat else ((), (), ())
        )
        return (GammaCells(weight, shape, rate, atom=atom, ladders=runs),
                self.grid.dropped_mass)

