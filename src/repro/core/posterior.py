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

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.joint import JointPosterior, _central
from repro.stats.gamma_cells import GammaCells, unit_steps
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.mixtures import MixtureDistribution, _normalised

__all__ = ["VBPosterior"]

#: Each component's β range runs between Chernoff bounds on its
#: ``_BETA_CLIP`` tail quantiles (METHOD.md §4.1).
_BETA_CLIP = 1e-13
#: Newton steps on the Chernoff equation; from their starts the steps
#: approach each root from outside, and three reach it to ~1e-9.
_CHERNOFF_STEPS = 3
#: A block's Gauss–Legendre node count is the smallest of these (steps
#: of 8 up to ``_MAX_NODES``) whose error bound for the window meets
#: ``_NODE_ERROR``, split evenly over the blocks
#: (:meth:`_BetaBlocks.node_counts`).
_MAX_NODES = 128
_NODE_COUNTS = np.arange(8, _MAX_NODES + 1, 8)
_NODE_ERROR = 1e-13
#: The node rule reads the window at these Chebyshev points of each block
#: (in units of its half-width), its slope between them...
_PROBES = -np.cos(np.pi * np.arange(33) / 32)
_MIDPOINTS = 0.5 * (_PROBES[1:] + _PROBES[:-1])
#: ...at its steepest within this many sds of each component's mean...
_CORE_SDS = 1.0
#: ...and its Chebyshev coefficients: a window whose last two exceed
#: this share of its largest value is not analytic on the block (a
#: kink, a branch point close by).
_CHEBYSHEV = np.linalg.inv(np.polynomial.chebyshev.chebvander(_PROBES, 32)).T
_ROUGH = 1e-12
#: Bernstein-ellipse parameters ``t = log ρ`` the bound is minimised over.
_ELLIPSES = np.geomspace(1e-3, 4.0, 48)
#: Each component's ``κ`` is rounded up to this ladder, whose growth on
#: each ellipse, ``exp(κ² sinh² t / 2)``, is tabulated; one more row
#: takes the ``κ`` beyond it. Exponents are capped at 600, where the
#: bound is hopeless anyway.
_KAPPAS = np.geomspace(1.0, 1e3, 128)
_GROWTH = np.exp(np.minimum(
    0.5 * np.outer(np.append(_KAPPAS, np.inf), np.sinh(_ELLIPSES)) ** 2, 600.0))
#: ``log(64/15) - 2 (n - 1) t - log(e^(2t) - 1)`` per ellipse (rows) and
#: node count (columns): the log Gauss–Legendre error bound of an
#: integrand bounded by 1 on the ellipse (Trefethen 2008, Thm 4.5, for
#: ``n`` nodes).
_LOG_GL_BOUND = (math.log(64.0 / 15.0)
                 - 2.0 * np.outer(_ELLIPSES, _NODE_COUNTS - 1)
                 - np.log(np.expm1(2.0 * _ELLIPSES))[:, None])
#: Adjacent components share a β block while the union of their ranges
#: is at most this many times the narrowest one.
_BLOCK_WIDTHS = 2.0
#: The reliability tables drop the lightest components at both ends of
#: the ``N`` range whose combined weight is at most this.
_DROP_MASS = 1e-13
#: A run of the reliability cell table drops the rungs at its head, and
#: those at its tail, whose weights sum to at most this (METHOD.md §4.1).
_TRIM_MASS = 1e-17
#: The reliability cell table is built this many cells at a time.
_SPAN_CELLS = 16384
#: Round budget of the reliability-quantile solve.
_MAX_SWEEPS = 120
#: Cells whose ``ρ = b_ω / c(β)`` exceeds this hold ``D = ω c(β)``
#: below ~1e-140, where ``r = exp(-D)`` is 1 in floats; they are
#: treated as ``c(β) = 0`` (and ``Wρ²`` stays finite).
_MAX_RATE = 1e150
#: Floor on ``c(β)`` where the node rule takes its log.
_TINY = 1e-300


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the ``n``-point Gauss–Legendre rule on
    [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, np.log(w)


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
        self._beta_blocks = None
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
        adjacent ``N`` (:class:`_BetaBlocks`, built once per posterior),
        each sized for the window by an error bound
        (:meth:`_BetaBlocks.node_counts`), so ``c(β)`` is evaluated only
        at the block nodes, and every cell of one block and node shares
        the ω rate ``b_ω / c(β_j)``: a ladder run of
        :class:`~repro.stats.gamma_cells.GammaCells`. Only the nodes of
        each node layout and ``c`` at them are cached; every reader
        (here, in :mod:`repro.core.prediction` and in the sandwich-scaled
        posterior) builds the cells once per call with
        :meth:`_ReliabilityTables.cells`.
        """
        key = c if getattr(c, "__hash__", None) else None
        if key is not None and key in self._reliability_cache:
            return self._reliability_cache[key]
        if self._beta_blocks is None:
            self._beta_blocks = _BetaBlocks(self._weights, self._beta_shape,
                                            self._beta_rate, self._omega_shape)
        blocks = self._beta_blocks
        sizes, bound = blocks.node_counts(c)
        grid = blocks.grid(sizes)
        tables = _ReliabilityTables(
            grid, np.asarray(c(grid.nodes), dtype=float),
            self._omega_shape[blocks.kept], self._omega_rate[blocks.kept], bound,
        )
        if key is not None:
            self._reliability_cache[key] = tables
        return tables

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``E[exp(-ω c(β))]``: gamma MGF in ``ω``, quadrature in ``β``."""
        return self._reliability_solve(np.empty(0), c)[0]

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``P(exp(-ω c(β)) <= r) = P(D >= -log r)`` for the residual
        count ``D = ω c(β)``: the upper tail of the table's gamma cells."""
        return self._reliability_cdf_at(c)(r)

    def _reliability_cdf_at(self, c):
        cells = self.reliability_tables(c).cells().residual()
        return lambda r: 0.0 if r <= 0.0 else 1.0 if r >= 1.0 else float(
            cells.tails(np.array([-math.log(r)]), False)[0][0])

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
        ``upper`` and ``negexp``; :class:`~repro.exceptions.ConvergenceError`
        after ``_MAX_SWEEPS`` rounds). Every block and node of the
        tables is a ladder run trimmed to the rungs that hold mass, so a
        sweep costs one incomplete gamma per run and one ``exp`` per
        cell. A 95% or 99% interval typically takes 2–3 sweeps and
        agrees with the generic bisection of
        :meth:`~repro.bayes.joint.JointPosterior.reliability_quantile`
        to its ``xtol = 1e-10`` in ``r`` (docs/PERFORMANCE.md §5).

        Only :class:`~repro.core.reliability.ReliabilityIncrement`
        windows take this path; residual-count windows stay on the
        generic solver, which the sandwich-scaled posterior shares (the
        sandwich-nesting contracts need both sides on one solver).
        """
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            return super().reliability_quantile_batch(q, c)
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(~((levels > 0.0) & (levels < 1.0))):
            raise ValueError("quantile levels must be in (0, 1)")
        return self._reliability_solve(levels, c, point=False)[1]

    def reliability_estimate(
        self, level: float, c: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, float, float]:
        """The point and central interval of a ``ReliabilityIncrement``
        window, from one build of its cell table."""
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            return super().reliability_estimate(level, c)
        point, (lower, upper) = self._reliability_solve(_central(level), c)
        return point, float(lower), float(upper)

    def _reliability_solve(self, levels: np.ndarray, c, point: bool = True):
        """``(point, quantiles)`` of the reliability for the window ``c``,
        both from one cell table (the point ``None`` unless asked for)."""
        tables = self.reliability_tables(c)
        if not np.any(tables.c_nodes > 0.0):  # R = 1 surely
            return 1.0, np.ones_like(levels)
        table = tables.cells()
        grid = tables.grid
        attrs = {"trimmed_mass": table.trimmed_mass,
                 "dropped_mass": table.dropped_mass,
                 "nodes": grid.nodes.size,
                 "heaviest_block_nodes": int(np.diff(grid.blocks[grid.heaviest, 2:])[0]),
                 "node_bound": tables.node_bound}
        cells = table.residual()
        del table  # only the engine's arrays stay alive during the solve
        # The weights sum to 1 only to rounding; clip to the valid range.
        point = min(max(cells.laplace(), 0.0), 1.0) if point else None
        if cells.size == 0 or not levels.size:  # D ~ 0 surely: R = 1
            return point, np.ones_like(levels)
        with obs.span("reliability.quantile", level="debug",
                      lanes=levels.size) as sp:
            result, sweeps, bracket_exits = cells.quantiles(
                levels, upper=True, negexp=True, xtol=1e-10,
                max_sweeps=_MAX_SWEEPS,
            )
            # Only a live (debug-level) span has attrs.
            if getattr(sp, "attrs", None) is not None:
                sp.attrs.update(attrs, runs=cells.runs, cells=cells.size,
                                sweeps=sweeps, bracket_exits=bracket_exits)
        return point, np.clip(result, 0.0, 1.0)


class _BetaBlocks:
    """Blocks of adjacent ``N`` that share Gauss–Legendre β nodes.

    Components are taken in ``N`` order, less the lightest at either end
    whose combined weight is at most ``_DROP_MASS``. Each has a β range
    between Chernoff bounds on its ``_BETA_CLIP`` tail quantiles; a block
    grows while the union of its members' ranges stays within
    ``_BLOCK_WIDTHS`` times the narrowest of them. Nothing here depends
    on the window ``c``: :meth:`node_counts` reads it to size each
    block's rule, and :meth:`grid` lays out (and keeps) the nodes of one
    choice of sizes.
    """

    __slots__ = ("kept", "dropped_mass", "rows", "mid", "half", "per_row",
                 "heaviest", "core", "scales", "rungs", "axis", "clear", "grids")

    def __init__(self, weights, beta_shape, beta_rate, omega_shape) -> None:
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
        mean, sd = a / b, np.sqrt(a) / b
        lo, hi = _chernoff_ratios(a) * mean
        starts = _blocks(lo, hi)
        counts = np.diff(np.append(starts, a.size))
        #: (first row, end row) of each block
        self.rows = np.stack([starts, starts + counts], axis=1)
        union_lo = np.minimum.reduceat(lo, starts)
        union_hi = np.maximum.reduceat(hi, starts)
        self.mid, self.half = 0.5 * (union_lo + union_hi), 0.5 * (union_hi - union_lo)
        half = np.repeat(self.half, counts)
        with np.errstate(divide="ignore"):
            log_scale = np.log(kept_w * half) + a * np.log(b) - sc.gammaln(a)
        # log cell weight = (log β_j, β_j, 1, log w_j) · (a - 1, -b, log scale, 1)
        self.per_row = np.stack([a - 1.0, -b, log_scale, np.ones_like(b)])
        self.heaviest = int(np.argmax(np.add.reduceat(kept_w, starts)))
        # What node_counts reads, per component: the points of its core
        # on one axis that holds block i's probes on [3i, 3i + 2], its
        # κ² less the window's part, its normal peak Pv(N) h / (√(2π) σ),
        # its ω shape and its block's first row of _GROWTH rungs; per
        # block, the ellipses clear of β <= 0.
        block = np.repeat(np.arange(starts.size), counts)
        core = (mean - self.mid[block] + _CORE_SDS * np.array([[-1.0], [0.0], [1.0]]) * sd)
        self.core = 3.0 * block + 1.0 + np.clip(core / half, -1.0, 1.0)
        self.scales = np.stack([(half / sd) ** 2,
                                kept_w * half / (math.sqrt(2.0 * math.pi) * sd),
                                omega_shape[self.kept]])
        self.rungs = block * len(_GROWTH)
        self.axis = ((3.0 * np.arange(starts.size) + 1.0)[:, None] + _MIDPOINTS).ravel()
        self.clear = np.cosh(_ELLIPSES) < (self.mid / self.half)[:, None]
        self.grids: dict[bytes, _BetaGrid] = {}

    def node_counts(self, c) -> tuple[np.ndarray, float]:
        """Per block, the node count the window ``c`` needs, and the
        error bound those counts give, summed over the blocks.

        A block integrates ``Σ_N Pv(N) Pv(β|N) Q(a_ω, b_ω s / c(β))``
        over ``β = mid + h x``, ``x ∈ [-1, 1]``. Near-normal (Hall et al.,
        arXiv:1202.5183), component ``N`` contributes a normal density of
        sd ``σ/h`` in ``x`` times a step of width ``ℓ/h``, where
        ``ℓ = 1 / (√a_ω |d log c/dβ|)`` is the window's sharpness, taken
        at its steepest within ``_CORE_SDS`` sds of the component's mean.
        On the Bernstein ellipse ``E_ρ`` (``t = log ρ``, imaginary
        half-axis ``sinh t``) the product grows by at most
        ``exp(κ² sinh² t / 2)`` with ``κ² = (h/σ)² + (h/ℓ)²``: the
        half-width against both scales. So the block's integrand is at
        most ``M(t) = Σ_N Pv(N) (h / (√(2π) σ)) exp(κ² sinh² t / 2)`` on
        ``E_ρ``, and Gauss–Legendre with ``n`` nodes errs by at most
        ``(64/15) M(t) ρ^(2-2n) / (ρ² - 1)`` (Trefethen 2008, Thm 4.5).
        Each block takes the smallest count in ``_NODE_COUNTS`` whose
        bound, at the best ellipse clear of ``β = 0`` (where the gamma
        densities branch), is at most ``_NODE_ERROR`` over the number of
        blocks. A block no count satisfies takes ``_MAX_NODES``, and so
        does one where the window is not analytic (``_ROUGH``): there
        the bound does not apply.
        """
        size = self.mid.size
        beta = self.mid[:, None] + self.half[:, None] * _PROBES
        values = np.asarray(c(beta.ravel()), dtype=float).reshape(beta.shape)
        log_c = np.log(np.maximum(values, _TINY))
        # |d log c / dx| between adjacent probes
        slope = np.abs(np.diff(log_c, axis=1) / np.diff(_PROBES)).ravel()
        steepest = np.interp(self.core, self.axis, slope).max(axis=0)
        width, peak, a_omega = self.scales
        kappa = np.sqrt(width + a_omega * steepest ** 2)
        mass = np.bincount(self.rungs + np.searchsorted(_KAPPAS, kappa),
                           weights=peak, minlength=size * len(_GROWTH))
        with np.errstate(divide="ignore"):
            log_m = np.log(mass.reshape(size, len(_GROWTH)) @ _GROWTH)
        rough = (np.abs(values @ _CHEBYSHEV)[:, -2:].max(axis=1)
                 > _ROUGH * np.abs(values).max(axis=1))
        log_m[~self.clear | rough[:, None]] = np.inf
        log_bound = np.min(log_m[:, :, None] + _LOG_GL_BOUND, axis=1)
        ok = log_bound <= math.log(_NODE_ERROR / size)
        choice = np.where(ok.any(axis=1), np.argmax(ok, axis=1), _NODE_COUNTS.size - 1)
        return (_NODE_COUNTS[choice],
                float(np.exp(log_bound[np.arange(size), choice]).sum()))

    def grid(self, sizes: np.ndarray) -> "_BetaGrid":
        """The nodes of the blocks at ``sizes`` nodes each, built once
        per distinct choice of sizes."""
        key = sizes.tobytes()
        grid = self.grids.get(key)
        if grid is None:
            grid = self.grids[key] = _BetaGrid(self, sizes)
        return grid


class _BetaGrid:
    """One node layout of a posterior's β blocks: per block, its rows
    and nodes, and per node the factors of the cell log weights."""

    __slots__ = ("blocks", "nodes", "per_node", "per_row", "dropped_mass",
                 "heaviest")

    def __init__(self, blocks: _BetaBlocks, sizes: np.ndarray) -> None:
        self.nodes = np.concatenate([
            m + h * _rule(int(n))[0]
            for m, h, n in zip(blocks.mid, blocks.half, sizes)
        ])
        #: (first row, end row, first node, end node) of each block
        self.blocks = np.concatenate(
            [blocks.rows, np.stack([np.cumsum(sizes) - sizes, np.cumsum(sizes)],
                                   axis=1)], axis=1)
        self.per_node = np.stack([
            np.log(self.nodes), self.nodes, np.ones_like(self.nodes),
            np.concatenate([_rule(int(n))[1] for n in sizes])], axis=1)
        self.per_row = blocks.per_row
        self.dropped_mass = blocks.dropped_mass
        self.heaviest = blocks.heaviest


def _chernoff_ratios(a: np.ndarray) -> np.ndarray:
    """``(lo, hi)``: per shape ``a``, the roots ``r < 1 < r'`` of
    ``a ψ(r) = log(1/_BETA_CLIP)``, ``ψ(r) = r - 1 - log r``.

    By the Chernoff bound, a gamma variable of shape ``a`` and mean
    ``μ`` lies below ``r μ`` and above ``r' μ`` each with probability at
    most ``_BETA_CLIP``, so ``[r μ, r' μ]`` holds the exact tail
    quantiles. Newton steps on ``e^u - 1 - u = λ`` in ``u = log r``
    (convex) start outside both roots — at ``-(√(2λ) + λ)`` and
    ``log(1 + λ + √(2λ))`` — and so approach them from outside.
    """
    lam = math.log(1.0 / _BETA_CLIP) / a
    root = np.sqrt(2.0 * lam)
    u = np.stack([-(root + lam), np.log1p(lam + root)])
    for _ in range(_CHERNOFF_STEPS):
        u -= (np.expm1(u) - u - lam) / np.expm1(u)
    return np.exp(u)


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
    """One window's reliability tables: the β grid sized for it, ``c(β)``
    at its nodes and the error bound of its node counts."""

    __slots__ = ("grid", "c_nodes", "a_omega", "b_omega", "node_bound")

    def __init__(self, grid: _BetaGrid, c_nodes, a_omega, b_omega,
                 node_bound: float) -> None:
        self.grid = grid
        self.c_nodes = c_nodes
        self.a_omega = a_omega
        self.b_omega = b_omega
        self.node_bound = node_bound

    def cells(self) -> "_Cells":
        """The window's cells ``(N, β_j)``, built on each call: one run
        per block and node, whose rungs are the block's ``N`` in order.

        A cell weighs ``Pv(N) · half-width · w_j · Pv(β_j | N)``. A run
        drops the rungs at its head, and those at its tail, whose weights
        sum to at most ``_TRIM_MASS``; the kept weights are renormalised
        to sum to 1, which keeps the reliability CDF exact at ``r = 1``.
        A node with ``c(β) = 0``, or so small that ``ρ = b_ω / c``
        exceeds ``_MAX_RATE``, holds ``D = 0``: its run joins the point
        mass at 0. If the ω rates differ or the shapes do not step by 1
        (posteriors not from VB2), every cell is a run of its own.
        """
        grid, a, b = self.grid, self.a_omega, self.b_omega
        block_rows = grid.blocks[:, 1] - grid.blocks[:, 0]
        block_nodes = grid.blocks[:, 3] - grid.blocks[:, 2]
        # ρ = b / c at most _MAX_RATE, written to hold at c = 0 too
        live = self.c_nodes * _MAX_RATE >= b.max()
        # Only the kept cells of the flat outputs are written; the blocks
        # go a few nodes at a time, so the work arrays stay small.
        out = np.empty((3, block_rows @ block_nodes))
        first, count = np.zeros((2, grid.nodes.size), dtype=int)
        work = np.empty((3, max(_SPAN_CELLS, block_rows.max())))
        atom = trimmed = 0.0
        size = 0
        for r0, r1, n0, n1 in grid.blocks:
            k = r1 - r0
            step = max(_SPAN_CELLS // k, 1)
            for n in range(n0, n1, step):
                nodes = slice(n, min(n + step, n1))
                j = np.arange(nodes.stop - n)
                # one row per node: a run over the block's N, with its
                # weight before each rung and from each rung on
                w, before, after = (v[:k * j.size].reshape(j.size, k) for v in work)
                np.matmul(grid.per_node[nodes], grid.per_row[:, r0:r1], out=w)
                np.exp(w, out=w)
                before[:, 0] = 0.0
                np.cumsum(w[:, :-1], axis=1, out=before[:, 1:])
                np.cumsum(w[:, ::-1], axis=1, out=after[:, ::-1])
                # drop the head rungs whose weights sum to at most
                # _TRIM_MASS, and likewise the tail rungs
                lo = np.count_nonzero(before[:, 1:] <= _TRIM_MASS, axis=1)
                hi = np.maximum(k - np.count_nonzero(after <= _TRIM_MASS, axis=1), lo)
                head = before[j, lo]
                tail = np.where(hi < k, after[j, np.minimum(hi, k - 1)], 0.0)
                trimmed += head.sum() + tail.sum()
                if not live[nodes].all():
                    dead = ~live[nodes]
                    atom += (after[j, lo] - tail)[dead].sum()
                    hi[dead] = lo[dead]
                # the kept rungs, run after run
                kept = hi - lo
                index = np.repeat(j * k + lo - np.cumsum(kept) + kept, kept)
                index += np.arange(index.size)
                cells = slice(size, size + index.size)
                for v, values in zip(out, (w, before, after)):
                    np.take(values.ravel(), index, out=v[cells])
                out[1, cells] -= np.repeat(head, kept)
                out[2, cells] -= np.repeat(tail, kept)
                size = cells.stop
                first[nodes], count[nodes] = lo + r0, kept
        runs = count > 0
        first, count, c = first[runs], count[runs], self.c_nodes[runs]
        weight, prefix, suffix = out[:, :size]
        norm = weight.sum() + atom
        out[:, :size] /= norm
        starts = np.cumsum(count) - count
        suffix[starts] = 0.0
        rows = np.repeat(first - starts, count) + np.arange(size)
        if not (np.all(b == b[0]) and unit_steps(a).all()):
            c, starts = np.repeat(c, count), np.arange(size)
            prefix[:] = suffix[:] = 0.0
        return _Cells(weight, rows, c, starts, prefix, suffix, atom / norm,
                      trimmed / norm, grid.dropped_mass, a, b)


class _Cells:
    """A window's flat cell table: per cell its weight, its component
    row and its run's weight before it and from it on; per run its start
    and ``c(β)``; the point mass at ``D = 0``, the mass the runs trimmed
    and the mass the grid dropped."""

    __slots__ = ("weight", "rows", "c_runs", "starts", "prefix", "suffix",
                 "atom", "trimmed_mass", "dropped_mass", "a_omega", "b_omega")

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def arrays(self):
        """``(weight, c, a_ω, b_ω)`` per cell."""
        counts = np.diff(np.append(self.starts, self.weight.size))
        return (self.weight, np.repeat(self.c_runs, counts),
                self.a_omega[self.rows], self.b_omega[self.rows])

    def residual(self) -> GammaCells:
        """The cells of ``D = ω c(β)``: ``Gamma(a_ω, b_ω / c)``."""
        # a run's cells share b_ω and c(β): one rate per run
        rate = self.b_omega[self.rows[self.starts]] / self.c_runs
        return GammaCells(
            self.weight, self.a_omega[self.rows],
            np.repeat(rate, np.diff(np.append(self.starts, self.weight.size))),
            atom=self.atom, runs=(self.starts, self.prefix, self.suffix),
            log_gamma=sc.gammaln(self.a_omega)[self.rows])
