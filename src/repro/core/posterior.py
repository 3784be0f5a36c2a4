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
from repro.exceptions import ConvergenceError
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.mixtures import MixtureDistribution

__all__ = ["VBPosterior"]

_RELIABILITY_NODES = 48
_COMPONENT_WEIGHT_FLOOR = 1e-15
#: Reliability quantiles drop the lightest quadrature cells whose
#: combined weight is at most this (see ``_LiveCells``).
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
        Per-``N`` gamma conditionals.
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
        n_arr = np.asarray(n_values, dtype=float)
        w_arr = np.asarray(weights, dtype=float)
        if not (
            len(omega_components) == len(beta_components) == n_arr.size == w_arr.size
        ):
            raise ValueError("component arrays must have equal length")
        if n_arr.size == 0:
            raise ValueError("posterior needs at least one mixture component")
        total = float(w_arr.sum())
        if not (total > 0.0 and np.all(w_arr >= 0.0)):
            raise ValueError("weights must be non-negative with positive sum")
        self._n_values = n_arr
        self._weights = w_arr / total
        self._omega_components = list(omega_components)
        self._beta_components = list(beta_components)
        self.method_name = method_name
        self.elbo = elbo
        self.diagnostics = dict(diagnostics or {})
        self._marginals = {
            "omega": MixtureDistribution(self._omega_components, self._weights),
            "beta": MixtureDistribution(self._beta_components, self._weights),
        }
        self._reliability_cache: dict[object, tuple] = {}

    @classmethod
    def _from_normalised(
        cls,
        n_values: np.ndarray,
        weights: np.ndarray,
        omega_components: Sequence[GammaDistribution],
        beta_components: Sequence[GammaDistribution],
        *,
        method_name: str,
        elbo: float | None,
        diagnostics: dict | None,
    ) -> "VBPosterior":
        """Exact reconstruction from already-normalised internals.

        The cache layer (:mod:`repro.cache.store`) persists ``_weights``
        *after* ``__init__``'s normalisation; re-running the division on
        load would perturb last-ulp bits (``sum(w_i / total) != 1.0``
        exactly), breaking the byte-identical-hit contract. This
        constructor installs the stored arrays verbatim. Only for
        round-tripping a posterior this class itself produced.
        """
        post = cls.__new__(cls)
        post._n_values = np.asarray(n_values, dtype=float)
        post._weights = np.asarray(weights, dtype=float)
        post._omega_components = list(omega_components)
        post._beta_components = list(beta_components)
        post.method_name = method_name
        post.elbo = elbo
        post.diagnostics = dict(diagnostics or {})
        post._marginals = {
            "omega": MixtureDistribution(post._omega_components, post._weights),
            "beta": MixtureDistribution(post._beta_components, post._weights),
        }
        post._reliability_cache = {}
        return post

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
        means_omega = np.array([d.mean for d in self._omega_components])
        means_beta = np.array([d.mean for d in self._beta_components])
        return float(np.dot(self._weights, means_omega * means_beta))

    # ------------------------------------------------------------------
    # Quantiles, density, sampling
    # ------------------------------------------------------------------
    def quantile(self, param: str, q: float) -> float:
        return self.marginal(param).ppf(q)

    def quantile_batch(self, param: str, q: np.ndarray) -> np.ndarray:
        """All levels in one simultaneous vectorized bisection on the
        gamma-mixture CDF (see :meth:`MixtureDistribution.ppf`)."""
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
    def reliability_tables(self, c: Callable[[np.ndarray], np.ndarray]):
        """Precompute per-component Gauss–Legendre tables for the β
        integral; cached per hashable ``c``.

        Returns ``(quad_w, c_values, a_omega, b_omega)`` — the
        quadrature weights, window increments at the β nodes, and the
        per-component ω gamma parameters — shaped for broadcasting
        over the kept components. The whole construction (node
        placement from the component β quantiles, densities at the
        nodes) is a handful of array broadcasts over the component
        parameter vectors; the posterior-predictive quadrature in
        :mod:`repro.core.prediction` consumes the same tables.
        """
        key = c if getattr(c, "__hash__", None) else None
        if key is not None and key in self._reliability_cache:
            return self._reliability_cache[key]
        nodes_x, nodes_w = np.polynomial.legendre.leggauss(_RELIABILITY_NODES)
        keep = self._weights > _COMPONENT_WEIGHT_FLOOR * self._weights.max()
        idxs = np.nonzero(keep)[0]
        a_beta = np.array([self._beta_components[i].shape for i in idxs])
        b_beta = np.array([self._beta_components[i].rate for i in idxs])
        a_omega = np.array([[self._omega_components[i].shape] for i in idxs])
        b_omega = np.array([[self._omega_components[i].rate] for i in idxs])
        lo = sc.gammaincinv(a_beta, 1e-10) / b_beta
        hi = sc.gammaincinv(a_beta, 1.0 - 1e-10) / b_beta
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        beta_nodes = mid[:, None] + half[:, None] * nodes_x[None, :]
        log_beta_pdf = (
            a_beta[:, None] * np.log(b_beta)[:, None]
            + (a_beta[:, None] - 1.0) * np.log(beta_nodes)
            - b_beta[:, None] * beta_nodes
            - sc.gammaln(a_beta)[:, None]
        )
        quad_w = (
            (self._weights[idxs] * half)[:, None]
            * nodes_w[None, :]
            * np.exp(log_beta_pdf)
        )
        # Renormalise: the clipped quantile range and dropped components
        # remove a ~1e-10 sliver of mass; keep the reliability CDF exact
        # at r = 1.
        quad_w /= quad_w.sum()
        c_values = np.asarray(c(beta_nodes), dtype=float)
        tables = (quad_w, c_values, a_omega, b_omega)
        if key is not None:
            self._reliability_cache[key] = tables
        return tables

    def reliability_point(self, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``E[exp(-ω c(β))]``: gamma MGF in ``ω``, quadrature in ``β``."""
        quad_w, c_values, a_omega, b_omega = self.reliability_tables(c)
        factors = np.exp(a_omega * (np.log(b_omega) - np.log(b_omega + c_values)))
        # The quadrature-weight renormalisation can overshoot 1 by a few
        # ulps when c(beta) ~ 0 everywhere; clip to the valid range.
        return float(min(max(np.sum(quad_w * factors), 0.0), 1.0))

    def reliability_cdf(self, r: float, c: Callable[[np.ndarray], np.ndarray]) -> float:
        """``P(exp(-ω c(β)) <= r) = E_β[ P(ω >= -log r / c(β)) ]``."""
        if r <= 0.0:
            return 0.0
        if r >= 1.0:
            return 1.0
        quad_w, c_values, a_omega, b_omega = self.reliability_tables(c)
        threshold = -math.log(r)
        # A cut that overflows (c(β) tiny) is an empty ω tail.
        with np.errstate(divide="ignore", over="ignore"):
            omega_cut = np.where(c_values > 0.0, threshold / c_values, np.inf)
            tail = sc.gammaincc(a_omega, b_omega * omega_cut)
        return float(np.sum(quad_w * tail))

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
        """Reliability quantiles by a safeguarded Halley iteration.

        Works in ``s = -log r``, where the CDF is the smooth decreasing
        map ``F(s) = Σ_cells W Q(a_ω, ρ s)`` with ``ρ = b_ω / c(β)``:
        the probability that the residual count ``D = ω c(β)`` reaches
        ``s``. Each level starts at the matching upper-tail quantile of
        the gamma distribution with ``D``'s first two moments (VB
        posteriors concentrate and approach normality, so this start
        is close) and takes Halley steps on ``h = log F - log q`` using
        the analytic ``F'`` and ``F''`` of the gamma tails. Steps that
        leave the maintained sign bracket fall back to a search in
        ``log s`` (geometric growth while the upper bracket is open,
        geometric bisection after), and a level still open after
        ``_MAX_SWEEPS`` rounds raises
        :class:`~repro.exceptions.ConvergenceError`. Each round sweeps
        only the levels still open, and only the cells that can move
        ``F``: cells with ``c(β) > 0``, less the lightest whose combined
        weight is at most ``1e-13``. A 95% or 99% interval typically
        takes 3–4 sweeps,
        against the 35 CDF evaluations per level of the generic
        bisection of
        :meth:`~repro.bayes.joint.JointPosterior.reliability_quantile`,
        and agrees with it to the same ``xtol = 1e-10`` in ``r``
        (docs/PERFORMANCE.md §5).

        Only :class:`~repro.core.reliability.ReliabilityIncrement`
        windows take this path. Residual-count quantiles go through
        ``-log`` of a reliability quantile, which amplifies an r-space
        error by ``1/r``; the downstream sandwich-nesting contracts
        need the *correlated* errors of the shared generic bisection
        there, so other window callables delegate to it.
        """
        from repro.core.reliability import ReliabilityIncrement

        if not isinstance(c, ReliabilityIncrement):
            return super().reliability_quantile_batch(q, c)
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(~((levels > 0.0) & (levels < 1.0))):
            raise ValueError("quantile levels must be in (0, 1)")
        cells = _LiveCells(*self.reliability_tables(c))
        if cells.size == 0:  # c(β) = 0 everywhere: R = 1 surely
            return np.ones_like(levels)
        with obs.span("reliability.quantile", level="debug",
                      lanes=levels.size) as sp:
            result, sweeps, bracket_exits = _halley_quantiles(cells, levels)
            # The span is the shared no-op handle when the collector
            # sits below the debug level, so attrs only exist on the
            # live span.
            if getattr(sp, "attrs", None) is not None:
                sp.attrs["cells"] = cells.size
                sp.attrs["dropped_mass"] = cells.dropped_mass
                sp.attrs["sweeps"] = sweeps
                sp.attrs["bracket_exits"] = bracket_exits
        return np.clip(result, 0.0, 1.0)


class _LiveCells:
    """The quadrature cells of :meth:`VBPosterior.reliability_tables`
    that can move the reliability CDF, flattened, with per-cell
    constants for ``F``, ``F'`` and ``F''``.

    Given its cell, ``D = ω c(β)`` is gamma with shape ``a_ω`` and rate
    ``ρ = b_ω / c``. A cell with ``c(β) = 0`` (or so small that ``ρ``
    exceeds ``_MAX_RATE``) holds ``D = 0`` and adds nothing to
    ``F(s) = P(D ≥ s)`` for ``s > 0``. The lightest cells whose combined
    weight is at most ``_DROP_MASS`` are dropped too: together they move
    ``F`` by at most that much, 2000x below the β mass the tables
    already trim per component.
    """

    __slots__ = ("size", "dropped_mass", "weight", "shape", "rate",
                 "log_pdf_offset", "slope_weights")

    def __init__(self, quad_w, c_values, a_omega, b_omega) -> None:
        with np.errstate(divide="ignore", over="ignore"):
            rate = b_omega / c_values
        live = rate <= _MAX_RATE
        # Only cells at most _DROP_MASS heavy can be among the dropped.
        light = np.sort(quad_w[live & (quad_w <= _DROP_MASS)])
        n_drop = int(np.searchsorted(np.cumsum(light), _DROP_MASS, "right"))
        # Keep every cell at least as heavy as the lightest one past the
        # dropped prefix (ties with it stay).
        cut = (light[n_drop] if n_drop < light.size
               else np.nextafter(_DROP_MASS, np.inf))
        keep = live & (quad_w >= cut)
        self.dropped_mass = float(np.sum(light[light < cut]))
        self.weight = quad_w[keep]
        self.size = int(self.weight.size)
        # Tables are (component, node): gather per-component values by
        # repeating each row's value once per kept node.
        per_row = np.count_nonzero(keep, axis=1)
        self.shape = np.repeat(a_omega[:, 0], per_row)
        self.rate = rate[keep]
        # log pdf(ρ s) = (a-1) log ρ - log Γ(a) + (a-1) log s - ρ s
        self.log_pdf_offset = (self.shape - 1.0) * np.log(self.rate) - np.repeat(
            sc.gammaln(a_omega[:, 0]), per_row
        )
        # F'(s) = -Σ Wρ pdf and, from ρ²((a-1)/x - 1) = ρ(a-1)/s - ρ²,
        # F''(s) = -(Σ Wρ(a-1) pdf / s - Σ Wρ² pdf): one product with
        # these three columns yields both derivatives.
        w_rate = self.weight * self.rate
        self.slope_weights = np.stack(
            [w_rate, w_rate * (self.shape - 1.0), w_rate * self.rate], axis=1
        )

    def moment_start(self, levels: np.ndarray) -> np.ndarray:
        """``s`` at the levels' upper-tail quantiles of the gamma
        distribution matching ``E[D]`` and ``Var[D]``."""
        cell_mean = self.shape / self.rate
        mean = self.weight @ cell_mean
        with np.errstate(all="ignore"):
            # Var[D] / E[D]² from E[Var[D|cell]] + Var[E[D|cell]] with
            # Var[D|cell] = E[D|cell]² / a: free of the E[D²] - E[D]²
            # cancellation, and of under/overflow however small D is.
            ratio = cell_mean / mean
            cv2 = self.weight @ (ratio * ratio / self.shape + (ratio - 1.0) ** 2)
            start = mean * cv2 * sc.gammainccinv(1.0 / cv2, levels)
        # fmax, not maximum: a NaN start (degenerate moments) becomes
        # the floor, and the bracket logic takes over from there.
        return np.fmax(start, 1e-300)

    def sweep(self, s: np.ndarray):
        """``(F, F', F'')`` at each ``s`` (one row of cells per lane)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = s[:, None] * self.rate
            cdf = sc.gammaincc(self.shape, x) @ self.weight
            log_pdf = np.multiply.outer(np.log(s), self.shape - 1.0)
            log_pdf += self.log_pdf_offset
            log_pdf -= x
            sums = np.exp(log_pdf, out=log_pdf) @ self.slope_weights
            return cdf, -sums[:, 0], sums[:, 2] - sums[:, 1] / s


def _halley_quantiles(cells: _LiveCells, levels: np.ndarray):
    """Solve ``F(s) = q`` per level; returns ``(r, sweeps,
    bracket_exits)`` with ``r = exp(-s)``. Raises
    :class:`~repro.exceptions.ConvergenceError` if a level is still
    open after ``_MAX_SWEEPS`` rounds."""
    s = cells.moment_start(levels)
    s_lo = np.zeros_like(levels)  # F(0+) ≥ q: always a lower bracket
    s_hi = np.full_like(levels, np.inf)
    xtol = 1e-10  # accuracy in r, matching the generic bisection
    result = np.full_like(levels, np.nan)
    open_ = np.ones(levels.shape, dtype=bool)
    bracket_exits = 0
    sweeps = 0
    while open_.any():
        if sweeps == _MAX_SWEEPS:
            raise ConvergenceError(
                f"reliability quantile did not converge within "
                f"{_MAX_SWEEPS} sweeps (levels {levels[open_].tolist()})",
                iterations=sweeps,
            )
        sweeps += 1
        lanes = np.nonzero(open_)[0]
        sl, q = s[lanes], levels[lanes]
        cdf, slope, curvature = cells.sweep(sl)
        above = cdf > q  # F decreasing: root sits at larger s
        lo = np.where(above, sl, s_lo[lanes])
        hi = np.where(above, s_hi[lanes], sl)
        s_lo[lanes], s_hi[lanes] = lo, hi
        upper = np.isinf(hi)
        width = np.exp(-lo) - np.where(upper, 0.0, np.exp(-hi))
        closed = np.where(upper, lo, hi)
        bracket_done = width <= xtol
        # Halley on log F rather than F: the tail of the mixture CDF
        # is near log-linear in s, so the step stays accurate far from
        # the root (small-q lanes) and reduces to the F step near it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = np.log(cdf / q)
            dh = slope / cdf
            newton = -h / dh
            denom = 1.0 + newton * (curvature / cdf - dh * dh) / (2.0 * dh)
            # A Halley step more than twice the Newton step (or
            # reversed) means the local quadratic model is unreliable.
            target = sl + np.where(denom > 0.5, newton / denom, newton)
            r_target = np.exp(-target)
        finite = np.isfinite(target)
        # Halley approaches one-sided, so the bracket alone never
        # tightens past the far edge; accept an iterate once its own
        # step in r is far inside tolerance (the next error is smaller
        # still). That holds only inside the convergence basin, so the
        # step must also be small against s itself, and the Halley and
        # Newton steps must agree within a factor of two: near r = 1
        # any two s below ~1e-11 differ by less than the tolerance in
        # r, whether the step is a 30-fold jump across a log-flat F or
        # one the model shrank to nothing. Acceptance must not demand
        # the iterate sit strictly inside the bracket: at convergence
        # F(s) equals q in floats, the step is exactly zero, and s
        # itself is a bracket endpoint.
        step_done = (
            ~bracket_done & finite & (denom > 0.5) & (denom < 2.0)
            & (np.abs(target - sl) <= 1e-3 * sl)
            & (np.abs(r_target - np.exp(-sl)) <= 0.05 * xtol)
        )
        result[lanes] = np.where(
            bracket_done,
            np.exp(-0.5 * (lo + closed)),
            np.where(step_done, r_target, np.nan),
        )
        open_[lanes] = ~(bracket_done | step_done)
        bracket_exits += int(np.count_nonzero(bracket_done))
        # A Halley step damped below an eighth of the Newton step only
        # creeps: the slope is dominated by cells just turning on.
        inside = (target > lo) & (target < hi) & finite & ~(denom > 8.0)
        # Off-model steps search in log s (growing, or bisecting the
        # bracket geometrically): when c(β) spans many decades the root
        # can sit far from a degenerate moment start.
        fallback = np.where(
            upper,
            np.fmax(2.0 * sl, np.sqrt(sl)),
            np.sqrt(np.fmax(lo, 1e-300)) * np.sqrt(hi),
        )
        s[lanes] = np.where(inside, target, fallback)
    return result, sweeps, bracket_exits
