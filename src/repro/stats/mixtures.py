"""Finite mixture of gamma distributions.

The VB2 marginal posterior of each model parameter is a finite mixture
of gamma distributions indexed by the latent fault count ``N``
(paper Section 5.1: ``Pv(µ) = Σ_N Pv(µ|N) Pv(N)``). This module gives
that object a complete distribution interface — density, CDF, stable
quantiles, raw/central moments and sampling.

The mixture keeps its component shapes ``a`` and rates ``b`` as
arrays; component objects are made only on request. ``pdf``/``cdf``
are single ``scipy.special`` broadcasts over an ``(n_points,
n_components)`` grid, and :meth:`MixtureDistribution.ppf` hands all
levels to the gamma-cell quantile engine
(:mod:`repro.stats.gamma_cells`), whose ladder kernel serves the ω
marginal (shapes stepping by 1 under one rate) — see
``docs/PERFORMANCE.md`` §1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.stats import scipy_special as sc
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.gamma_cells import GammaCells

__all__ = ["MixtureDistribution"]


class MixtureDistribution:
    """Weighted finite mixture ``Σ_i w_i Gamma(a_i, b_i)``.

    Parameters
    ----------
    shapes, rates:
        Component shapes ``a`` and rates ``b`` (positive and finite;
        validated by the caller).
    weights:
        Non-negative weights; normalised internally.
    """

    def __init__(self, shapes: np.ndarray, rates: np.ndarray,
                 weights: Sequence[float] | np.ndarray) -> None:
        self._a = np.asarray(shapes, dtype=float)
        self._b = np.asarray(rates, dtype=float)
        if self._a.size == 0:
            raise ValueError("mixture needs at least one component")
        self._components = None
        self._weights = _normalised(weights, self._a.size)

    # ------------------------------------------------------------------
    @property
    def components(self) -> list[GammaDistribution]:
        """The component distributions, built on first use (shared
        reference)."""
        if self._components is None:
            self._components = [
                GammaDistribution(a, b)
                for a, b in zip(self._a.tolist(), self._b.tolist())
            ]
        return self._components

    @property
    def weights(self) -> np.ndarray:
        """Normalised mixture weights (copy)."""
        return self._weights.copy()

    def __len__(self) -> int:
        return self._weights.size

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def _component_means(self):
        return (self._a / self._b).tolist()

    @property
    def mean(self) -> float:
        """Mixture mean ``Σ w_i m_i``."""
        return float(sum(w * m for w, m in zip(self._weights,
                                               self._component_means())))

    @property
    def variance(self) -> float:
        """Law of total variance in the shifted form
        ``Σ w_i (v_i + (m_i - µ)^2)``.

        The textbook ``E[X²] - mean²`` cancels catastrophically for
        tightly concentrated mixtures (large-``N`` VB2 posteriors have
        relative widths ~``1/√N``); centring each component first keeps
        every summand non-negative and loses nothing to cancellation.
        """
        mu = self.mean
        variances = [a / b**2 for a, b in zip(self._a.tolist(),
                                              self._b.tolist())]
        return float(
            sum(
                w * (v + (m - mu) ** 2)
                for w, v, m in zip(self._weights, variances,
                                   self._component_means())
            )
        )

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = Σ w_i E_i[X^k]``."""
        return float(
            sum(w * c.moment(k) for w, c in zip(self._weights, self.components))
        )

    def central_moment(self, k: int) -> float:
        """Central moment via the shifted expansion around each
        component mean: ``E[(X-µ)^k] = Σ_i w_i Σ_j C(k,j)
        E_i[(X-m_i)^j] (m_i-µ)^(k-j)``.

        Like :attr:`variance`, this avoids the catastrophic
        cancellation of expanding raw moments around zero when the
        mixture is concentrated far from the origin.
        """
        mu = self.mean
        total = 0.0
        for w, c in zip(self._weights, self.components):
            delta = c.mean - mu
            inner = 0.0
            for j in range(k + 1):
                inner += math.comb(k, j) * c.central_moment(j) * delta ** (k - j)
            total += w * inner
        return float(total)

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density: one broadcast over the components."""
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel()
        out = np.zeros(flat.size)
        pos = flat > 0.0
        if np.any(pos):
            xp = flat[pos][:, None]
            log_pdf = (
                self._a * np.log(self._b)
                + (self._a - 1.0) * np.log(xp)
                - self._b * xp
                - sc.gammaln(self._a)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                log_w = np.log(self._weights)
                out[pos] = np.exp(sc.logsumexp(log_w + log_pdf, axis=1))
        if np.ndim(x) == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture CDF: one broadcast over the components.

        The weighted reduction uses per-row pairwise summation (not a
        BLAS matvec) so a point's CDF value is bit-identical whether it
        is evaluated alone or inside a batch.
        """
        arr = np.asarray(x, dtype=float)
        clipped = np.clip(arr.ravel(), 0.0, None)[:, None]
        out = (sc.gammainc(self._a, self._b * clipped) * self._weights).sum(axis=1)
        if np.ndim(x) == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantile(s) of the mixture.

        Accepts a scalar level or an array of levels. Every level is
        solved in one call of the gamma-cell engine
        (:meth:`~repro.stats.gamma_cells.GammaCells.quantiles`), to
        ``1e-12 + 1e-10 |x|``; a scalar level is the one-level call,
        and levels are independent lanes, so a level's quantile is
        bit-identical alone or in a batch.

        Raises
        ------
        ConvergenceError
            If the solver budget is exhausted before convergence
            (never silently returns an unconverged iterate).
        """
        scalar = np.ndim(q) == 0
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if levels.size == 0:
            return levels.copy()
        if not np.all((levels > 0.0) & (levels < 1.0)):
            bad = levels[~((levels > 0.0) & (levels < 1.0))][0]
            raise ValueError(f"quantile level must be in (0, 1), got {bad}")
        out = GammaCells(self._weights, self._a, self._b).quantiles(levels)[0]
        if scalar:
            return float(out[0])
        return out

    def interval(self, confidence: float) -> tuple[float, float]:
        """Central two-sided interval of the given confidence level."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        tail = 0.5 * (1.0 - confidence)
        endpoints = self.ppf(np.array([tail, 1.0 - tail]))
        return float(endpoints[0]), float(endpoints[1])

    def interval_batch(self, confidences: Sequence[float] | np.ndarray) -> np.ndarray:
        """Central intervals for many confidence levels at once.

        Returns an ``(n, 2)`` array of ``(lower, upper)`` endpoints,
        computed by a single batched :meth:`ppf` call over all ``2n``
        tail levels.
        """
        conf = np.atleast_1d(np.asarray(confidences, dtype=float))
        if not np.all((conf > 0.0) & (conf < 1.0)):
            raise ValueError("confidence levels must be in (0, 1)")
        tails = 0.5 * (1.0 - conf)
        quantiles = self.ppf(np.concatenate([tails, 1.0 - tails]))
        return np.column_stack([quantiles[: conf.size], quantiles[conf.size:]])

    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw variates by multinomial component selection."""
        counts = rng.multinomial(size, self._weights)
        parts = [
            comp.sample(int(n), rng)
            for comp, n in zip(self.components, counts)
            if n > 0
        ]
        out = np.concatenate(parts) if parts else np.empty(0)
        rng.shuffle(out)
        return out


def _normalised(weights, count: int) -> np.ndarray:
    """Validate mixture weights against the component count and
    normalise them."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (count,):
        raise ValueError(
            f"weights shape {weights.shape} does not match "
            f"{count} components"
        )
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    return weights / total
