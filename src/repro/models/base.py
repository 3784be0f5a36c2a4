"""Abstract base class for finite-failure NHPP software reliability models.

The model class of the paper (Section 2): the number of faults ``N`` is
Poisson with mean ``ω``; each fault's detection time is i.i.d. with
lifetime distribution ``G(t; θ)``. Consequently the cumulative failure
process ``M(t)`` is an NHPP with mean value function
``Λ(t) = ω G(t; θ)`` and intensity ``λ(t) = ω g(t; θ)``.

Concrete subclasses supply the lifetime distribution; everything else —
mean value function, likelihoods for both data structures, software
reliability, simulation hooks — lives here.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Mapping

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import ModelSpecificationError
from repro.stats.special import log_factorial

__all__ = ["NHPPModel"]


class NHPPModel(abc.ABC):
    """Finite-failure NHPP software reliability model.

    Subclasses must define the fault-lifetime distribution through
    :meth:`lifetime_cdf`, :meth:`lifetime_log_pdf`, and
    :meth:`sample_lifetimes`, expose their parameters via
    :attr:`params`, and support :meth:`replace`.
    """

    #: Short registry name, overridden by subclasses.
    name: str = "nhpp"

    def __init__(self, omega: float) -> None:
        if not (omega > 0.0 and math.isfinite(omega)):
            raise ModelSpecificationError(
                f"omega (expected total faults) must be positive, got {omega}"
            )
        self._omega = float(omega)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def omega(self) -> float:
        """Expected total number of faults ``ω``."""
        return self._omega

    @property
    @abc.abstractmethod
    def params(self) -> Mapping[str, float]:
        """All free parameters by name (including ``omega``)."""

    @abc.abstractmethod
    def replace(self, **changes: float) -> "NHPPModel":
        """Copy of the model with some parameters replaced."""

    # ------------------------------------------------------------------
    # Lifetime distribution G(t; θ)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def lifetime_cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """Fault-lifetime CDF ``G(t; θ)``."""

    @abc.abstractmethod
    def lifetime_log_pdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """Log density ``log g(t; θ)`` of the fault lifetime."""

    @abc.abstractmethod
    def sample_lifetimes(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw i.i.d. fault lifetimes."""

    def lifetime_pdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """Density ``g(t; θ)``."""
        return np.exp(self.lifetime_log_pdf(t))

    def lifetime_sf(self, t: float | np.ndarray) -> float | np.ndarray:
        """Survival function ``1 - G(t; θ)``; subclasses override with a
        tail-stable version where available."""
        return 1.0 - self.lifetime_cdf(t)

    # ------------------------------------------------------------------
    # Process-level quantities
    # ------------------------------------------------------------------
    def mean_value(self, t: float | np.ndarray) -> float | np.ndarray:
        """Mean value function ``Λ(t) = ω G(t; θ)`` (paper Eq. 2)."""
        return self.omega * self.lifetime_cdf(t)

    def intensity(self, t: float | np.ndarray) -> float | np.ndarray:
        """Failure intensity ``λ(t) = ω g(t; θ)``."""
        return self.omega * self.lifetime_pdf(t)

    def expected_residual_faults(self, t: float) -> float:
        """``E[N - M(t)] = ω (1 - G(t))``: faults still latent at ``t``."""
        return self.omega * float(self.lifetime_sf(t))

    def reliability(self, t: float, u: float) -> float:
        """Software reliability ``R(t+u | t)`` (paper Eq. 3): probability
        of no failure in ``(t, t+u]``."""
        if u < 0:
            raise ValueError("u must be non-negative")
        increment = self.mean_value(t + u) - self.mean_value(t)
        return math.exp(-float(increment))

    # ------------------------------------------------------------------
    # Log-likelihoods
    # ------------------------------------------------------------------
    def log_likelihood_times(self, data: FailureTimeData) -> float:
        """Failure-time log-likelihood (paper Eq. 4)."""
        me = data.count
        total = me * math.log(self.omega) - self.omega * float(
            self.lifetime_cdf(data.horizon)
        )
        if me:
            total += float(np.sum(self.lifetime_log_pdf(data.times)))
        return total

    def log_likelihood_grouped(self, data: GroupedData) -> float:
        """Grouped-data log-likelihood (paper Eq. 5).

        ``−ω G(s_k) + Σ_i [x_i (log ΔG_i + log ω) − log x_i!]`` over the
        occupied intervals, or ``−inf`` when one of them has no model
        mass. The terms are built as arrays and added by one ``cumsum``
        over ``[−ω G(s_k), x_1 (log ΔG_1 + log ω), −log x_1!, …]``: the
        same left-to-right float additions, in the same order, as a loop
        over the intervals. ``log ΔG_i`` is taken with ``math.log`` (libm),
        which NumPy's ``log`` can differ from by an ulp. Past the median
        ``ΔG_i`` is a survival difference: a CDF difference there loses
        its digits to cancellation.
        """
        edges = data.interval_edges()
        cdf_vals = np.asarray(self.lifetime_cdf(edges), dtype=float)
        occupied = data.counts > 0
        counts = data.counts[occupied]
        increments = np.diff(cdf_vals)
        upper = cdf_vals[:-1] > 0.5
        if upper.any():
            survival = np.asarray(self.lifetime_sf(edges), dtype=float)
            increments = np.where(upper, -np.diff(survival), increments)
        increments = increments[occupied]
        if np.any(increments <= 0.0):
            return -math.inf  # data in an interval the model gives zero mass
        log_increments = np.fromiter(
            map(math.log, increments.tolist()), dtype=float, count=counts.size
        )
        terms = np.empty(2 * counts.size + 1)
        terms[0] = -self.omega * cdf_vals[-1]
        terms[1::2] = counts * (log_increments + math.log(self.omega))
        terms[2::2] = -log_factorial(counts)
        return np.cumsum(terms)[-1]

    def log_likelihood(self, data: FailureTimeData | GroupedData) -> float:
        """Dispatch on the data structure."""
        if isinstance(data, FailureTimeData):
            return self.log_likelihood_times(data)
        if isinstance(data, GroupedData):
            return self.log_likelihood_grouped(data)
        raise TypeError(f"unsupported data type: {type(data).__name__}")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"
