"""Warm-start states for incremental VB refits.

A :class:`WarmStart` freezes what the next fit of the same project —
typically one observation period later — can reuse from a converged VB
posterior. The paper's operational pitch (Tables 6–7) is that VB
refits are cheap enough to rerun after every period.

Contract (see docs/METHOD.md §4.5):

* VB2 keeps its *support hint*: the per-``N`` log-weights on the
  contiguous latent grid ``[n0 .. nmax]``. The initial truncation
  bound of a warm VB2 fit is floored at the cached posterior's
  effective support plus a drift pad,
  ``eff + max(16, (eff - observed) // 8)`` with
  ``eff = warm.effective_nmax(tail_tolerance)``, capped by
  ``nmax_ceiling`` (and never below the cold ``observed +
  nmax_initial``), so the cold growth schedule is not replayed. The
  usual tail-mass growth continues from there. The conditional solves
  themselves take no seed: every lane is solved to
  ``fixed_point_rtol`` from its own bracket.
* VB1 keeps two scalars: the outer-loop residual intensity
  ``lam = E[N] - observed`` and the marginal rate mean ``xi_mean``.
* Warm starts change only the *path*, never the answer: warm and cold
  fits agree on the final posterior to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WarmStart", "warm_start_from"]


def _readonly_f64(
    values, name: str, *, allow_neg_inf: bool = False
) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    bad = ~np.isfinite(arr)
    if allow_neg_inf:
        bad &= arr != -np.inf
    if arr.size and np.any(bad):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class WarmStart:
    """Frozen variational state extracted from a converged VB posterior.

    ``n`` and ``log_weights`` are aligned per-``N`` arrays over the
    contiguous VB2 latent grid (empty for VB1 sources).
    ``lam`` and ``xi_mean`` are the VB1 outer/inner scalar seeds; they
    are also populated from VB2 sources so a VB2 state can warm-start a
    VB1 fit of the same data.
    """

    method: str
    alpha0: float
    observed: int
    nmax: int
    n: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    lam: float
    xi_mean: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", str(self.method))
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "observed", int(self.observed))
        object.__setattr__(self, "nmax", int(self.nmax))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "xi_mean", float(self.xi_mean))
        n = np.asarray(self.n, dtype=np.int64).copy()
        n.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self,
            "log_weights",
            _readonly_f64(self.log_weights, "log_weights", allow_neg_inf=True),
        )
        if self.n.shape != self.log_weights.shape:
            raise ValueError("warm-start arrays must share one grid")
        if self.n.size:
            if int(self.n[0]) != self.observed or int(self.n[-1]) != self.nmax:
                raise ValueError(
                    "warm-start grid must span [observed .. nmax]"
                )
            if not np.all(np.diff(self.n) == 1):
                raise ValueError("warm-start grid must be contiguous")
        if not np.isfinite(self.alpha0) or self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be non-negative")
        if not np.isfinite(self.xi_mean) or self.xi_mean <= 0:
            raise ValueError("xi_mean must be positive")

    # -- support hint --------------------------------------------------

    def effective_nmax(self, tail_tolerance: float) -> int:
        """The truncation bound the cached posterior actually needed.

        The smallest grid end at which the cached weights' own tail
        mass already satisfied ``tail_tolerance`` — i.e. the first lane
        past the mode whose weight dropped below the tolerance. The
        raw ``nmax`` overshoots this (the doubling growth schedule
        lands wherever the last doubling put it, and an early diffuse
        fit can be far wider than a later concentrated one); flooring
        a warm refit at the *effective* support replays the previous
        fit's truncation decision without inheriting its overshoot.
        Falls back to ``nmax`` when no lane is below tolerance (a
        clamped fit) or for VB1 states (no grid).
        """
        if not self.n.size:
            return self.nmax
        log_tol = float(np.log(tail_tolerance))
        above = np.nonzero(self.log_weights >= log_tol)[0]
        if above.size == 0 or above[-1] + 1 >= self.n.size:
            return self.nmax
        return int(self.n[above[-1] + 1])

    # -- value semantics ----------------------------------------------

    def _key(self) -> tuple:
        return (
            self.method,
            self.alpha0,
            self.observed,
            self.nmax,
            self.n.tobytes(),
            self.log_weights.tobytes(),
            self.lam,
            self.xi_mean,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WarmStart):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def canonical(self) -> dict:
        """Deterministic content view consumed by the cache key encoder.

        Field order is fixed by this method (not by dict construction
        order at call sites), so the serialization cannot drift.
        """
        return {
            "alpha0": self.alpha0,
            "lam": self.lam,
            "log_weights": self.log_weights,
            "method": self.method,
            "n": self.n,
            "nmax": self.nmax,
            "observed": self.observed,
            "xi_mean": self.xi_mean,
        }


def warm_start_from(posterior) -> WarmStart:
    """Extract a :class:`WarmStart` from any VB posterior.

    Accepts plain :class:`~repro.core.posterior.VBPosterior` objects
    (VB2 mixtures and VB1 single-component fits), Weibull wrappers
    (delegates to the theta-space inner posterior — warm states live in
    transformed time), and sandwich-scaled posteriors (delegates to the
    uncorrected base: the scale correction does not move the
    variational fixed point).
    """
    inner = getattr(posterior, "theta_posterior", None)
    if inner is not None:
        return warm_start_from(inner)
    base = getattr(posterior, "base", None)
    if base is not None and not hasattr(posterior, "_beta_shape"):
        return warm_start_from(base)

    diagnostics = getattr(posterior, "diagnostics", None) or {}
    alpha0 = float(diagnostics.get("alpha0", 1.0))
    n_values = np.asarray(posterior.n_values, dtype=np.float64)
    weights = np.asarray(posterior.weights, dtype=np.float64)
    xi_mean = float(
        np.dot(weights, posterior._beta_shape / posterior._beta_rate)
    )

    method = str(getattr(posterior, "method_name", "VB2"))
    if method == "VB1" or n_values.size == 1:
        expected_n = float(n_values[0])
        lam = float(diagnostics.get("lambda_star", 0.0))
        observed = int(round(expected_n - lam))
        return WarmStart(
            method="VB1",
            alpha0=alpha0,
            observed=max(observed, 0),
            nmax=max(observed, 0),
            n=np.empty(0, dtype=np.int64),
            log_weights=np.empty(0),
            lam=max(lam, 0.0),
            xi_mean=xi_mean,
        )

    n_grid = np.rint(n_values).astype(np.int64)
    if np.any(np.abs(n_values - n_grid) > 1e-9) or (
        n_grid.size > 1 and not np.all(np.diff(n_grid) == 1)
    ):
        raise ValueError(
            "posterior does not carry a contiguous integer latent grid; "
            "cannot extract a VB2 warm start"
        )
    observed = int(n_grid[0])
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    expected_n = float(np.dot(weights, n_values))
    return WarmStart(
        method=method,
        alpha0=alpha0,
        observed=observed,
        nmax=int(n_grid[-1]),
        n=n_grid,
        log_weights=log_weights,
        lam=max(expected_n - observed, 0.0),
        xi_mean=xi_mean,
    )
