"""Warm-start states for incremental VB refits.

A :class:`WarmStart` freezes the variational parameters of a converged
VB posterior so the next fit — typically on the same project one
observation period later — can seed its fixed-point solves from the
previous answer instead of from the prior-moment default.  The paper's
operational pitch (Tables 6–7) is that VB refits are cheap enough to
rerun after every period; warm starting is what makes that true in
practice: a posterior one data point away from the answer converges in
a handful of lane evaluations instead of a full cold solve.

Contract (see docs/METHOD.md §4.5):

* VB2 stores the per-``N`` variational gamma parameters of
  ``q(beta | N)`` on the contiguous latent grid ``[n0 .. nmax]`` plus
  the per-``N`` log-weights.  The fixed-point seed for lane ``N`` is
  ``xi = a_beta / b_beta`` — exactly the converged fixed point of that
  lane, so re-solving unchanged data costs one residual evaluation.
* Truncation-growth replay starts from the cached support: the
  initial truncation bound of a warm VB2 fit is floored at the cached
  posterior's effective support plus a drift pad,
  ``eff + max(16, (eff - observed) // 8)`` with
  ``eff = warm.effective_nmax(tail_tolerance)``, capped by
  ``nmax_ceiling`` (and never below the cold ``observed +
  nmax_initial``). The usual tail-mass growth continues from there,
  and grid rows beyond the cached grid fall back to the prior-moment
  seed.
* VB1 keeps two scalars: the outer-loop residual intensity
  ``lam = E[N] - observed`` and the marginal rate mean ``xi_mean``.
* Warm starts change only the *iteration path*, never the fixed point
  itself: warm and cold fits agree on the final posterior to solver
  tolerance (and bitwise on lanes whose seed is already converged).
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

    ``n``, ``a_beta``, ``b_beta``, ``log_weights`` are aligned per-``N``
    arrays over the contiguous VB2 latent grid (empty for VB1 sources).
    ``lam`` and ``xi_mean`` are the VB1 outer/inner scalar seeds; they
    are also populated from VB2 sources so a VB2 state can warm-start a
    VB1 fit of the same data.
    """

    method: str
    alpha0: float
    observed: int
    nmax: int
    n: np.ndarray = field(repr=False)
    a_beta: np.ndarray = field(repr=False)
    b_beta: np.ndarray = field(repr=False)
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
        for name in ("a_beta", "b_beta"):
            object.__setattr__(
                self, name, _readonly_f64(getattr(self, name), name)
            )
        object.__setattr__(
            self,
            "log_weights",
            _readonly_f64(self.log_weights, "log_weights", allow_neg_inf=True),
        )
        if not (
            self.n.shape
            == self.a_beta.shape
            == self.b_beta.shape
            == self.log_weights.shape
        ):
            raise ValueError("warm-start arrays must share one grid")
        if self.n.size:
            if int(self.n[0]) != self.observed or int(self.n[-1]) != self.nmax:
                raise ValueError(
                    "warm-start grid must span [observed .. nmax]"
                )
            if not np.all(np.diff(self.n) == 1):
                raise ValueError("warm-start grid must be contiguous")
            if np.any(self.a_beta <= 0) or np.any(self.b_beta <= 0):
                raise ValueError("gamma parameters must be positive")
        if not np.isfinite(self.alpha0) or self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be non-negative")
        if not np.isfinite(self.xi_mean) or self.xi_mean <= 0:
            raise ValueError("xi_mean must be positive")

    # -- seeds ---------------------------------------------------------

    @property
    def xi(self) -> np.ndarray:
        """Per-``N`` fixed-point seeds ``a_beta / b_beta`` (VB2 grid)."""
        return self.a_beta / self.b_beta

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

    def seeds_for_range(self, n_start: int, n_end: int) -> np.ndarray:
        """Seed array for grid rows ``n_start .. n_end`` inclusive.

        Rows covered by the cached grid take the cached fixed point;
        rows outside it are ``nan`` — the solver keeps its prior-moment
        default there.
        """
        seeds = np.full(int(n_end) - int(n_start) + 1, np.nan)
        if self.n.size:
            lo = max(int(n_start), int(self.n[0]))
            hi = min(int(n_end), int(self.nmax))
            if lo <= hi:
                src = lo - int(self.n[0])
                dst = lo - int(n_start)
                count = hi - lo + 1
                xi = self.xi
                seeds[dst : dst + count] = xi[src : src + count]
        return seeds

    def lane_rtols(
        self,
        n_start: int,
        n_end: int,
        *,
        rtol: float,
        loose_rtol: float,
        weight_tolerance: float,
    ) -> np.ndarray:
        """Weight-stratified stopping tolerances for rows
        ``n_start .. n_end`` inclusive.

        Lanes inside the cached grid whose cached posterior weight is
        below ``weight_tolerance`` solve at ``loose_rtol``; every other
        lane keeps the tight ``rtol``. This is safe because each lane's
        log-weight is *stationary* at its variational fixed point (the
        weight is the per-``N`` evidence the coordinate ascent
        maximises over ``q(β|N)``), so a relative solve error ``r``
        perturbs the log-weight only to second order — measured
        curvature ≈ ``10 r²`` on the benchmark workload, i.e. ~1e-7 at
        ``loose_rtol = 1e-4`` — on lanes that carry less than
        ``weight_tolerance`` (``1e-5`` in :func:`repro.core.vb2.fit_vb2`)
        of the posterior mass. The induced error in any mixture
        functional is bounded by ``weight × parameter error`` ≈ 1e-9,
        under the warm-vs-cold agreement gate (see docs/METHOD.md
        §4.5).

        Rows *outside* the cached grid stay tight: below it there is no
        weight information, and above it the row only exists because
        truncation growth demanded it — i.e. the new data put real mass
        there, so the cached tail is no evidence of negligibility. VB1
        states (no grid) keep every lane tight.
        """
        size = int(n_end) - int(n_start) + 1
        out = np.full(size, float(rtol))
        if not self.n.size or not loose_rtol > rtol:
            return out
        log_tol = float(np.log(weight_tolerance))
        lo = max(int(n_start), int(self.n[0]))
        hi = min(int(n_end), int(self.nmax))
        if lo <= hi:
            src = lo - int(self.n[0])
            dst = lo - int(n_start)
            count = hi - lo + 1
            loose = self.log_weights[src : src + count] < log_tol
            out[dst : dst + count][loose] = float(loose_rtol)
        return out

    # -- value semantics ----------------------------------------------

    def _key(self) -> tuple:
        return (
            self.method,
            self.alpha0,
            self.observed,
            self.nmax,
            self.n.tobytes(),
            self.a_beta.tobytes(),
            self.b_beta.tobytes(),
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
            "a_beta": self.a_beta,
            "alpha0": self.alpha0,
            "b_beta": self.b_beta,
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
    a_beta = posterior._beta_shape
    b_beta = posterior._beta_rate
    xi_mean = float(np.dot(weights, a_beta / b_beta))

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
            a_beta=np.empty(0),
            b_beta=np.empty(0),
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
        a_beta=a_beta,
        b_beta=b_beta,
        log_weights=log_weights,
        lam=max(expected_n - observed, 0.0),
        xi_mean=xi_mean,
    )
