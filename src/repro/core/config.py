"""Configuration for the variational Bayes algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.warmstart import WarmStart

__all__ = ["VBConfig"]


@dataclass(frozen=True)
class VBConfig:
    """Tuning knobs of the VB1/VB2 fitting loops.

    Attributes
    ----------
    tail_tolerance:
        The paper's ``ε`` (Step 4): the fit is accepted once the
        variational probability mass at the truncation point,
        ``Pv(nmax)``, falls below this value. The paper uses 5e-15 in
        Table 7; the slightly looser default keeps fits fast without
        visibly moving any posterior summary.
    nmax_initial:
        Starting truncation bound for the latent fault count, expressed
        as an *increment above* the observed failure count ``me``.
    nmax_growth:
        Multiplicative growth factor applied to the increment when the
        tail check fails (Step 4's "increase nmax").
    nmax_ceiling:
        Hard upper bound on ``nmax``; exceeding it raises
        :class:`~repro.exceptions.TruncationError`.
    fixed_point_rtol:
        Relative tolerance on ``ξ`` for the zeta/xi fixed point
        (paper Eqs. 24–27).
    fixed_point_max_iter:
        Iteration budget per latent count ``N``.
    use_aitken:
        Apply Aitken Δ² acceleration to the successive-substitution
        iteration (the paper's suggested speed-up uses Newton; Aitken
        achieves the same superlinear effect without derivatives).
    truncation_policy:
        What to do when ``nmax`` hits the ceiling with the tail still
        above tolerance: ``"error"`` raises
        :class:`~repro.exceptions.TruncationError`; ``"clamp"`` accepts
        the truncated posterior and records the fact in the
        diagnostics. Clamping is the right choice for improper priors,
        whose latent-count posterior has a polynomial tail (the paper's
        NoInfo scenarios — where every method's output is truncation-
        or run-length-dependent, as the paper itself observes for
        DG-NoInfo).
    batched_solver:
        Solve the whole latent-count grid with the lane-parallel
        fixed-point solver (:func:`repro.stats.rootfind.
        solve_fixed_point_batch`) instead of one scalar solve per
        ``N``. Both paths produce bit-identical posteriors (the batch
        lanes replay the scalar iteration exactly); the flag exists as
        an escape hatch and for the benchmark/test comparisons.
    variance_correction:
        ``"none"`` returns the raw variational posterior. ``"sandwich"``
        rescales its marginal spreads to the sandwich covariance
        ``A⁻¹BA⁻¹`` estimated from the data at the posterior mean
        (:func:`repro.bayes.sandwich.apply_sandwich`) — a
        misspecification-robust interval mode: asymptotically a no-op
        under the true model, wider when the mean-value function is
        misfit. See ``docs/METHOD.md`` (robustness section).
    warm_start:
        Optional :class:`~repro.core.warmstart.WarmStart` state from a
        previous fit of (an earlier prefix of) the same data. Seeds the
        fixed-point lanes with the cached variational parameters and
        floors the initial truncation bound at the cached posterior's
        effective support plus a drift pad (``eff + max(16, (eff -
        observed) // 8)``, capped by ``nmax_ceiling``; see
        :meth:`~repro.core.warmstart.WarmStart.effective_nmax`). Warm
        starting changes the iteration path only — warm and cold fits
        agree on the final posterior to solver tolerance.
        See ``docs/METHOD.md`` §4.5.
    """

    tail_tolerance: float = 1e-12
    nmax_initial: int = 50
    nmax_growth: float = 2.0
    nmax_ceiling: int = 200_000
    fixed_point_rtol: float = 1e-12
    fixed_point_max_iter: int = 500
    use_aitken: bool = True
    truncation_policy: str = "error"
    batched_solver: bool = True
    variance_correction: str = "none"
    warm_start: WarmStart | None = field(default=None)

    def __post_init__(self) -> None:
        if self.warm_start is not None and not isinstance(
            self.warm_start, WarmStart
        ):
            raise TypeError(
                "warm_start must be a WarmStart (use "
                "repro.core.warmstart.warm_start_from) or None"
            )
        if self.truncation_policy not in ("error", "clamp"):
            raise ValueError(
                f"truncation_policy must be 'error' or 'clamp', "
                f"got {self.truncation_policy!r}"
            )
        if self.variance_correction not in ("none", "sandwich"):
            raise ValueError(
                f"variance_correction must be 'none' or 'sandwich', "
                f"got {self.variance_correction!r}"
            )
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ValueError("tail_tolerance must be in (0, 1)")
        if self.nmax_initial < 1:
            raise ValueError("nmax_initial must be at least 1")
        if self.nmax_growth <= 1.0:
            raise ValueError("nmax_growth must exceed 1")
        if self.nmax_ceiling < self.nmax_initial:
            raise ValueError("nmax_ceiling must be >= nmax_initial")
        if self.fixed_point_rtol <= 0.0:
            raise ValueError("fixed_point_rtol must be positive")
        if self.fixed_point_max_iter < 1:
            raise ValueError("fixed_point_max_iter must be at least 1")

    def canonical(self) -> dict:
        """Stable content view of every result-affecting field.

        Consumed by :mod:`repro.cache.keys` when deriving cache keys.
        Field order is fixed here — by declaration order, not call-site
        dict order — so keys cannot drift across runs or refactors.
        ``warm_start`` *is* part of the canonical content: warm seeds
        perturb last-ulp bits of the converged parameters, and the
        cache promises byte-exact hits, so differently-seeded fits get
        distinct keys.
        """
        return {
            "tail_tolerance": float(self.tail_tolerance),
            "nmax_initial": int(self.nmax_initial),
            "nmax_growth": float(self.nmax_growth),
            "nmax_ceiling": int(self.nmax_ceiling),
            "fixed_point_rtol": float(self.fixed_point_rtol),
            "fixed_point_max_iter": int(self.fixed_point_max_iter),
            "use_aitken": bool(self.use_aitken),
            "truncation_policy": str(self.truncation_policy),
            "batched_solver": bool(self.batched_solver),
            "variance_correction": str(self.variance_correction),
            "warm_start": (
                None if self.warm_start is None else self.warm_start.canonical()
            ),
        }
