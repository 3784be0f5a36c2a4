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
        Relative tolerance on ``ξ``: VB2's conditional solve (paper
        Eqs. 24–27) polishes each latent count's ``ξ_N`` until its
        Newton step ``|Δ log ξ|`` is at most this; VB1 stops its
        successive substitution on the same relative step.
    fixed_point_max_iter:
        Budget of VB2 polish sweeps per growth round (each sweep
        evaluates every unconverged lane once), and of VB1 outer and
        inner iterations.
    use_aitken:
        Apply Aitken Δ² acceleration to VB1's successive-substitution
        iteration. Read by VB1 only: VB2 inverts the closed-form
        ``N(ξ)`` instead of iterating.
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
        previous fit of (an earlier prefix of) the same data. VB2
        floors the initial truncation bound at the cached posterior's
        effective support plus a drift pad (``eff + max(16, (eff -
        observed) // 8)``, capped by ``nmax_ceiling``; see
        :meth:`~repro.core.warmstart.WarmStart.effective_nmax`); VB1
        seeds its outer and inner iterations. Warm starting changes
        the path only — warm and cold fits agree on the final
        posterior to solver tolerance. See ``docs/METHOD.md`` §4.5.
    """

    tail_tolerance: float = 1e-12
    nmax_initial: int = 50
    nmax_growth: float = 2.0
    nmax_ceiling: int = 200_000
    fixed_point_rtol: float = 1e-12
    fixed_point_max_iter: int = 500
    use_aitken: bool = True
    truncation_policy: str = "error"
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
        ``warm_start`` *is* part of the canonical content: a warm start
        changes the truncation schedule, which perturbs last-ulp bits
        of the solved parameters, and the cache promises byte-exact
        hits, so differently-started fits get distinct keys.
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
            "variance_correction": str(self.variance_correction),
            "warm_start": (
                None if self.warm_start is None else self.warm_start.canonical()
            ),
        }
