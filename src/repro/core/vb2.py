"""VB2: the paper's structured variational Bayes algorithm.

Implements the general algorithm of Section 5.1:

1. set the latent-count range to ``[me, nmax]``;
2. solve the conditional posteriors for every ``N`` in the range
   (paper Eqs. 17–18, concretely Eqs. 22–27);
3. evaluate the unnormalised ``P̃v(N)`` (Eq. 28) and normalise;
4. if the mass at ``nmax`` exceeds the tolerance ``ε``, grow ``nmax``
   and continue (previously solved ``N`` are reused, so growth costs
   only the new tail);
5. return the mixture posterior ``Pv(ω, β) = Σ_N Pv(N) Pv(ω|N) Pv(β|N)``.

Steps 1–4 are one truncation-growth driver (:class:`_Vb2State`,
:func:`_drive_vb2_group`) shared by :func:`fit_vb2` and
:func:`repro.core.fleet.fit_vb2_fleet`: each growth round solves every
still-growing dataset's new latent-count tail as ``(dataset, N)``
lanes of one sweep of the inverse solver
(:func:`repro.core.gamma_updates.solve_lanes`). A single fit is the
one-dataset case of the fleet sweep.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import apply_sandwich
from repro.core.config import VBConfig
from repro.core.gamma_updates import (
    GroupedStats,
    SweepInputs,
    TimesStats,
    elbo_constant,
    solve_lanes,
)
from repro.core.posterior import VBPosterior
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import TruncationError
from repro.stats.special import log_sum_exp, log_sum_exp_stream

__all__ = ["fit_vb2", "next_truncation_bound"]


def next_truncation_bound(observed: int, bound: int, config: VBConfig) -> int:
    """Step 4's "increase nmax": grow the increment above ``observed``
    by ``config.nmax_growth``, always advancing by at least one."""
    increment = bound - observed
    return observed + max(
        int(np.ceil(increment * config.nmax_growth)), increment + 1
    )


def _check_alpha0(alpha0: float, where: str = "") -> None:
    if not (math.isfinite(alpha0) and alpha0 > 0.0):
        raise ValueError(f"{where}alpha0 must be positive and finite, got {alpha0}")


# ----------------------------------------------------------------------
# Truncation-growth driver (one dataset or a fleet)
# ----------------------------------------------------------------------
class _Vb2State:
    """One dataset's truncation-growth state machine (steps 1 and 4).

    Only the *solving* is shared with the other datasets in a lane
    sweep; every growth decision is this dataset's own. ``index`` is
    the dataset's fleet position, or ``None`` for a single fit, whose
    errors and events then carry no ``dataset`` tag.
    """

    __slots__ = (
        "index", "where", "tags", "data", "prior", "alpha0", "stats",
        "observed", "kind", "nmax_fixed", "bound", "clamped",
        "growth_rounds", "warm", "gpos", "lanes_done", "evaluations",
        "last_n", "_parts", "log_w", "n", "a_omega", "b_omega", "a_beta",
        "b_beta",
    )

    def __init__(self, data, prior, alpha0, nmax, config, warm=None,
                 index=None):
        self.index = index
        self.where = "" if index is None else f"dataset {index}: "
        self.tags = {} if index is None else {"dataset": index}
        _check_alpha0(alpha0, self.where)
        if isinstance(data, FailureTimeData):
            self.kind = "times"
            self.stats = TimesStats.from_data(data)
            self.observed = self.stats.me
        elif isinstance(data, GroupedData):
            self.kind = "grouped"
            self.stats = GroupedStats.from_data(data)
            self.observed = self.stats.total
        else:
            raise TypeError(f"unsupported data type: {type(data).__name__}")
        if self.observed == 0 and not prior.beta.is_proper:
            raise ValueError(
                f"{self.where}N = 0 with an improper beta prior leaves "
                f"Pv(beta | N) improper"
            )
        if warm is not None and float(warm.alpha0) != float(alpha0):
            raise ValueError(
                f"{self.where}warm_start was extracted at "
                f"alpha0={warm.alpha0:g} but this fit uses "
                f"alpha0={alpha0:g}; warm starts only transfer within one "
                f"gamma shape"
            )
        self.data = data
        self.prior = prior
        self.alpha0 = alpha0
        self.warm = warm
        self.nmax_fixed = nmax
        if nmax is not None:
            nmax = int(nmax)
            if nmax < self.observed:
                raise ValueError(
                    f"{self.where}nmax={nmax} is below the observed "
                    f"failure count {self.observed}"
                )
            self.bound = nmax
        else:
            self.bound = self.observed + config.nmax_initial
            if warm is not None:
                # Truncation-growth replay: a warm fit starts from at
                # least the cached grid's effective support plus a pad
                # for the drift one period of data causes — so the cold
                # growth schedule is not re-run, and the stale
                # schedule's overshoot is not inherited either. If the
                # pad under-shoots, the normal growth loop resumes.
                eff = warm.effective_nmax(config.tail_tolerance)
                pad = max(16, (eff - self.observed) // 8)
                self.bound = max(
                    self.bound, min(eff + pad, config.nmax_ceiling)
                )
        self.clamped = False
        self.growth_rounds = 0
        # Solved lanes accumulate as (solutions, slice) references and
        # concatenate once at finalize — per-round concatenation across
        # a thousand datasets' seven fields otherwise dominates the
        # small-sweep cost. `log_w` keeps the log-weight views every
        # round's tail check reads.
        self.gpos = -1
        self.lanes_done = 0
        self.evaluations = 0
        self.last_n = -1
        self._parts: list = []
        self.log_w: list = []
        self.n = None

    def extend(self, sols, start: int, stop: int, evaluations: int) -> None:
        """Append lanes ``start:stop`` of a round's solutions, which
        solved this dataset's ``N`` up to the current bound with
        ``evaluations`` evaluations of ``N(ξ)``."""
        sl = slice(start, stop)
        self._parts.append((sols, sl))
        self.log_w.append(sols.log_weight[sl])
        self.lanes_done += stop - start
        self.evaluations += evaluations
        self.last_n = self.bound

    def materialize(self) -> None:
        """Materialise the flat per-``N`` component arrays. Deferred to
        posterior construction: the growth loop only reads the
        log-weights, so a thousand-dataset sweep never concatenates the
        other fields for posteriors nobody asks for."""
        if self.n is not None:
            return
        fields = ("n", "a_omega", "b_omega", "a_beta", "b_beta")
        for name in fields:
            parts = [getattr(s, name)[sl] for s, sl in self._parts]
            setattr(
                self, name, parts[0] if len(parts) == 1 else np.concatenate(parts)
            )

    def posterior(self, weights, elbo, diagnostics) -> VBPosterior:
        """The mixture posterior (step 5) over the solved grid."""
        self.materialize()
        return VBPosterior.from_arrays(
            self.n, weights, self.a_omega, self.b_omega, self.a_beta,
            self.b_beta, method_name="VB2", elbo=elbo, diagnostics=diagnostics,
        )

    def post_round(self, config: VBConfig, tail: float) -> bool:
        """Step 4 for one round. ``tail`` is the dataset's normalised
        mass at the bound (computed batched across the sweep). Returns
        True when this dataset is done."""
        if tail < config.tail_tolerance:
            return True
        if obs.enabled():
            obs.event(
                "vb2.grow", level="debug", round=self.growth_rounds + 1,
                bound=self.bound, tail_mass=tail, **self.tags,
            )
        self.growth_rounds += 1
        self.bound = next_truncation_bound(self.observed, self.bound, config)
        if self.bound > config.nmax_ceiling:
            if config.truncation_policy == "clamp":
                self.bound = config.nmax_ceiling
                self.clamped = True
                return self.bound <= self.last_n
            if obs.enabled():
                obs.counter_add("vb2.truncation_failures")
                obs.event(
                    "vb2.truncation_failure", bound=self.bound,
                    ceiling=config.nmax_ceiling, tail_mass=tail, **self.tags,
                )
            raise TruncationError(
                f"{self.where}nmax exceeded the ceiling "
                f"{config.nmax_ceiling} with tail mass {tail:.3e} still "
                f"above tolerance {config.tail_tolerance:.3e}"
            )
        return False


def _drive_vb2_group(states, alpha0, config, *, on_done=None):
    """Run one ``(kind, alpha0)`` partition's growth rounds to
    completion; each round solves every still-active dataset's new
    latent-count tail in a single lane sweep. ``on_done`` is called
    once per dataset as it finishes.
    """
    for pos, st in enumerate(states):
        st.gpos = pos
    inputs = SweepInputs.pack(
        [st.data for st in states], [st.prior for st in states]
    )
    active = list(states)
    while active:
        lanes = []
        for st in active:
            first = st.observed + st.lanes_done
            if first <= st.bound:
                lanes.append((st, first, st.bound))
        if lanes:
            start = np.array([first for _, first, _ in lanes])
            stop = np.array([st.bound for st, _, _ in lanes])
            sols, evaluations = solve_lanes(
                inputs, alpha0, [st.gpos for st, _, _ in lanes], start,
                stop, config, where=[st.where for st, _, _ in lanes],
            )
            offsets = np.concatenate(([0], np.cumsum(stop - start + 1)))
            for k, (st, _, _) in enumerate(lanes):
                st.extend(sols, int(offsets[k]), int(offsets[k + 1]),
                          int(evaluations[k]))
        # Fixed-nmax and already-clamped datasets retire before the tail
        # check: they never grow.
        checking = []
        for st in active:
            if st.nmax_fixed is not None or st.clamped:
                if on_done is not None:
                    on_done()
            else:
                checking.append(st)
        remaining = []
        if checking:
            # One segmented logsumexp covers every dataset's tail-mass
            # check this sweep; each segment reduces over that dataset's
            # own weights only (`log_sum_exp` is the one-segment case).
            flat = np.concatenate([p for st in checking for p in st.log_w])
            stops = np.cumsum(
                np.array([st.lanes_done for st in checking], dtype=np.intp)
            )
            starts = np.concatenate(([0], stops[:-1]))
            tails = np.exp(flat[stops - 1] - log_sum_exp_stream(flat, starts))
            for st, tail in zip(checking, tails):
                if st.post_round(config, float(tail)):
                    if on_done is not None:
                        on_done()
                else:
                    remaining.append(st)
        active = remaining


# ----------------------------------------------------------------------
# Single-dataset fit
# ----------------------------------------------------------------------
def fit_vb2(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float = 1.0,
    config: VBConfig | None = None,
    *,
    nmax: int | None = None,
) -> VBPosterior:
    """Fit the VB2 posterior for a gamma-type NHPP SRM.

    Parameters
    ----------
    data:
        Failure-time or grouped failure data.
    prior:
        Independent (possibly improper) gamma priors on ``(ω, β)``.
    alpha0:
        Fixed lifetime shape of the gamma-type family (1 = Goel–Okumoto,
        2 = delayed S-shaped).
    config:
        Algorithm tuning; defaults to :class:`VBConfig()`.
    nmax:
        If given, use this *fixed* truncation bound and skip the
        adaptive growth (the mode timed in the paper's Table 7).
        Otherwise ``nmax`` adapts until ``Pv(nmax) < ε``.

    Returns
    -------
    VBPosterior
        Mixture posterior with diagnostics ``{"nmax", "tail_mass",
        "fixed_point_iterations", "n_growth_rounds"}``;
        ``fixed_point_iterations`` counts the evaluations of ``N(ξ)``
        the conditional solves spent (bracket, nodes and polish; 0
        for the closed-form Goel–Okumoto failure-time case). With
        ``config.variance_correction == "sandwich"`` the mixture is
        wrapped in a :class:`~repro.bayes.sandwich.ScaledPosterior`
        whose marginal spreads follow the sandwich covariance.
    """
    _check_alpha0(alpha0)
    config = config or VBConfig()
    with obs.span("vb2.fit", collect=True, data=type(data).__name__) as sp:
        posterior = _fit_vb2(data, prior, alpha0, config, nmax, sp)
    if config.variance_correction == "sandwich":
        return apply_sandwich(posterior, data, alpha0=alpha0)
    return posterior


def _fit_vb2(
    data: FailureTimeData | GroupedData,
    prior: ModelPrior,
    alpha0: float,
    config: VBConfig,
    nmax: int | None,
    sp,
) -> VBPosterior:
    warm = config.warm_start
    state = _Vb2State(data, prior, alpha0, nmax, config, warm=warm)
    _drive_vb2_group([state], alpha0, config)

    log_w = np.concatenate(state.log_w)
    log_norm = float(log_sum_exp(log_w))
    weights = np.exp(log_w - log_norm)
    if prior.is_proper:
        elbo = log_norm + elbo_constant(state.stats, prior, alpha0)
    else:
        elbo = None  # improper priors: bound defined only up to a constant

    iterations = state.evaluations
    diagnostics = {
        "nmax": state.last_n,
        "truncation_clamped": state.clamped,
        "tail_mass": float(weights[-1]),
        "fixed_point_iterations": iterations,
        "n_growth_rounds": state.growth_rounds,
        "alpha0": alpha0,
        "data_kind": type(data).__name__,
        "warm_started": warm is not None,
    }
    if obs.enabled():
        obs.counter_add("vb2.solves", state.lanes_done)
        obs.observe("vb2.nmax", state.last_n)
        obs.observe("vb2.tail_mass", float(weights[-1]))
        obs.observe("vb2.growth_rounds", state.growth_rounds)
        obs.observe("vb2.fixed_point_iterations", iterations)
        if state.clamped:
            obs.counter_add("vb2.truncation_clamped")
        if warm is not None:
            obs.counter_add("vb2.warm_fits")
            obs.observe("vb2.warm.fixed_point_iterations", iterations)
        # Tail mass stands in for a residual: the conditional solves
        # converge per lane, and what remains is truncation error.
        obs.fit_health(
            "VB2",
            iterations=iterations,
            residual=diagnostics["tail_mass"],
            elbo=elbo,
            nmax=diagnostics["nmax"],
            warm_start=float(warm is not None),
        )
        if sp.collecting:
            diagnostics["telemetry"] = sp.telemetry()
    return state.posterior(weights, elbo, diagnostics)
