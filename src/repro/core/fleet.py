"""Dataset-lane fleet fitting: one vectorized sweep over a portfolio.

The batched solvers of PR 4 made the *latent-count* axis a lane axis:
one dataset's conditional posteriors for every ``N`` solve in lock-step.
This module generalises the lane axis to ``(dataset, N)``: thousands of
projects' failure histories — ragged sizes, mixed kinds, per-project
priors — fit in a handful of array sweeps instead of a Python loop of
scalar fits.

The contract: every dataset's posterior is **bit-identical** to the
scalar fit of that dataset. :func:`repro.core.vb2.fit_vb2` runs the very
same truncation-growth driver (:func:`repro.core.vb2._drive_vb2_group`)
on one dataset, and the lanes of a sweep never interact:

* the fixed point (:func:`repro.stats.rootfind.solve_fixed_point_batch`)
  evaluates each lane's update map on that lane's own inputs, replaying
  its scalar iteration regardless of which other lanes share the solve;
* ragged interval sums accumulate through in-order scatter-adds
  (``np.add.at``), matching the scalar per-``N`` loops' left-to-right
  order;
* each dataset's truncation growth, weight normalisation
  (``logsumexp`` over its own contiguous weights), and ELBO constant
  are decided by the same arithmetic per dataset.

Mixed shapes are handled by grouping: ``alpha0`` must stay a Python
scalar inside a solve (the truncated-mean fast paths branch on it), so
datasets are partitioned by ``(data kind, alpha0)`` and each partition
sweeps together. Datasets retire from the sweep individually — a
project whose tail mass converges early freezes while its peers keep
growing ``nmax``, mirroring per-lane freezing one level up.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bayes.grid_posterior import GridPosterior
from repro.bayes.nint import (
    integration_limits_from_posterior,
    log_posterior_matrix,
    times_log_posterior_terms,
)
from repro.bayes.sandwich import apply_sandwich
from repro.core.config import VBConfig
from repro.core.posterior import VBPosterior
from repro.core.vb1 import _vb1_elbo
from repro.core.vb2 import _drive_vb2_group, _Vb2State
from repro.core.warmstart import WarmStart
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import ConvergenceError
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.quadrature import TensorGrid
from repro.stats.special import (
    digamma,
    log_gamma_fn,
    log_gamma_sf,
    log_sum_exp_stream,
)
from repro.stats.truncated import censored_gamma_mean, truncated_gamma_mean

__all__ = [
    "FleetResult",
    "fit_vb2_fleet",
    "fit_vb1_fleet",
    "fit_nint_fleet",
]


class FleetResult:
    """Per-dataset posteriors of one fleet fit, built lazily.

    Posterior *objects* (mixture components, marginal caches) are only
    materialised by :meth:`posterior` — the fleet fit itself stores
    raw arrays, which is what keeps a thousand-project sweep from
    paying a thousand posteriors' construction cost when the caller
    only wants a few of them (or only the diagnostics).

    Attributes
    ----------
    method_name:
        "VB2", "VB1" or "NINT".
    diagnostics:
        One diagnostics dict per dataset, equal to what the scalar fit
        would report (minus the optional ``telemetry`` entry, which is
        per-fit by construction).
    elbos:
        One ELBO per dataset (``None`` under improper priors, and for
        NINT which has no bound).
    """

    def __init__(self, method_name, builders, diagnostics, elbos):
        self.method_name = method_name
        self._builders = list(builders)
        self.diagnostics = list(diagnostics)
        self.elbos = list(elbos)
        self._cache: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._builders)

    def posterior(self, i: int):
        """Materialise (and cache) dataset ``i``'s posterior object."""
        if i not in self._cache:
            self._cache[i] = self._builders[i]()
        return self._cache[i]

    def posteriors(self) -> list:
        """All posteriors, materialising any not yet built."""
        return [self.posterior(i) for i in range(len(self))]

    def means(self, param: str) -> np.ndarray:
        """Marginal posterior mean of ``param`` per dataset."""
        return np.array(
            [self.posterior(i).mean(param) for i in range(len(self))]
        )

    def quantile_batch(self, param: str, q) -> np.ndarray:
        """``(datasets, len(q))`` marginal quantiles — each dataset's
        levels solve in one vectorized bisection."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        return np.vstack(
            [
                np.asarray(self.posterior(i).quantile_batch(param, q))
                for i in range(len(self))
            ]
        )

    def credible_intervals(self, param: str, level: float = 0.95) -> np.ndarray:
        """``(datasets, 2)`` equal-tailed credible intervals."""
        return np.array(
            [
                self.posterior(i).credible_interval(param, level)
                for i in range(len(self))
            ]
        )

    def expected_total_faults(self) -> np.ndarray:
        """``E[N]`` per dataset (VB posteriors only)."""
        values = []
        for i in range(len(self)):
            posterior = self.posterior(i)
            fn = getattr(posterior, "expected_total_faults", None)
            if fn is None:
                raise AttributeError(
                    f"{type(posterior).__name__} has no expected_total_faults"
                )
            values.append(fn())
        return np.array(values)


def _per_dataset(value, count: int, name: str) -> list:
    """Broadcast a scalar setting, or validate a per-dataset sequence."""
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise ValueError(
                f"{name} must have one entry per dataset "
                f"({count}), got {len(value)}"
            )
        return list(value)
    return [value] * count


def _per_dataset_warm(warm_start, count: int) -> list:
    """Validate the per-dataset warm-start sequence (``None`` = all cold)."""
    warms = _per_dataset(warm_start, count, "warm_start")
    for i, w in enumerate(warms):
        if w is not None and not isinstance(w, WarmStart):
            raise TypeError(
                f"warm_start[{i}] must be a WarmStart or None, "
                f"got {type(w).__name__}"
            )
    return warms


# ----------------------------------------------------------------------
# VB2
# ----------------------------------------------------------------------
def _vb2_builder(state, weights, elbo, diagnostics, config):
    def build():
        posterior = state.posterior(weights, elbo, diagnostics)
        if config.variance_correction == "sandwich":
            return apply_sandwich(posterior, state.data, alpha0=state.alpha0)
        return posterior

    return build


def fit_vb2_fleet(
    datasets,
    prior,
    alpha0=1.0,
    config: VBConfig | None = None,
    *,
    nmax=None,
    warm_start=None,
) -> FleetResult:
    """Fit VB2 posteriors for a whole portfolio in one vectorized sweep.

    Parameters
    ----------
    datasets:
        Sequence of :class:`FailureTimeData` / :class:`GroupedData`
        (kinds may mix; ragged sizes are expected).
    prior, alpha0, nmax:
        Either one value applied fleet-wide, or a sequence with one
        entry per dataset.
    config:
        Shared algorithm tuning (one :class:`VBConfig` for the fleet).
    warm_start:
        Optional per-dataset sequence of
        :class:`~repro.core.warmstart.WarmStart` states (``None``
        entries stay cold). A re-sweep after a few datasets gained data
        passes the previous sweep's states: unchanged lanes converge in
        one residual evaluation each, so only the dirty datasets pay
        for iteration.

    Returns
    -------
    FleetResult
        Lazy per-dataset posteriors. Every dataset's posterior —
        weights, components, ELBO, diagnostics — is bit-identical to
        ``fit_vb2(datasets[i], prior_i, alpha0_i, config_i,
        nmax=nmax_i)`` where ``config_i`` carries that dataset's
        warm-start state.

    Raises exactly where the scalar loop would: a diverging or
    ceiling-hitting dataset raises (with its index in the message)
    rather than silently degrading the rest of the fleet.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fleet fit needs at least one dataset")
    count = len(datasets)
    priors = _per_dataset(prior, count, "prior")
    alpha0s = [float(a) for a in _per_dataset(alpha0, count, "alpha0")]
    nmaxes = _per_dataset(nmax, count, "nmax")
    warms = _per_dataset_warm(warm_start, count)
    config = config or VBConfig()

    with obs.span("fleet.vb2.fit", datasets=count):
        states = [
            _Vb2State(
                datasets[i], priors[i], alpha0s[i], nmaxes[i], config,
                warm=warms[i], index=i,
            )
            for i in range(count)
        ]
        heartbeat = obs.Heartbeat("fleet.vb2.datasets", count)
        groups: dict = {}
        for st in states:
            groups.setdefault((st.kind, st.alpha0), []).append(st)
        for (kind, a0), members in groups.items():
            _drive_vb2_group(members, kind, a0, config, on_done=heartbeat.tick)

        builders, diags, elbos = [], [], []
        total_lanes = 0
        total_iterations = 0
        total_growth = 0
        max_tail = 0.0
        # Normalise every dataset's mixture in one segmented sweep: the
        # per-segment reductions (and the broadcast exp) produce the
        # same floats as the scalar fit's per-dataset normalisation.
        sizes = np.array([st.lanes_done for st in states], dtype=np.intp)
        stops = np.cumsum(sizes)
        starts = stops - sizes
        flat = np.concatenate([p for st in states for p in st.log_w])
        log_norms = log_sum_exp_stream(flat, starts)
        flat_weights = np.exp(flat - np.repeat(log_norms, sizes))
        iter_sums = np.add.reduceat(
            np.concatenate(
                [p for st in states for p in st.iteration_parts()]
            ),
            starts,
        )
        # The prior normalisers and log Γ(α0) in the ELBO constant are
        # shared fleet-wide in the common case; cache them per distinct
        # object/value with the same expressions `elbo_constant` uses.
        prior_consts: dict[int, float] = {}
        lgf_consts: dict[float, float] = {}
        for k, st in enumerate(states):
            log_norm = float(log_norms[k])
            weights = flat_weights[starts[k]:stops[k]]
            if st.prior.is_proper:
                const = prior_consts.get(id(st.prior))
                if const is None:
                    const = (
                        -st.prior.omega.log_normaliser()
                        - st.prior.beta.log_normaliser()
                    )
                    prior_consts[id(st.prior)] = const
                if st.kind == "times":
                    lgf = lgf_consts.get(st.alpha0)
                    if lgf is None:
                        lgf = float(log_gamma_fn(st.alpha0))
                        lgf_consts[st.alpha0] = lgf
                    const = const + (st.alpha0 - 1.0) * st.stats.sum_log_times
                    const -= st.stats.me * lgf
                else:
                    const = const - st.stats.sum_log_count_factorials
                elbo = log_norm + const
            else:
                elbo = None
            diagnostics = {
                "nmax": st.last_n,
                "truncation_clamped": st.clamped,
                "tail_mass": float(weights[-1]),
                "fixed_point_iterations": int(iter_sums[k]),
                "n_growth_rounds": st.growth_rounds,
                "alpha0": st.alpha0,
                "data_kind": type(st.data).__name__,
                "warm_started": st.warm is not None,
            }
            builders.append(_vb2_builder(st, weights, elbo, diagnostics, config))
            diags.append(diagnostics)
            elbos.append(elbo)
            total_lanes += st.lanes_done
            total_iterations += diagnostics["fixed_point_iterations"]
            total_growth += st.growth_rounds
            max_tail = max(max_tail, diagnostics["tail_mass"])
        if obs.enabled():
            obs.counter_add("fleet.vb2.fits", count)
            obs.counter_add("vb2.solves", total_lanes)
            obs.fit_health(
                "VB2_FLEET",
                datasets=count,
                lanes=total_lanes,
                iterations=total_iterations,
                growth_rounds=total_growth,
                residual=max_tail,
            )
    return FleetResult("VB2", builders, diags, elbos)


# ----------------------------------------------------------------------
# VB1
# ----------------------------------------------------------------------
def fit_vb1_fleet(
    datasets,
    prior,
    alpha0=1.0,
    config: VBConfig | None = None,
    *,
    warm_start=None,
) -> FleetResult:
    """Fit VB1 posteriors for a whole portfolio in lock-step.

    Here a lane is a *dataset*: the outer λ/ξ mean-field iteration of
    :func:`repro.core.vb1.fit_vb1` runs for every dataset at once, with
    per-lane freezing on outer convergence and a shared Aitken phase
    (valid because every still-active lane appends to its history at
    exactly the same iterations). Bit-identical per dataset to the
    scalar fit. Datasets partition by ``alpha0`` (kinds may mix — the
    interval scatter-add is empty for failure-time lanes).

    ``warm_start`` optionally carries one
    :class:`~repro.core.warmstart.WarmStart` (or ``None``) per dataset:
    warm lanes seed their outer ``λ`` and inner ``ξ`` from the previous
    fit, cold lanes keep the defaults, and the lock-step iteration
    stays bit-identical per lane to the correspondingly warm scalar
    fit.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fleet fit needs at least one dataset")
    count = len(datasets)
    priors = _per_dataset(prior, count, "prior")
    alpha0s = [float(a) for a in _per_dataset(alpha0, count, "alpha0")]
    warms = _per_dataset_warm(warm_start, count)
    config = config or VBConfig()
    for a0 in alpha0s:
        if a0 <= 0.0:
            raise ValueError(f"alpha0 must be positive, got {a0}")
    for i, w in enumerate(warms):
        if w is not None and float(w.alpha0) != alpha0s[i]:
            raise ValueError(
                f"dataset {i}: warm_start was extracted at "
                f"alpha0={w.alpha0:g} but this fit uses "
                f"alpha0={alpha0s[i]:g}; warm seeds only transfer within "
                f"one gamma shape"
            )

    with obs.span("fleet.vb1.fit", datasets=count):
        heartbeat = obs.Heartbeat("fleet.vb1.datasets", count)
        groups: dict = {}
        for i in range(count):
            groups.setdefault(alpha0s[i], []).append(i)
        builders = [None] * count
        diags = [None] * count
        elbos = [None] * count
        total_outer = 0
        for a0, members in groups.items():
            results = _fit_vb1_group(
                members, [datasets[i] for i in members],
                [priors[i] for i in members], a0, config, heartbeat,
                [warms[i] for i in members],
            )
            for i, (builder, diagnostics, elbo) in zip(members, results):
                builders[i] = builder
                diags[i] = diagnostics
                elbos[i] = elbo
                total_outer += diagnostics["iterations"]
        if obs.enabled():
            obs.counter_add("fleet.vb1.fits", count)
            obs.fit_health(
                "VB1_FLEET", datasets=count, iterations=total_outer
            )
    return FleetResult("VB1", builders, diags, elbos)


def _fit_vb1_group(indices, group_data, group_priors, alpha0, config,
                   heartbeat, group_warms=None):
    """Lock-step VB1 outer iteration for one ``alpha0`` partition."""
    lanes = len(group_data)
    if group_warms is None:
        group_warms = [None] * lanes
    observed = np.empty(lanes)
    cut = np.empty(lanes)
    sum_observed = np.empty(lanes)
    lane_parts, lo_parts, hi_parts, count_parts = [], [], [], []
    for pos, data in enumerate(group_data):
        if isinstance(data, FailureTimeData):
            observed[pos] = data.count
            cut[pos] = data.horizon
            sum_observed[pos] = data.total_time
        elif isinstance(data, GroupedData):
            observed[pos] = data.total_count
            cut[pos] = data.horizon
            sum_observed[pos] = 0.0
            occupied = [item for item in data.intervals() if item[2] > 0]
            if occupied:
                lane_parts.append(np.full(len(occupied), pos, dtype=np.intp))
                lo_parts.append(np.array([lo for lo, _, _ in occupied]))
                hi_parts.append(np.array([hi for _, hi, _ in occupied]))
                count_parts.append(
                    np.array([float(c) for _, _, c in occupied])
                )
        else:
            raise TypeError(f"unsupported data type: {type(data).__name__}")
        if observed[pos] == 0 and not group_priors[pos].is_proper:
            raise ConvergenceError(
                f"dataset {indices[pos]}: VB1 needs either observed "
                f"failures or proper priors"
            )
    pair_lane = (
        np.concatenate(lane_parts) if lane_parts
        else np.empty(0, dtype=np.intp)
    )
    pair_lo = np.concatenate(lo_parts) if lo_parts else np.empty(0)
    pair_hi = np.concatenate(hi_parts) if hi_parts else np.empty(0)
    pair_count = np.concatenate(count_parts) if count_parts else np.empty(0)

    m_omega = np.array([p.omega.shape for p in group_priors])
    phi_omega = np.array([p.omega.rate for p in group_priors])
    m_beta = np.array([p.beta.shape for p in group_priors])
    phi_beta = np.array([p.beta.rate for p in group_priors])

    def zeta_of(rate: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # Strictly in-order scatter-add onto the per-lane base: matches
        # the scalar loop's left-to-right interval sum bit-for-bit.
        total = sum_observed.copy()
        if pair_lane.size:
            terms = pair_count * truncated_gamma_mean(
                pair_lo, pair_hi, alpha0, rate[pair_lane]
            )
            np.add.at(total, pair_lane, terms)
        positive = lam > 0.0
        if np.any(positive):
            total[positive] = total[positive] + lam[positive] * (
                censored_gamma_mean(
                    cut[positive], alpha0, rate[positive]
                )
            )
        return total

    lam = np.maximum(0.1 * observed, 1.0)
    xi = np.empty(lanes)
    # Per-lane warm seeds, mirroring the scalar fit's warm branch: a
    # valid cached lam replaces the cold default, a valid cached
    # xi_mean pre-seeds the first inner solve.
    xi_seeded = np.zeros(lanes, dtype=bool)
    xi_seed_values = np.empty(lanes)
    for pos, w in enumerate(group_warms):
        if w is None:
            continue
        if w.lam > 0.0 and np.isfinite(w.lam):
            lam[pos] = w.lam
        if w.xi_mean > 0.0 and np.isfinite(w.xi_mean):
            xi_seeded[pos] = True
            xi_seed_values[pos] = w.xi_mean
    frozen = np.zeros(lanes, dtype=bool)
    iterations_out = np.zeros(lanes, dtype=np.int64)
    seed_rate = 1.0 / np.maximum(cut, 1.0)
    hist = np.empty((3, lanes))
    phase = 0
    aitken_accepted = 0
    inner_total = 0
    rtol = config.fixed_point_rtol
    for iteration in range(1, config.fixed_point_max_iter + 1):
        active = ~frozen
        expected_n = observed + lam
        a_omega = m_omega + expected_n
        b_omega = phi_omega + 1.0
        a_beta = m_beta + expected_n * alpha0
        if iteration == 1:
            xi_inner = a_beta / (phi_beta + zeta_of(seed_rate, lam))
            if np.any(xi_seeded):
                xi_inner = np.where(xi_seeded, xi_seed_values, xi_inner)
        else:
            xi_inner = xi.copy()
        inner_frozen = frozen.copy()
        for _ in range(config.fixed_point_max_iter):
            if inner_frozen.all():
                break
            zeta = zeta_of(xi_inner, lam)
            xi_new = a_beta / (phi_beta + zeta)
            live = ~inner_frozen
            inner_total += int(live.sum())
            done = live & (np.abs(xi_new - xi_inner) <= rtol * xi_new)
            xi_inner = np.where(live, xi_new, xi_inner)
            inner_frozen |= done
        xi = np.where(active, xi_inner, xi)
        zeta = zeta_of(xi, lam)
        b_beta = phi_beta + zeta
        log_u = digamma(a_omega) - np.log(b_omega)
        log_v = digamma(a_beta) - np.log(b_beta)
        log_lam = (
            log_u
            + alpha0 * (log_v - np.log(xi))
            + log_gamma_sf(cut, alpha0, xi)
        )
        lam_new = np.exp(log_lam)
        conv = active & (
            np.abs(lam_new - lam) <= rtol * np.maximum(lam_new, 1e-300)
        )
        lam = np.where(active, lam_new, lam)
        iterations_out[conv] = iteration
        frozen |= conv
        for _ in range(int(conv.sum())):
            heartbeat.tick()
        if frozen.all():
            break
        # Shared Aitken phase: every still-active lane has appended at
        # exactly the same iterations since the last clear, so one
        # counter serves the whole partition (lanes that froze mid-
        # cycle never read their stale history rows again).
        if config.use_aitken:
            hist[phase] = lam
            phase += 1
            if phase == 3:
                l0, l1, l2 = hist[0], hist[1], hist[2]
                step0 = l1 - l0
                step1 = l2 - l1
                contracting = (step0 != 0.0) & (np.abs(step1) < np.abs(step0))
                denom = step1 - step0
                ok = ~frozen & contracting & (denom != 0.0)
                if np.any(ok):
                    with np.errstate(
                        invalid="ignore", divide="ignore", over="ignore"
                    ):
                        accelerated = l0 - step0**2 / denom
                    accept = ok & (accelerated > 0.0)
                    accept &= np.isfinite(accelerated)
                    lam = np.where(accept, accelerated, lam)
                    aitken_accepted += int(accept.sum())
                phase = 0
    if not frozen.all():
        lane = int(np.argmax(~frozen))
        if obs.enabled():
            obs.counter_add("vb1.failures")
            obs.event(
                "vb1.divergence",
                dataset=indices[lane],
                outer_iterations=config.fixed_point_max_iter,
                lambda_star=float(lam[lane]),
            )
        raise ConvergenceError(
            f"dataset {indices[lane]}: VB1 did not converge within "
            f"{config.fixed_point_max_iter} outer iterations "
            f"(last lambda* = {lam[lane]:.6g})",
            iterations=config.fixed_point_max_iter,
        )
    if obs.enabled() and aitken_accepted:
        obs.counter_add("vb1.aitken_accepted", aitken_accepted)

    expected_n = observed + lam
    a_omega = m_omega + expected_n
    b_omega = phi_omega + 1.0
    a_beta = m_beta + expected_n * alpha0
    zeta = zeta_of(xi, lam)
    b_beta = phi_beta + zeta

    results = []
    for pos, data in enumerate(group_data):
        prior = group_priors[pos]
        q_omega = GammaDistribution(float(a_omega[pos]), float(b_omega[pos]))
        q_beta = GammaDistribution(float(a_beta[pos]), float(b_beta[pos]))
        elbo = None
        if prior.is_proper:
            elbo = _vb1_elbo(
                data, prior, alpha0, q_omega, q_beta,
                float(xi[pos]), float(lam[pos]),
                int(observed[pos]), float(cut[pos]),
            )
        diagnostics = {
            "expected_n": float(expected_n[pos]),
            "lambda_star": float(lam[pos]),
            "iterations": int(iterations_out[pos]),
            "alpha0": alpha0,
            "data_kind": type(data).__name__,
            "warm_started": group_warms[pos] is not None,
        }
        results.append((
            _vb1_builder(
                data, q_omega, q_beta, float(expected_n[pos]),
                elbo, diagnostics, alpha0, config,
            ),
            diagnostics,
            elbo,
        ))
    return results


def _vb1_builder(data, q_omega, q_beta, expected_n, elbo, diagnostics,
                 alpha0, config):
    def build():
        posterior = VBPosterior(
            n_values=[expected_n],
            weights=[1.0],
            omega_components=[q_omega],
            beta_components=[q_beta],
            method_name="VB1",
            elbo=elbo,
            diagnostics=diagnostics,
        )
        if config.variance_correction == "sandwich":
            return apply_sandwich(posterior, data, alpha0=alpha0)
        return posterior

    return build


# ----------------------------------------------------------------------
# NINT
# ----------------------------------------------------------------------
def fit_nint_fleet(
    datasets,
    prior,
    alpha0=1.0,
    *,
    limits=None,
    reference: FleetResult | None = None,
    n_omega: int = 321,
    n_beta: int = 321,
) -> FleetResult:
    """Reference NINT posteriors for a whole portfolio.

    The failure-time β-axis data terms evaluate as one broadcast per
    ``alpha0`` partition (:func:`repro.bayes.nint.
    times_log_posterior_terms`); grids, normalisation, and grouped-data
    matrices stay per-dataset (they dominate asymptotically anyway).
    Bit-identical per dataset to :func:`repro.bayes.nint.fit_nint`.

    Parameters
    ----------
    limits:
        One limits dict fleet-wide, or a sequence of per-dataset
        dicts. If omitted, ``reference`` must be given and the paper's
        quantile heuristic is read off each reference posterior.
    reference:
        A :class:`FleetResult` (typically from :func:`fit_vb2_fleet`)
        or sequence of posteriors supplying the limit heuristic.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fleet fit needs at least one dataset")
    count = len(datasets)
    priors = _per_dataset(prior, count, "prior")
    alpha0s = [float(a) for a in _per_dataset(alpha0, count, "alpha0")]

    if limits is None:
        if reference is None:
            raise ValueError(
                "either explicit limits or a reference fleet is required"
            )
        refs = (
            [reference.posterior(i) for i in range(len(reference))]
            if isinstance(reference, FleetResult)
            else list(reference)
        )
        if len(refs) != count:
            raise ValueError(
                f"reference must cover every dataset ({count}), "
                f"got {len(refs)}"
            )
        limits_list = [integration_limits_from_posterior(p) for p in refs]
    elif isinstance(limits, dict):
        limits_list = [limits] * count
    else:
        limits_list = _per_dataset(limits, count, "limits")

    with obs.span("fleet.nint.fit", datasets=count):
        heartbeat = obs.Heartbeat("fleet.nint.datasets", count)
        grids = []
        for i, lims in enumerate(limits_list):
            omega_range = lims["omega"]
            beta_range = lims["beta"]
            if not 0.0 < omega_range[0] < omega_range[1]:
                raise ValueError(
                    f"dataset {i}: invalid omega limits {omega_range}"
                )
            if not 0.0 < beta_range[0] < beta_range[1]:
                raise ValueError(
                    f"dataset {i}: invalid beta limits {beta_range}"
                )
            grids.append(
                TensorGrid.simpson(omega_range, beta_range, n_omega, n_beta)
            )

        # Batched beta-part per alpha0 partition of failure-time data.
        beta_parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        times_groups: dict = {}
        for i, data in enumerate(datasets):
            if isinstance(data, FailureTimeData):
                times_groups.setdefault(alpha0s[i], []).append(i)
        for a0, members in times_groups.items():
            beta_part, tail_g = times_log_posterior_terms(
                np.array([float(datasets[i].count) for i in members]),
                np.array([datasets[i].sum_log_times for i in members]),
                np.array([datasets[i].total_time for i in members]),
                np.array([datasets[i].horizon for i in members]),
                a0,
                np.stack([grids[i].y for i in members]),
            )
            for k, i in enumerate(members):
                beta_parts[i] = (beta_part[k], tail_g[k])

        builders, diags = [], []
        total_nodes = 0
        for i, data in enumerate(datasets):
            grid = grids[i]
            prior_i = priors[i]
            a0 = alpha0s[i]
            if isinstance(data, FailureTimeData):
                beta_part, tail_g = beta_parts[i]
                log_prior_omega = np.asarray(prior_i.omega.log_pdf(grid.x))
                log_prior_beta = np.asarray(prior_i.beta.log_pdf(grid.y))
                omega_part = data.count * np.log(grid.x) + log_prior_omega
                log_post = (
                    omega_part[:, None]
                    + (beta_part + log_prior_beta)[None, :]
                    - np.outer(grid.x, tail_g)
                )
            else:
                log_post = log_posterior_matrix(
                    data, prior_i, a0, grid.x, grid.y
                )
            posterior = GridPosterior(
                grid, log_post,
                log_pdf_fn=_nint_log_pdf_fn(data, prior_i, a0),
            )
            builders.append(_prebuilt(posterior))
            diags.append({
                "nodes_omega": grid.x.size,
                "nodes_beta": grid.y.size,
                "alpha0": a0,
                "data_kind": type(data).__name__,
            })
            total_nodes += grid.x.size * grid.y.size
            heartbeat.tick()
        if obs.enabled():
            obs.counter_add("fleet.nint.fits", count)
            obs.counter_add("nint.grid_evaluations", total_nodes)
            obs.fit_health("NINT_FLEET", datasets=count, nodes=total_nodes)
    return FleetResult("NINT", builders, diags, [None] * count)


def _nint_log_pdf_fn(data, prior, alpha0):
    def log_pdf_fn(omega_nodes, beta_nodes):
        return log_posterior_matrix(data, prior, alpha0, omega_nodes, beta_nodes)

    return log_pdf_fn


def _prebuilt(posterior):
    return lambda: posterior
