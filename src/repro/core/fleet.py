"""Dataset-lane fleet fitting: one vectorized sweep over a portfolio.

The VB2 solver works on ``(dataset, N)`` lanes: thousands of projects'
failure histories — ragged sizes, mixed kinds, per-project priors —
fit in a handful of array sweeps instead of a Python loop of single
fits.

The contract: every dataset's posterior is **bit-identical** to the
single fit of that dataset. :func:`repro.core.vb2.fit_vb2` and
:func:`repro.core.vb1.fit_vb1` run the very same lane drivers
(:func:`repro.core.vb2._drive_vb2_group`,
:func:`repro.core.vb1._drive_vb1_group`) on one dataset, and the lanes
of a sweep never interact:

* the inverse solver (:func:`repro.core.gamma_updates.solve_lanes`)
  brackets, interpolates and polishes each dataset's ``ξ_N`` from that
  dataset's own inputs only, whichever datasets share the sweep;
* ragged interval sums accumulate through in-order scatter-adds
  (``np.add.at``), left to right within each lane;
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

from functools import partial

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
from repro.core.vb1 import _drive_vb1_group, _vb1_builder
from repro.core.vb2 import _check_alpha0, _drive_vb2_group, _Vb2State
from repro.core.warmstart import WarmStart
from repro.data.failure_data import FailureTimeData
from repro.stats.quadrature import TensorGrid
from repro.stats.special import log_gamma_fn, log_sum_exp_stream

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
        entries stay cold). A warm dataset starts its truncation bound
        at the previous posterior's effective support plus a drift pad,
        so a re-sweep after a few datasets gained data skips the
        growth rounds a cold fit would replay.

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
        for (_, a0), members in groups.items():
            _drive_vb2_group(members, a0, config, on_done=heartbeat.tick)

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
                "fixed_point_iterations": st.evaluations,
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

    Here a lane is a *dataset*: the outer λ/ξ mean-field iteration runs
    for every dataset at once in :func:`repro.core.vb1._drive_vb1_group`,
    the driver :func:`repro.core.vb1.fit_vb1` runs on one dataset, so
    each dataset's posterior is bit-identical to its single fit.
    Datasets partition by ``alpha0`` (kinds may mix — the interval
    scatter-add is empty for failure-time lanes).

    ``warm_start`` optionally carries one
    :class:`~repro.core.warmstart.WarmStart` (or ``None``) per dataset:
    warm lanes seed their outer ``λ`` and inner ``ξ`` from the previous
    fit, cold lanes keep the defaults.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fleet fit needs at least one dataset")
    count = len(datasets)
    priors = _per_dataset(prior, count, "prior")
    alpha0s = [float(a) for a in _per_dataset(alpha0, count, "alpha0")]
    warms = _per_dataset_warm(warm_start, count)
    config = config or VBConfig()
    for i, a0 in enumerate(alpha0s):
        _check_alpha0(a0, f"dataset {i}: ")

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
            lanes, _ = _drive_vb1_group(
                [datasets[i] for i in members], [priors[i] for i in members],
                a0, config, [warms[i] for i in members],
                indices=members, on_done=heartbeat.tick,
            )
            for i, lane in zip(members, lanes):
                _, _, elbos[i], diags[i] = lane
                builders[i] = _vb1_builder(datasets[i], lane, a0, config)
                total_outer += diags[i]["iterations"]
        if obs.enabled():
            obs.counter_add("fleet.vb1.fits", count)
            obs.fit_health(
                "VB1_FLEET", datasets=count, iterations=total_outer
            )
    return FleetResult("VB1", builders, diags, elbos)


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
                log_pdf_fn=partial(log_posterior_matrix, data, prior_i, a0),
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


def _prebuilt(posterior):
    return lambda: posterior
