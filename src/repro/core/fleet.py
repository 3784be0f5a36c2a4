"""Dataset-lane fleet fitting: one vectorized sweep over a portfolio.

The VB2 solver works on ``(dataset, N)`` lanes: thousands of projects'
failure histories — ragged sizes, mixed kinds, per-project priors —
fit in a handful of array sweeps instead of a Python loop of single
fits.

The contract: every dataset's posterior is **bit-identical** to the
single fit of that dataset. :func:`repro.core.vb2.fit_vb2` and
:func:`repro.core.vb1.fit_vb1` run the very same lane drivers
(:func:`repro.core.vb2._drive_vb2_group`,
:func:`repro.core.vb1._drive_vb1_group`) on one dataset, VB2's step 5
(:func:`repro.core.vb2._finish`) included, and the lanes of a sweep
never interact:

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
from repro.core.config import VBConfig
from repro.core.vb1 import _drive_vb1_group, _vb1_posterior
from repro.core.vb2 import _check_alpha0, _drive_vb2_group, _finish, _Vb2State
from repro.core.warmstart import WarmStart

__all__ = [
    "FleetResult",
    "fit_vb2_fleet",
    "fit_vb1_fleet",
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
        "VB2" or "VB1".
    diagnostics:
        One diagnostics dict per dataset, equal to what the scalar fit
        would report (minus the optional ``telemetry`` entry, which is
        per-fit by construction).
    elbos:
        One ELBO per dataset (``None`` under improper priors).
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
        """``E[N]`` per dataset."""
        return np.array(
            [p.expected_total_faults() for p in self.posteriors()]
        )


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

        finished = _finish(states)
        builders = [
            partial(st.posterior, *done) for st, done in zip(states, finished)
        ]
        diags = [diagnostics for _, _, diagnostics in finished]
        elbos = [elbo for _, elbo, _ in finished]
        if obs.enabled():
            total_lanes = sum(st.lanes_done for st in states)
            obs.counter_add("fleet.vb2.fits", count)
            obs.counter_add("vb2.solves", total_lanes)
            obs.observe("fleet.vb2.iterations",
                        sum(st.evaluations for st in states))
            obs.observe("fleet.vb2.growth_rounds",
                        sum(st.growth_rounds for st in states))
            obs.observe("fleet.vb2.tail_mass",
                        max(d["tail_mass"] for d in diags))
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
                builders[i] = partial(_vb1_posterior, lane)
                total_outer += diags[i]["iterations"]
        if obs.enabled():
            obs.counter_add("fleet.vb1.fits", count)
            obs.observe("fleet.vb1.iterations", total_outer)
    return FleetResult("VB1", builders, diags, elbos)
