"""Lane-parallel Gibbs engine: lock-step vectorized sweeps across lanes.

A *lane* is one independent Gibbs chain — a chain of a multichain fit,
or one replication of an SBC/coverage campaign. All lanes advance
through the sweep together, and every conditional draw of the sweep is
made for all lanes at once: one vectorized Poisson inversion for the
residual counts, one gamma inversion for the ``ω`` conditionals, one
for ``β``, one ragged truncated/censored-gamma map for the latent
blocks. It is the MCMC counterpart of the VB2 fit path's
``(dataset, N)`` lanes (:func:`repro.core.gamma_updates.solve_lanes`),
where every conditional solve of a growth round is one sweep.

Randomness is organised per lane: lane ``i`` owns generator ``i`` and
consumes its raw uniform stream in a fixed order
(:class:`repro.stats.uniforms.UniformLaneStream`), and the
uniform→variate layer (:func:`~repro.stats.poisson.poisson_from_uniform`,
:func:`~repro.stats.gamma_dist.gamma_from_uniform`,
:func:`~repro.stats.truncated.truncated_gamma_from_uniform`,
:func:`~repro.stats.truncated.censored_gamma_from_uniform`) maps it to
variates with pure elementwise transforms. Consequence: each lane's
samples are **bit-identical** to running the scalar sampler with
``ChainSettings(variate_layer="inverse")`` and the same generator —
the contract the tier-1 identity tests and the ``BENCH_mcmc``
agreement gate pin down.

Lanes may carry *different datasets* (campaign replications) or the
same dataset with different seeds (multichain fits); per-lane data
enters the sweep only through per-lane scalar vectors and the ragged
latent-draw geometry, so heterogeneous lanes cost the same as
homogeneous ones.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from repro.stats import scipy_special as sc

from repro import obs
from repro.bayes.mcmc.chains import (
    ChainSettings,
    MCMCResult,
    record_sampler_telemetry,
)
from repro.bayes.priors import ModelPrior
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.stats.gamma_dist import gamma_from_uniform
from repro.stats.poisson import poisson_from_uniform
from repro.stats.truncated import (
    censored_gamma_from_uniform,
    truncated_gamma_from_uniform,
)
from repro.stats.uniforms import UniformLaneStream, segment_sums

__all__ = ["gibbs_failure_time_lanes", "gibbs_grouped_lanes"]


def _as_lane_list(datasets, lanes: int, kind) -> list:
    """Broadcast a shared dataset or validate a per-lane sequence."""
    if isinstance(datasets, kind):
        return [datasets] * lanes
    datasets = list(datasets)
    if len(datasets) != lanes:
        raise ValueError(
            f"got {len(datasets)} datasets for {lanes} lanes (one generator "
            "per lane defines the lane count)"
        )
    return datasets


def _check_engine_inputs(
    settings: ChainSettings, rngs: Sequence[np.random.Generator]
) -> None:
    if settings.variate_layer != "inverse":
        raise ValueError(
            "the lane engine batches the inverse-CDF variate layer; use "
            'ChainSettings(variate_layer="inverse") (the "direct" layer '
            "is the legacy per-chain stream and cannot be batched)"
        )
    if len(rngs) < 1:
        raise ValueError("need at least one lane generator")


def _keep_index(sweep: int, settings: ChainSettings) -> int:
    """Keep-slot of this sweep, or -1 when the schedule discards it."""
    index = sweep - settings.burn_in
    if index >= 0 and (index + 1) % settings.thin == 0:
        return index // settings.thin
    return -1


def _ragged_segment_sums(
    values: np.ndarray, counts: np.ndarray, lanes: int
) -> np.ndarray:
    """Per-lane sums of a lane-major ragged block (0 for empty lanes)."""
    out = np.zeros(lanes)
    occupied = np.flatnonzero(counts)
    if occupied.size:
        offsets = np.concatenate(
            ([0], np.cumsum(counts[occupied])[:-1])
        )
        out[occupied] = segment_sums(values, offsets)
    return out


def _package(
    sampler_name: str,
    lanes: int,
    samples: np.ndarray,
    residual_trace: np.ndarray,
    variate_counts: np.ndarray,
    settings: ChainSettings,
    alpha0: float,
    collapsed: bool,
    telemetry,
) -> list[MCMCResult]:
    """Per-lane :class:`MCMCResult` objects, same contract as the
    scalar samplers (plus an ``engine`` provenance marker)."""
    results = []
    for lane in range(lanes):
        extra = {
            "sampler": sampler_name,
            "alpha0": alpha0,
            "collapsed_tail": collapsed,
            "residual_trace": residual_trace[lane],
            "engine": "lanes",
        }
        if telemetry is not None:
            extra["telemetry"] = telemetry
        results.append(
            MCMCResult(
                samples=samples[lane],
                settings=settings,
                variate_count=int(variate_counts[lane]),
                extra=extra,
            )
        )
    return results


def gibbs_failure_time_lanes(
    datasets: FailureTimeData | Sequence[FailureTimeData],
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    settings: ChainSettings,
    rngs: Sequence[np.random.Generator],
) -> list[MCMCResult]:
    """Kuo–Yang Gibbs sweeps for all lanes in lock-step.

    Parameters
    ----------
    datasets:
        One shared dataset (multichain fit) or one per lane (campaign
        replications).
    prior:
        Independent gamma priors, shared by every lane.
    alpha0:
        Lifetime shape; ``1`` uses the collapsed three-variate sweep.
    settings:
        Schedule; must select the ``"inverse"`` variate layer.
    rngs:
        One generator per lane — the lane count. Lane ``i``'s samples
        are bit-identical to ``gibbs_failure_time(datasets[i], ...,
        rng=<same generator state>)`` under the inverse layer.
    """
    _check_engine_inputs(settings, rngs)
    lanes = len(rngs)
    data_list = _as_lane_list(datasets, lanes, FailureTimeData)

    me = np.array([float(d.count) for d in data_list])
    horizon = np.array([d.horizon for d in data_list])
    sum_times = np.array([d.total_time for d in data_list])
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    floor_me = np.maximum(me, 1.0)
    omega = floor_me * 1.2 + 1.0
    beta = alpha0 * floor_me / (sum_times + floor_me * horizon)

    shape_omega_base = m_omega + me
    shape_beta = np.full(lanes, m_beta + me * alpha0) if collapsed else None
    log_gamma_shape_beta = sc.gammaln(shape_beta) if collapsed else None

    stream = UniformLaneStream(rngs)
    samples = np.empty((lanes, settings.n_samples, 2))
    residual_trace = np.empty((lanes, settings.n_samples), dtype=np.int64)
    variate_counts = np.zeros(lanes, dtype=np.int64)
    lane_index = np.arange(lanes)

    with obs.span(
        "mcmc.batch",
        collect=True,
        sampler="gibbs-kuo-yang",
        lanes=lanes,
        sweeps=settings.total_iterations,
    ) as sp:
        for sweep in range(settings.total_iterations):
            if collapsed:
                u = stream.take_block(3)
                tail_prob = np.exp(-beta * horizon)
            else:
                u = stream.take_block(2)
                tail_prob = sc.gammaincc(alpha0, beta * horizon)
            residual = poisson_from_uniform(u[:, 0], omega * tail_prob)
            variate_counts += 3

            shape_omega = shape_omega_base + residual
            omega = gamma_from_uniform(shape_omega, u[:, 1]) / (phi_omega + 1.0)

            if collapsed:
                rate_beta = phi_beta + sum_times + residual * horizon
                beta = (
                    gamma_from_uniform(
                        shape_beta, u[:, 2],
                        log_gamma_shape=log_gamma_shape_beta,
                    )
                    / rate_beta
                )
            else:
                tail_u = stream.take_ragged(residual)
                slots = np.repeat(lane_index, residual)
                tail_draws = censored_gamma_from_uniform(
                    horizon[slots], alpha0, beta[slots], tail_u
                )
                tail_sum = _ragged_segment_sums(tail_draws, residual, lanes)
                variate_counts += residual
                u_beta = stream.take_block(1)
                rate_beta = phi_beta + sum_times + tail_sum
                shape_b = m_beta + (me + residual) * alpha0
                beta = gamma_from_uniform(shape_b, u_beta[:, 0]) / rate_beta

            slot = _keep_index(sweep, settings)
            if slot >= 0:
                samples[:, slot, 0] = omega
                samples[:, slot, 1] = beta
                residual_trace[:, slot] = residual
        for lane in range(lanes):
            record_sampler_telemetry(
                "gibbs-kuo-yang", samples[lane], int(variate_counts[lane])
            )
        if getattr(sp, "attrs", None) is not None:
            sp.attrs["variates"] = int(variate_counts.sum())
        telemetry = sp.telemetry() if sp.collecting else None

    return _package(
        "gibbs-kuo-yang", lanes, samples, residual_trace, variate_counts,
        settings, alpha0, collapsed, telemetry,
    )


def gibbs_grouped_lanes(
    datasets: GroupedData | Sequence[GroupedData],
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    settings: ChainSettings,
    rngs: Sequence[np.random.Generator],
) -> list[MCMCResult]:
    """Data-augmentation Gibbs sweeps for all lanes in lock-step.

    Every lane's latent failure times — ``m_i`` truncated-gamma draws
    per lane per sweep — come from one ragged uniform take mapped
    through one vectorized inverse-CDF call; per-lane latent sums use
    the canonical :func:`~repro.stats.uniforms.segment_sums` reduction
    so they match the scalar reference bit for bit.
    """
    _check_engine_inputs(settings, rngs)
    lanes = len(rngs)
    data_list = _as_lane_list(datasets, lanes, GroupedData)

    total = np.array([float(d.total_count) for d in data_list])
    horizon = np.array([d.horizon for d in data_list])
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0

    # Ragged latent geometry, lane-major: each lane's occupied
    # intervals expanded to one slot per latent draw.
    latent_counts = np.zeros(lanes, dtype=np.intp)
    lo_parts, hi_parts = [], []
    for lane, data in enumerate(data_list):
        occupied = [item for item in data.intervals() if item[2] > 0]
        counts = np.array([c for _, _, c in occupied], dtype=np.intp)
        latent_counts[lane] = int(counts.sum())
        if occupied:
            lo_parts.append(
                np.repeat(np.array([lo for lo, _, _ in occupied]), counts)
            )
            hi_parts.append(
                np.repeat(np.array([hi for _, hi, _ in occupied]), counts)
            )
    draw_lo = np.concatenate(lo_parts) if lo_parts else np.empty(0)
    draw_hi = np.concatenate(hi_parts) if hi_parts else np.empty(0)
    lane_index = np.arange(lanes)
    draw_lane = np.repeat(lane_index, latent_counts)

    floor_total = np.maximum(total, 1.0)
    omega = floor_total * 1.2 + 1.0
    beta = np.full(lanes, 2.0 * alpha0) / horizon

    shape_omega_base = m_omega + total
    shape_beta = np.full(lanes, m_beta + total * alpha0) if collapsed else None
    log_gamma_shape_beta = sc.gammaln(shape_beta) if collapsed else None

    stream = UniformLaneStream(rngs)
    samples = np.empty((lanes, settings.n_samples, 2))
    residual_trace = np.empty((lanes, settings.n_samples), dtype=np.int64)
    variate_counts = np.zeros(lanes, dtype=np.int64)

    with obs.span(
        "mcmc.batch",
        collect=True,
        sampler="gibbs-data-augmentation",
        lanes=lanes,
        sweeps=settings.total_iterations,
    ) as sp:
        for sweep in range(settings.total_iterations):
            latent_u = stream.take_ragged(latent_counts)
            if latent_u.size:
                latent_draws = truncated_gamma_from_uniform(
                    draw_lo, draw_hi, alpha0, beta[draw_lane], latent_u
                )
                latent_sum = _ragged_segment_sums(
                    latent_draws, latent_counts, lanes
                )
                variate_counts += latent_counts
            else:
                latent_sum = np.zeros(lanes)

            u = stream.take_block(2)
            if collapsed:
                tail_prob = np.exp(-beta * horizon)
            else:
                tail_prob = sc.gammaincc(alpha0, beta * horizon)
            residual = poisson_from_uniform(u[:, 0], omega * tail_prob)
            variate_counts += 3

            shape_omega = shape_omega_base + residual
            omega = gamma_from_uniform(shape_omega, u[:, 1]) / (phi_omega + 1.0)

            if collapsed:
                u_beta = stream.take_block(1)
                rate_beta = phi_beta + latent_sum + residual * horizon
                beta = (
                    gamma_from_uniform(
                        shape_beta, u_beta[:, 0],
                        log_gamma_shape=log_gamma_shape_beta,
                    )
                    / rate_beta
                )
            else:
                tail_u = stream.take_ragged(residual)
                slots = np.repeat(lane_index, residual)
                tail_draws = censored_gamma_from_uniform(
                    horizon[slots], alpha0, beta[slots], tail_u
                )
                tail_sum = _ragged_segment_sums(tail_draws, residual, lanes)
                variate_counts += residual
                u_beta = stream.take_block(1)
                rate_beta = phi_beta + latent_sum + tail_sum
                shape_b = m_beta + (total + residual) * alpha0
                beta = gamma_from_uniform(shape_b, u_beta[:, 0]) / rate_beta

            slot = _keep_index(sweep, settings)
            if slot >= 0:
                samples[:, slot, 0] = omega
                samples[:, slot, 1] = beta
                residual_trace[:, slot] = residual
        for lane in range(lanes):
            record_sampler_telemetry(
                "gibbs-data-augmentation",
                samples[lane],
                int(variate_counts[lane]),
            )
        if getattr(sp, "attrs", None) is not None:
            sp.attrs["variates"] = int(variate_counts.sum())
        telemetry = sp.telemetry() if sp.collecting else None

    return _package(
        "gibbs-data-augmentation", lanes, samples, residual_trace,
        variate_counts, settings, alpha0, collapsed, telemetry,
    )
