"""Tests of the benchmark's own machinery: calibration, the percentile
rule, metric names, seeded inputs and the correctness checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (BENCH, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.cache.store import PosteriorCache  # noqa: E402
from repro.core.fleet import fit_vb2_fleet  # noqa: E402
from repro.core.vb2 import fit_vb2  # noqa: E402
from repro.data.failure_data import FailureTimeData  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- calibration --------------------------------------------------------


def test_factor_is_one_at_reference_speed():
    for n in (1, 7, 16):
        samples = [calib.REFERENCE_KERNEL_S] * n
        assert calib.factor(samples) == pytest.approx(1.0, rel=1e-15)


def test_factor_trims_one_preempted_sample():
    samples = [calib.REFERENCE_KERNEL_S] * 15 + [20 * calib.REFERENCE_KERNEL_S]
    assert calib.factor(samples) == pytest.approx(1.0, rel=1e-15)
    fast, slow = calib.REFERENCE_KERNEL_S, 1.5 * calib.REFERENCE_KERNEL_S
    assert calib.factor([fast] * 8 + [slow] * 8) == pytest.approx(1 / 1.25)


@pytest.mark.parametrize("speed", [1.0, 2.0, 0.5])
def test_calibration_divides_by_kernel_slowdown(speed):
    """At reference speed calibrated seconds are raw seconds; a kernel
    ``speed`` times slower scales them by ``1 / speed``. The op is long
    enough for in-call samples, so every piece is covered."""
    sampler = calib.Sampler(kernel=lambda: speed * calib.REFERENCE_KERNEL_S)
    with sampler:
        sampler.sample()
        _, start, end = sampler.time(lambda: time.sleep(0.18))
    assert len(sampler.times) >= 4  # before, during (>= 2) and after
    raw = sampler.raw(start, end)
    assert sampler.calibrated(start, end) == pytest.approx(raw / speed, rel=1e-12)


def test_timer_handler_time_is_not_charged_to_the_op():
    def slow_kernel():
        time.sleep(0.01)
        return calib.REFERENCE_KERNEL_S

    sampler = calib.Sampler(kernel=slow_kernel)
    with sampler:
        sampler.sample()
        _, start, end = sampler.time(lambda: time.sleep(0.2))
    assert sampler.handler_s > 0.02
    assert sampler.raw(start, end) == pytest.approx(
        end - start - sampler.handler_s, abs=2e-3
    )


# -- percentile rule ----------------------------------------------------


def test_percentile_needs_ten_ops_beyond_it():
    assert calib.percentile(list(range(99)), 90) is None
    assert calib.percentile(list(range(100)), 90) == np.percentile(range(100), 90)
    assert calib.percentile(list(range(19)), 50) is None
    assert calib.percentile(list(range(20)), 50) == 9.5


def test_kind_latency_falls_back_to_the_median():
    assert calib.kind_latency([3.0, 1.0, 2.0], 90) == 2.0
    values = list(range(200))
    assert calib.kind_latency(values, 90) == np.percentile(values, 90)


def test_each_percentile_reads_one_op_kind():
    updates = [float(v) for v in range(1, 201)]
    main = {
        "untraced": {
            "kinds_ms": {"update": updates, "replay": [500.0, 700.0]},
            "wall_s": [5.0, 6.0, 7.0],
            "ops": 202,
            "failed": 1,
        },
        "peak_rss_mb": 100.0,
    }
    values = run.end_to_end("tracker_stream", [1.0, 3.0, 2.0], main)
    assert values["latency_p50_ms"] == np.percentile(updates, 50)
    assert values["latency_p90_ms"] == np.percentile(updates, 90)
    assert values["replay_p50_ms"] == values["replay_p90_ms"] == 600.0
    assert values["setup_s"] == 2.0 and values["wall_s"] == 6.0
    assert values["ok_frac"] == 1.0 - 1 / 202


# -- metric names -------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    metrics = dict(run.END_TO_END)
    metrics.update({name: unit for name, (unit, _) in run.per_layer_units().items()})
    for name, unit in metrics.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.OP_KINDS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == run.per_layer_units()
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_traced_layer_is_reported():
    assert set(run.LAYER_NAMES) == set(layers.LAYERS)


# -- seeded inputs ------------------------------------------------------


def test_fleet_inputs_are_deterministic_in_the_seed():
    a, b, c = (workloads.FleetIntervals(seed, ROOT) for seed in (3, 3, 4))
    assert a.portfolio == b.portfolio
    assert a.identity_sample == b.identity_sample
    assert a.portfolio != c.portfolio


def test_tracker_inputs_are_deterministic_in_the_seed():
    a, b, c = (workloads.TrackerStream(seed, ROOT) for seed in (3, 3, 4))
    assert a.campaigns == b.campaigns
    assert a.campaigns != c.campaigns
    assert all(
        d.total_count == workloads.FAILURES for d in a.campaigns + c.campaigns
    )


# -- correctness checks fail on perturbed inputs -------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads((ROOT / "tests" / "fixtures" / "golden_tables.json").read_text())


def _tables(golden):
    return (copy.deepcopy(golden[key]) for key in ("moments", "intervals", "reliability"))


def test_golden_tables_match_themselves(golden):
    assert workloads.table_mismatches(*_tables(golden), golden) == []


@pytest.mark.parametrize(
    "section, path, scale",
    [
        ("moments", ("DT-Info", "VB2", "E[omega]"), 1.02),
        ("intervals", ("DG-Info", "NINT", "beta_upper"), 0.98),
        ("intervals", ("DT-Info", "MCMC", "omega_lower"), 1.5),
        ("reliability", ("DT-Info", "1000.0", "VB2", "lower"), 0.97),
    ],
)
def test_perturbed_table_cell_is_a_mismatch(golden, section, path, scale):
    moments, intervals, reliability = _tables(golden)
    tables = {"moments": moments, "intervals": intervals, "reliability": reliability}
    cell = tables[section]
    for key in path[:-1]:
        cell = cell[key]
    cell[path[-1]] *= scale
    assert workloads.table_mismatches(moments, intervals, reliability, golden) == [
        "/".join((section, *path))
    ]


def test_figure_check_rejects_bad_densities():
    grid = np.ones((4, 4))
    densities = {m: grid.copy() for m in ("NINT", "LAPL", "VB1", "VB2")}
    scatter = np.ones((10, 2))
    assert workloads.figure_ok(densities, scatter)
    bad = dict(densities, VB2=np.full((4, 4), np.nan))
    assert not workloads.figure_ok(bad, scatter)
    assert not workloads.figure_ok(dict(densities, VB1=-grid), scatter)
    assert not workloads.figure_ok({m: densities[m] for m in ("NINT", "VB2")}, scatter)
    assert not workloads.figure_ok(densities, np.ones((10, 3)))


@pytest.fixture(scope="module")
def small_fleet():
    portfolio = workloads.portfolio(np.random.default_rng(5), 3, 2)
    return portfolio, fit_vb2_fleet(portfolio, workloads.FLEET_PRIOR, 1.0)


def test_project_report_check_rejects_bad_intervals(small_fleet):
    portfolio, fleet = small_fleet
    omega, beta, reliability = workloads.project_report(fleet, 0, portfolio[0])
    assert workloads.project_report_ok(omega, beta, reliability)
    assert not workloads.project_report_ok(omega[::-1], beta, reliability)
    assert not workloads.project_report_ok(omega, (beta[0], np.nan), reliability)
    outside = dataclasses.replace(reliability, point=reliability.upper + 1e-3)
    assert not workloads.project_report_ok(omega, beta, outside)
    above_one = dataclasses.replace(reliability, upper=1.5)
    assert not workloads.project_report_ok(omega, beta, above_one)


def test_fleet_identity_check_rejects_a_different_fit(small_fleet):
    portfolio, fleet = small_fleet
    data = portfolio[0]
    assert workloads.bit_identical(
        fleet.posterior(0), fit_vb2(data, workloads.FLEET_PRIOR, 1.0)
    )
    times = data.times.copy()
    times[0] *= 1.0 + 1e-9
    nudged = FailureTimeData(times=times, horizon=data.horizon)
    assert not workloads.bit_identical(
        fleet.posterior(0), fit_vb2(nudged, workloads.FLEET_PRIOR, 1.0)
    )


def test_tracker_checks_reject_wrong_records_and_counters(tmp_path):
    data = workloads.campaign(np.random.default_rng(2), 4, 6)
    writer = PosteriorCache(tmp_path)
    tracker = workloads.TrackerStream._tracker(writer)
    before = workloads.cache_counts(writer)
    update = tracker.observe(data.truncate(1))
    assert workloads.step_ok(before, workloads.cache_counts(writer),
                             workloads.UPDATE_DELTA)

    reader = PosteriorCache(tmp_path)
    tracker = workloads.TrackerStream._tracker(reader)
    before = workloads.cache_counts(reader)
    replay = tracker.observe(data.truncate(1))
    after = workloads.cache_counts(reader)
    assert workloads.replay_ok(replay, update, before, after)
    moved = dataclasses.replace(update, reliability_point=update.reliability_point / 2)
    assert not workloads.replay_ok(replay, moved, before, after)
    assert not workloads.replay_ok(replay, update, before, before)
    assert not workloads.step_ok(before, after, workloads.UPDATE_DELTA)
