"""Benchmark: scalar per-chain MCMC loop vs the lane-parallel engine.

The lane engine (:mod:`repro.bayes.mcmc.lane_engine`) runs all chains
of a multichain fit — and all replications of an SBC or coverage
campaign — as lock-step lanes of one vectorized Gibbs sweep, each lane
consuming its own seeded uniform stream through the inverse-CDF layer
in :mod:`repro.stats`. This benchmark times the paper's MCMC workloads
both ways and emits ``benchmarks/results/BENCH_mcmc.json``:

* **multichain_times** — a 16-chain Kuo–Yang fit of the System 17
  failure-time data (the multichain diagnostics workload; ≥5x
  acceptance target);
* **multichain_grouped** — the same chains through the grouped
  data-augmentation sampler with its per-sweep latent block;
* **sbc_campaign** — the MCMC fits of a 64-replication SBC campaign,
  one simulated dataset per lane (the campaign workload; ≥5x target).

The *scalar reference* is the production scalar sampler on the same
inverse variate layer (``ChainSettings(variate_layer="inverse")``) run
once per chain/replication — the loop the engine replaces, kept as a
first-class path precisely so the equality ``lanes == loop`` is
checkable forever. The direct-draw sampler (the Table 6/7 stream)
consumes a different stream, so no identity with the lanes can be
asserted; its loop over the same chains is timed alongside as
ungated context (``legacy_direct_s``).

The ``timings`` of each mode gate the direct sampler itself, the
paper report's production path: one direct chain on the DT-Info and
one on the DG-Info scenario at ``alpha0 = 1``, on the mode's schedule,
as calibrated best-of times (``benchmarks/conftest.py::
calibrated_best_of``: one unit is one run of perfbench's calibration
kernel).

The agreement block records, over every lane of every workload, the
max absolute difference in kept samples, residual traces and variate
counts (acceptance: exactly 0.0), plus the worst relative divergence
of the batched convergence diagnostics against their per-trace scalar
forms (acceptance: ≤ 1e-9; the batched FFT is ~1-ulp, not bitwise).

As a script:

    PYTHONPATH=src python benchmarks/bench_mcmc_path.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_mcmc_path.py --quick    # CI mode
    PYTHONPATH=src python benchmarks/bench_mcmc_path.py --quick \\
        --out /tmp/BENCH_mcmc.json \\
        --baseline benchmarks/results/BENCH_mcmc.json

With ``--baseline`` the run fails (exit 1) if any workload's speedup
falls below 80% of the committed baseline's, or any calibrated timing
rises above the baseline's divided by 0.8 (``repro bench check``'s
rule).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_mcmc_path.py` does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import RESULTS_DIR, calibrated_best_of
from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.diagnostics import (
    effective_sample_size,
    gelman_rubin,
    geweke_z,
)
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
from repro.bayes.mcmc.lane_engine import (
    gibbs_failure_time_lanes,
    gibbs_grouped_lanes,
)
from repro.bayes.priors import ModelPrior
from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.simulation import simulate_failure_times
from repro.experiments.config import paper_scenarios
from repro.models.goel_okumoto import GoelOkumoto
from repro.obs import compare_bench
from repro.validation.seeding import replication_seed

MCMC_SPEEDUP_TARGET = 5.0
N_CHAINS = 16
SBC_LANES = 64
BASE_SEED = 20070628

_MODE_SETTINGS = {
    # full: a campaign-scale schedule (the numbers the acceptance gate
    # quotes); quick: a short schedule for CI wall-clock. Speedups are
    # schedule-independent once the sweep loop dominates, which it does
    # from a few hundred sweeps on. timed_repeat: best-of count of the
    # calibrated direct-chain timings. Spread over a few seconds, it
    # outlasts the spells in which a busy neighbour slows these
    # interpreter-bound chains more than the calibration kernel: on a
    # 2-vCPU host, six best-of-30 quick timings of a DG chain spread by
    # 1.38x, six best-of-200 by 1.06x.
    "full": {
        "repeat": 2,
        "timed_repeat": 20,
        "schedule": dict(n_samples=2_000, burn_in=1_000, thin=2),
    },
    "quick": {
        "repeat": 2,
        "timed_repeat": 200,
        "schedule": dict(n_samples=300, burn_in=150, thin=1),
    },
}

#: Scenarios whose direct alpha0 = 1 chain is a gated timing.
TIMED_SCENARIOS = ("DT-Info", "DG-Info")


def _prior() -> ModelPrior:
    return ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)


def _campaign_prior() -> ModelPrior:
    return ModelPrior.informative(45.0, 20.0, 0.12, 0.06)


def _sbc_datasets():
    """The failure-time datasets of a 64-replication campaign, simulated
    exactly as the SBC/coverage runners do: campaign ``i`` from
    ``replication_seed(seed, i)``, fits from ``(seed, i, 1)``."""
    true_model = GoelOkumoto(omega=50.0, beta=0.1)
    datasets = []
    for index in range(SBC_LANES):
        rng = np.random.default_rng(replication_seed(BASE_SEED, index))
        data = simulate_failure_times(true_model, 25.0, rng)
        if data.count >= 3:
            datasets.append((index, data))
    return datasets


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _lane_max_abs_diff(lane, scalar) -> float:
    diffs = [
        float(np.max(np.abs(lane.samples - scalar.samples))),
        float(abs(lane.variate_count - scalar.variate_count)),
        float(
            np.max(
                np.abs(
                    np.asarray(lane.extra["residual_trace"], dtype=float)
                    - np.asarray(scalar.extra["residual_trace"], dtype=float)
                )
            )
        ),
    ]
    return max(diffs)


def _diagnostics_divergence(chains: list) -> float:
    """Worst relative gap between the batched diagnostics on the stacked
    traces and the per-trace scalar forms."""
    worst = 0.0
    stacked = np.stack([chain.samples for chain in chains])
    for column in range(stacked.shape[2]):
        traces = np.ascontiguousarray(stacked[:, :, column])
        ess = effective_sample_size(traces)
        gz = geweke_z(traces)
        for row in range(traces.shape[0]):
            s_ess = effective_sample_size(traces[row])
            s_gz = geweke_z(traces[row])
            worst = max(worst, abs(ess[row] - s_ess) / max(abs(s_ess), 1.0))
            worst = max(worst, abs(gz[row] - s_gz) / max(abs(s_gz), 1.0))
        rows = [traces[row] for row in range(traces.shape[0])]
        rhat_list = gelman_rubin(rows)
        worst = max(worst, abs(gelman_rubin(traces) - rhat_list))
    return worst


def _measure_workload(
    lanes_fn, scalar_fn, direct_fn, n_lanes: int, repeat: int
) -> tuple[dict, list]:
    chains = lanes_fn()
    lanes_s = _best_of(lanes_fn, repeat)
    scalar_s = _best_of(scalar_fn, max(1, repeat - 1))
    direct_s = _best_of(direct_fn, max(1, repeat - 1))
    return {
        "lanes": n_lanes,
        "scalar_ref_s": scalar_s,
        "lanes_s": lanes_s,
        "legacy_direct_s": direct_s,
        "speedup": scalar_s / lanes_s,
        "speedup_vs_direct": direct_s / lanes_s,
    }, chains


def _measure_mode(mode: str) -> tuple[dict, dict]:
    settings = _MODE_SETTINGS[mode]
    repeat = settings["repeat"]
    inverse = ChainSettings(**settings["schedule"], variate_layer="inverse")
    direct = ChainSettings(**settings["schedule"])
    times = system17_failure_times()
    grouped = system17_grouped()
    prior = _prior()
    workloads: dict[str, dict] = {}
    agreement: dict[str, float] = {}

    # 16-chain multichain fits, both samplers.
    for label, data, lanes_sampler, sampler in (
        ("system17/multichain_times", times,
         gibbs_failure_time_lanes, gibbs_failure_time),
        ("system17/multichain_grouped", grouped,
         gibbs_grouped_lanes, gibbs_grouped),
    ):
        seeds = [BASE_SEED + i for i in range(N_CHAINS)]
        workloads[label], chains = _measure_workload(
            lambda: lanes_sampler(
                data, prior, settings=inverse,
                rngs=[np.random.default_rng(s) for s in seeds],
            ),
            lambda: [
                sampler(data, prior, settings=inverse.with_seed(s))
                for s in seeds
            ],
            lambda: [
                sampler(data, prior, settings=direct.with_seed(s))
                for s in seeds
            ],
            N_CHAINS,
            repeat,
        )
        scalars = [
            sampler(data, prior, settings=inverse.with_seed(s)) for s in seeds
        ]
        agreement[label] = max(
            _lane_max_abs_diff(lane, scalar)
            for lane, scalar in zip(chains, scalars)
        )
        agreement[f"{label}/diagnostics_rel"] = _diagnostics_divergence(chains)

    # 64-replication SBC campaign: one simulated dataset per lane.
    campaign = _sbc_datasets()
    indices = [index for index, _ in campaign]
    datasets = [data for _, data in campaign]
    campaign_prior = _campaign_prior()

    def _fit_rngs():
        return [
            np.random.default_rng(replication_seed(BASE_SEED, index, 1))
            for index in indices
        ]

    workloads["campaign/sbc_mcmc"], chains = _measure_workload(
        lambda: gibbs_failure_time_lanes(
            datasets, campaign_prior, settings=inverse, rngs=_fit_rngs()
        ),
        lambda: [
            gibbs_failure_time(
                data, campaign_prior, settings=inverse, rng=rng
            )
            for data, rng in zip(datasets, _fit_rngs())
        ],
        lambda: [
            gibbs_failure_time(data, campaign_prior, settings=direct, rng=rng)
            for data, rng in zip(datasets, _fit_rngs())
        ],
        len(datasets),
        repeat,
    )
    scalars = [
        gibbs_failure_time(data, campaign_prior, settings=inverse, rng=rng)
        for data, rng in zip(datasets, _fit_rngs())
    ]
    agreement["campaign/sbc_mcmc"] = max(
        _lane_max_abs_diff(lane, scalar)
        for lane, scalar in zip(chains, scalars)
    )
    return {"repeat": repeat, "schedule": settings["schedule"],
            "workloads": workloads, "timings": _direct_timings(mode)}, agreement


def _direct_timings(mode: str) -> dict[str, dict]:
    """Calibrated best-of times of the production path: one direct
    ``alpha0 = 1`` chain per timed paper scenario, on the mode's
    schedule."""
    settings = _MODE_SETTINGS[mode]
    direct = ChainSettings(**settings["schedule"], seed=BASE_SEED)
    timings = {}
    for name in TIMED_SCENARIOS:
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        sampler = gibbs_grouped if scenario.is_grouped else gibbs_failure_time
        timings[f"direct/{name}"] = calibrated_best_of(
            lambda: sampler(data, prior, 1.0, settings=direct),
            settings["timed_repeat"],
        )
    return timings


def measure(modes: tuple[str, ...]) -> dict:
    result = {
        "schema": 1,
        "generated_by": "benchmarks/bench_mcmc_path.py",
        "acceptance": {"mcmc_speedup_target": MCMC_SPEEDUP_TARGET},
        "modes": {},
        "agreement": {},
    }
    diag_worst = 0.0
    lane_worst = 0.0
    for mode in modes:
        payload, agreement = _measure_mode(mode)
        result["modes"][mode] = payload
        for key, value in agreement.items():
            if key.endswith("diagnostics_rel"):
                diag_worst = max(diag_worst, value)
            else:
                lane_worst = max(lane_worst, value)
    result["agreement"] = {
        "lane_vs_scalar_max_abs_diff": lane_worst,
        "diagnostics_batched_vs_scalar_max_rel": diag_worst,
    }
    result["acceptance"]["mcmc_speedup_measured_min"] = min(
        w["speedup"]
        for mode in result["modes"].values()
        for w in mode["workloads"].values()
    )
    return result


# -- reporting ---------------------------------------------------------


def render(result: dict) -> str:
    lines = ["mcmc path: scalar per-chain loop vs lock-step lanes "
             "(best-of timings)"]
    for mode, payload in result["modes"].items():
        schedule = payload["schedule"]
        lines.append(
            f"  [{mode}] repeat {payload['repeat']}, schedule "
            f"{schedule['n_samples']}/{schedule['burn_in']}/{schedule['thin']}"
        )
        for key, t in payload["timings"].items():
            lines.append(
                f"    {key:<28} {t['best_s'] * 1e3:9.2f} ms"
                f"   kernel {t['kernel_s'] * 1e3:6.3f} ms"
                f"   {t['calibrated']:7.1f} kernel units"
            )
        for key, w in payload["workloads"].items():
            lines.append(
                f"    {key:<28} x{w['lanes']:<3}"
                f" scalar {w['scalar_ref_s'] * 1e3:9.1f} ms"
                f"  lanes {w['lanes_s'] * 1e3:8.1f} ms"
                f"  {w['speedup']:5.1f}x"
                f"  (direct loop {w['legacy_direct_s'] * 1e3:9.1f} ms)"
            )
    agreement = result["agreement"]
    lines.append(
        "  agreement: lanes vs scalar max |diff| "
        f"{agreement['lane_vs_scalar_max_abs_diff']:.1e}"
        " (acceptance: exactly 0), batched diagnostics max rel "
        f"{agreement['diagnostics_batched_vs_scalar_max_rel']:.1e}"
    )
    lines.append(
        "  acceptance: min speedup "
        f"{result['acceptance']['mcmc_speedup_measured_min']:.1f}x"
        f" (target >= {MCMC_SPEEDUP_TARGET:.0f}x)"
    )
    return "\n".join(lines)


# -- pytest entry point ------------------------------------------------


def test_lane_mcmc_path_quick(results_dir):
    result = measure(modes=("quick",))
    print("\n" + render(result))
    assert result["agreement"]["lane_vs_scalar_max_abs_diff"] == 0.0
    assert (
        result["agreement"]["diagnostics_batched_vs_scalar_max_rel"] <= 1e-9
    )
    # Conservative floor for noisy CI hosts; the committed full-mode
    # baseline documents the >= 5x acceptance numbers.
    assert result["acceptance"]["mcmc_speedup_measured_min"] >= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure only the quick (short-schedule) mode, for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "BENCH_mcmc.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_mcmc.json to gate regressions against",
    )
    args = parser.parse_args(argv)
    modes = ("quick",) if args.quick else ("full", "quick")
    result = measure(modes=modes)
    text = render(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(text)
    print(f"[written to {args.out}]")
    status = 0
    if result["agreement"]["lane_vs_scalar_max_abs_diff"] != 0.0:
        print(
            "FAIL: lane engine and scalar sampler disagree (max |diff| "
            f"{result['agreement']['lane_vs_scalar_max_abs_diff']:.3e}, "
            "expected 0)",
            file=sys.stderr,
        )
        status = 1
    if result["agreement"]["diagnostics_batched_vs_scalar_max_rel"] > 1e-9:
        print(
            "FAIL: batched diagnostics diverge from scalar (max rel "
            f"{result['agreement']['diagnostics_batched_vs_scalar_max_rel']:.3e})",
            file=sys.stderr,
        )
        status = 1
    if "full" in result["modes"]:
        measured = result["acceptance"]["mcmc_speedup_measured_min"]
        if measured < MCMC_SPEEDUP_TARGET:
            print(
                f"FAIL: mcmc speedup {measured:.1f}x < "
                f"{MCMC_SPEEDUP_TARGET:.0f}x target",
                file=sys.stderr,
            )
            status = 1
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures = compare_bench(result, baseline)
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("within the regression gate vs baseline")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
