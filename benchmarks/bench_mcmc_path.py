"""Benchmark: the direct Gibbs samplers, alone and in a campaign.

Times the paper's MCMC path — one direct chain per fit, the only
sampler stream the package has — and emits
``benchmarks/results/BENCH_mcmc.json``. The ``timings`` of each mode
are calibrated best-of times (``benchmarks/conftest.py::
calibrated_best_of``: one unit is one run of perfbench's calibration
kernel), each gated by ``repro bench check``:

* **direct/DT-Info**, **direct/DG-Info** — one ``alpha0 = 1`` chain on
  the paper scenario, on the mode's schedule (the paper report's
  production path);
* **campaign/sbc_mcmc** — the MCMC phase of a 64-replication SBC
  campaign: one direct chain per simulated dataset, replication ``i``
  simulated from ``replication_seed(seed, i)`` and fitted on the
  ``(seed, i, 1)`` stream, exactly as the campaign runners do.

The agreement block records the worst relative divergence of the
batched convergence diagnostics against their per-trace scalar forms
over 16 direct chains from :func:`~repro.bayes.mcmc.run_chains` per
sampler (acceptance: ≤ 1e-9; the batched FFT is ~1-ulp, not bitwise).

As a script:

    PYTHONPATH=src python benchmarks/bench_mcmc_path.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_mcmc_path.py --quick    # CI mode
    PYTHONPATH=src python benchmarks/bench_mcmc_path.py --quick \\
        --out /tmp/BENCH_mcmc.json \\
        --baseline benchmarks/results/BENCH_mcmc.json

With ``--baseline`` the run fails (exit 1) if any calibrated timing
rises above the baseline's divided by 0.8 (``repro bench check``'s
rule).
"""

from __future__ import annotations

import argparse
import json
import sys
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
from repro.bayes.mcmc.multichain import run_chains
from repro.bayes.priors import ModelPrior
from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.simulation import simulate_failure_times
from repro.experiments.config import paper_scenarios
from repro.models.goel_okumoto import GoelOkumoto
from repro.obs import compare_bench
from repro.validation.seeding import replication_seed

N_CHAINS = 16
SBC_REPLICATIONS = 64
BASE_SEED = 20070628

_MODE_SETTINGS = {
    # full: a campaign-scale schedule; quick: a short schedule for CI
    # wall-clock. The repeat counts are best-of counts of the
    # calibrated timings. Spread over a few seconds, they outlast the
    # spells in which a busy neighbour slows these interpreter-bound
    # chains more than the calibration kernel: on a 2-vCPU host, six
    # best-of-30 quick timings of a DG chain spread by 1.38x, six
    # best-of-200 by 1.06x.
    "full": {
        "chain_repeat": 20,
        "campaign_repeat": 5,
        "schedule": dict(n_samples=2_000, burn_in=1_000, thin=2),
    },
    "quick": {
        "chain_repeat": 200,
        "campaign_repeat": 30,
        "schedule": dict(n_samples=300, burn_in=150, thin=1),
    },
}

#: Scenarios whose direct alpha0 = 1 chain is a gated timing.
TIMED_SCENARIOS = ("DT-Info", "DG-Info")


def _prior() -> ModelPrior:
    return ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)


def _campaign_prior() -> ModelPrior:
    return ModelPrior.informative(45.0, 20.0, 0.12, 0.06)


def _sbc_campaign() -> list:
    """``(index, dataset)`` of the campaign's fitted replications,
    simulated exactly as the SBC/coverage runners do: campaign ``i``
    from ``replication_seed(seed, i)``, skipped below 3 failures."""
    true_model = GoelOkumoto(omega=50.0, beta=0.1)
    campaign = []
    for index in range(SBC_REPLICATIONS):
        rng = np.random.default_rng(replication_seed(BASE_SEED, index))
        data = simulate_failure_times(true_model, 25.0, rng)
        if data.count >= 3:
            campaign.append((index, data))
    return campaign


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


def _measure_mode(mode: str) -> tuple[dict, float]:
    settings = _MODE_SETTINGS[mode]
    schedule = ChainSettings(**settings["schedule"], seed=BASE_SEED)
    timings = {}
    for name in TIMED_SCENARIOS:
        scenario = paper_scenarios()[name]
        data, prior = scenario.load_data(), scenario.prior()
        sampler = gibbs_grouped if scenario.is_grouped else gibbs_failure_time
        timings[f"direct/{name}"] = calibrated_best_of(
            lambda: sampler(data, prior, 1.0, settings=schedule),
            settings["chain_repeat"],
        )

    campaign = _sbc_campaign()
    campaign_prior = _campaign_prior()

    def fit_campaign():
        for index, data in campaign:
            gibbs_failure_time(
                data,
                campaign_prior,
                settings=schedule,
                rng=np.random.default_rng(
                    replication_seed(BASE_SEED, index, 1)
                ),
            )

    timings["campaign/sbc_mcmc"] = calibrated_best_of(
        fit_campaign, settings["campaign_repeat"]
    )

    diagnostics = max(
        _diagnostics_divergence(
            run_chains(
                sampler, data, _prior(), n_chains=N_CHAINS,
                settings=schedule, base_seed=BASE_SEED,
            ).chains
        )
        for sampler, data in (
            (gibbs_failure_time, system17_failure_times()),
            (gibbs_grouped, system17_grouped()),
        )
    )
    payload = {
        "schedule": settings["schedule"],
        "chain_repeat": settings["chain_repeat"],
        "campaign_repeat": settings["campaign_repeat"],
        "campaign_datasets": len(campaign),
        "timings": timings,
    }
    return payload, diagnostics


def measure(modes: tuple[str, ...]) -> dict:
    result = {
        "schema": 1,
        "generated_by": "benchmarks/bench_mcmc_path.py",
        "modes": {},
    }
    worst = 0.0
    for mode in modes:
        result["modes"][mode], diagnostics = _measure_mode(mode)
        worst = max(worst, diagnostics)
    result["agreement"] = {"diagnostics_batched_vs_scalar_max_rel": worst}
    return result


# -- reporting ---------------------------------------------------------


def render(result: dict) -> str:
    lines = ["mcmc path: direct Gibbs chains (calibrated best-of timings)"]
    for mode, payload in result["modes"].items():
        schedule = payload["schedule"]
        lines.append(
            f"  [{mode}] schedule {schedule['n_samples']}/"
            f"{schedule['burn_in']}/{schedule['thin']}, campaign of "
            f"{payload['campaign_datasets']} datasets"
        )
        for key, t in payload["timings"].items():
            lines.append(
                f"    {key:<28} {t['best_s'] * 1e3:9.2f} ms"
                f"   kernel {t['kernel_s'] * 1e3:6.3f} ms"
                f"   {t['calibrated']:7.1f} kernel units"
            )
    lines.append(
        "  agreement: batched diagnostics max rel "
        f"{result['agreement']['diagnostics_batched_vs_scalar_max_rel']:.1e}"
        " (acceptance: <= 1e-9)"
    )
    return "\n".join(lines)


# -- pytest entry point ------------------------------------------------


def test_mcmc_path_quick(results_dir):
    result = measure(modes=("quick",))
    print("\n" + render(result))
    assert (
        result["agreement"]["diagnostics_batched_vs_scalar_max_rel"] <= 1e-9
    )


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
    if result["agreement"]["diagnostics_batched_vs_scalar_max_rel"] > 1e-9:
        print(
            "FAIL: batched diagnostics diverge from scalar (max rel "
            f"{result['agreement']['diagnostics_batched_vs_scalar_max_rel']:.3e})",
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
