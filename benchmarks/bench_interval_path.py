"""Benchmark: the interval-estimation path, timed against the calibration kernel.

Every VB interval is a quantile of a gamma mixture, solved for all
levels at once by the gamma-cell engine (``MixtureDistribution.ppf``;
``docs/PERFORMANCE.md`` §1). This benchmark times the paper's interval
workloads on the DT-Info and DG-Info VB2 posteriors and writes
``benchmarks/results/BENCH_interval.json``. Each workload is a
calibrated timing (``benchmarks/conftest.py::calibrated_best_of``: one
unit is one run of perfbench's calibration kernel), gated by
``repro bench check``:

* **central99** — ``credible_interval`` of ω and β at 99% (the
  interval columns of Tables 2/3);
* **hpd99_omega** — ``hpd_interval`` of ω at 99% (coarse grid of 41
  quick / 201 full candidates plus golden-section refinement);
* **reliability99** — the 99% reliability interval of Tables 4/5, the
  dominant serving call.

The one check, ``max_abs_diff_scalar`` (≤ 1e-9), compares the batched
quantiles with one-level ``ppf`` calls over a level sweep; lanes are
independent, so it reads exactly 0.

As a script:

    PYTHONPATH=src python benchmarks/bench_interval_path.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_interval_path.py --quick \\
        --out /tmp/BENCH_interval.json                                 # CI mode
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_interval_path.py` does
# not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import bench_main, calibrated_best_of, quick_failures
from repro.core.hpd import hpd_interval
from repro.core.reliability import estimate_reliability
from repro.core.vb2 import fit_vb2
from repro.experiments.config import paper_scenarios

LEVEL = 0.99
SCENARIOS = ("DT-Info", "DG-Info")
AGREEMENT_TOL = 1e-9

#: Level sweep for the batched/scalar agreement check: bulk plus the
#: extreme tails that stress the bracket construction.
AGREEMENT_LEVELS = np.array(
    [1e-6, 1e-4, 0.005, 0.025, 0.25, 0.5, 0.75, 0.975, 0.995, 1 - 1e-4, 1 - 1e-6]
)

#: Best-of counts of the calibrated timings. Spread over a few seconds,
#: they outlast a spell of a busy neighbour (on a 2-vCPU host, eight
#: best-of-100 quick reliability timings spread by up to 1.34x, eight
#: best-of-300 by up to 1.12x).
REPEATS = {"central99": 300, "hpd99_omega": 30, "reliability99": 300}

HPD_GRID_SIZE = {"full": 201, "quick": 41}


def _fit_scenarios() -> dict[str, tuple]:
    out = {}
    for name in SCENARIOS:
        scenario = paper_scenarios()[name]
        data = scenario.load_data()
        posterior = fit_vb2(
            data, scenario.prior(), alpha0=scenario.alpha0,
            config=scenario.vb_config,
        )
        out[name] = (scenario, data, posterior)
    return out


def _max_abs_diff_scalar(posteriors) -> float:
    """Max |batched - one-level| quantile gap over the level sweep."""
    worst = 0.0
    for _, _, posterior in posteriors.values():
        for param in ("omega", "beta"):
            marginal = posterior.marginal(param)
            batch = marginal.ppf(AGREEMENT_LEVELS)
            scalars = np.array(
                [marginal.ppf(float(q)) for q in AGREEMENT_LEVELS]
            )
            worst = max(worst, float(np.abs(batch - scalars).max()))
    return worst


def _workloads(mode: str, scenario, data, posterior) -> dict:
    grid = HPD_GRID_SIZE[mode]
    u = scenario.reliability_windows[0]

    def reliability():
        # The table cache and the β blocks (with the node layouts they
        # keep) are reset per run, so each repeat pays the blocks, the
        # window's node counts, the grid, the table build and the
        # interval inversion.
        posterior._reliability_cache.clear()
        posterior._beta_blocks = None
        return estimate_reliability(
            posterior, data.horizon, u, alpha0=scenario.alpha0, level=LEVEL
        )

    return {
        "central99": lambda: (
            posterior.credible_interval("omega", LEVEL),
            posterior.credible_interval("beta", LEVEL),
        ),
        "hpd99_omega": lambda: hpd_interval(
            posterior, "omega", LEVEL, grid_size=grid
        ),
        "reliability99": reliability,
    }


def measure(modes: tuple[str, ...]) -> dict:
    posteriors = _fit_scenarios()
    timings: dict[str, float] = {}
    info: dict = {"hpd_grid_size": {}, "modes": {}}
    for mode in modes:
        info["hpd_grid_size"][mode] = HPD_GRID_SIZE[mode]
        runs = info["modes"][mode] = {}
        for name, fitted in posteriors.items():
            for kind, fn in _workloads(mode, *fitted).items():
                key = f"{name}/{kind}"
                runs[key] = calibrated_best_of(fn, REPEATS[kind])
                timings[f"{mode}/{key}"] = runs[key]["calibrated"]
    checks = {
        "max_abs_diff_scalar": {
            "value": _max_abs_diff_scalar(posteriors), "max": AGREEMENT_TOL,
        },
    }
    return {"timings": timings, "checks": checks, "info": info}


def render(ledger: dict) -> str:
    lines = ["interval path: calibrated best-of timings"]
    info = ledger["info"]
    for mode, runs in info["modes"].items():
        lines.append(f"  [{mode}] hpd grid {info['hpd_grid_size'][mode]}")
        for key, t in runs.items():
            lines.append(
                f"    {key:<24} {t['best_s'] * 1e3:9.2f} ms"
                f"   kernel {t['kernel_s'] * 1e3:6.3f} ms"
                f"   {t['calibrated']:7.1f} kernel units"
            )
    lines.append(
        "  agreement: batched vs one-level ppf "
        f"{ledger['checks']['max_abs_diff_scalar']['value']:.3e}"
        f" (tol {AGREEMENT_TOL:.0e})"
    )
    return "\n".join(lines)


def test_interval_path_quick():
    assert quick_failures("interval", measure, render) == []


if __name__ == "__main__":
    raise SystemExit(bench_main("interval", measure, render))
