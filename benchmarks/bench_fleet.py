"""Benchmark: fleet fitting sweeps, timed against the calibration kernel.

The dataset-lane fleet drivers (:mod:`repro.core.fleet`) fit a whole
portfolio of projects in one vectorized sweep: the lane axis of the
VB2 solver becomes ``(dataset, N)``, and a dataset is a lane of VB1's
lock-step outer iteration. This benchmark times synthetic portfolios
and writes ``benchmarks/results/BENCH_fleet.json``. Each workload is a
calibrated timing (``benchmarks/conftest.py::calibrated_best_of``: one
unit is one run of perfbench's calibration kernel), gated by
``repro bench check``:

* **times1000/vb2** — 1000 Goel–Okumoto failure-time projects in one
  ``fit_vb2_fleet`` sweep;
* **grouped200/vb2** — 200 grouped projects through the interval
  scatter-add path;
* **times1000/vb1** — the lock-step ``fit_vb1_fleet`` sweep over the
  1000-project portfolio.

The checks show that lanes never interact: on a mixed ragged identity
portfolio (both kinds, α0 ∈ {1, 2}, growth rounds forced) the max
absolute difference between each fleet posterior and the single fit
of that dataset, across every number the posteriors carry, must be
exactly 0.0, and the diagnostics dicts must be equal.

As a script:

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick \\
        --out /tmp/BENCH_fleet.json                            # CI mode
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_fleet.py` does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import (
    bench_main,
    calibrated_best_of,
    posterior_max_abs_diff,
    quick_failures,
)
from repro.bayes.priors import ModelPrior
from repro.core.fleet import fit_vb1_fleet, fit_vb2_fleet
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.data.simulation import simulate_failure_times, simulate_grouped
from repro.models import GoelOkumoto

#: Best-of counts of the sweeps per mode. Both modes sweep the full
#: portfolios; a best-of over a shared host's slow and fast spells
#: needs several samples of each.
REPEATS = {"full": 10, "quick": 8}

PRIOR = ModelPrior.informative(30.0, 10.0, 0.01, 0.005)


def _times_portfolio(count: int, seed: int = 42):
    """Small ragged Goel-Okumoto projects."""
    rng = np.random.default_rng(seed)
    return [
        simulate_failure_times(
            GoelOkumoto(12.0 + (i % 7) * 3.0, 0.008 + (i % 5) * 0.002),
            60.0 + (i % 11) * 4.0,
            rng,
        )
        for i in range(count)
    ]


def _grouped_portfolio(count: int, seed: int = 43):
    rng = np.random.default_rng(seed)
    return [
        simulate_grouped(
            GoelOkumoto(18.0 + (i % 6) * 4.0, 0.01 + (i % 4) * 0.003),
            np.linspace(0.0, 70.0 + (i % 9) * 5.0, 8 + (i % 5))[1:],
            rng,
        )
        for i in range(count)
    ]


def _checks() -> dict:
    """Exact agreement on a mixed ragged identity portfolio: fleet vs
    scalar loop for VB2 (α0 ∈ {1, 2}) and VB1, with diagnostics dict
    equality on top of the numeric diff."""
    portfolio = _times_portfolio(24, seed=7) + _grouped_portfolio(16, seed=8)
    cases = [
        ("vb2", fit_vb2_fleet(portfolio, PRIOR, alpha0),
         partial(fit_vb2, prior=PRIOR, alpha0=alpha0))
        for alpha0 in (1.0, 2.0)
    ]
    cases.append(("vb1", fit_vb1_fleet(portfolio, PRIOR, 1.0),
                  partial(fit_vb1, prior=PRIOR, alpha0=1.0)))
    worst = {"vb2": 0.0, "vb1": 0.0}
    diagnostics_equal = True
    for kind, fleet, fit_one in cases:
        for i, data in enumerate(portfolio):
            scalar = fit_one(data)
            worst[kind] = max(
                worst[kind], posterior_max_abs_diff(fleet.posterior(i), scalar)
            )
            scalar_diag = {
                k: v for k, v in scalar.diagnostics.items() if k != "telemetry"
            }
            diagnostics_equal &= fleet.diagnostics[i] == scalar_diag
    return {
        "vb2_identity_max_abs_diff": {"value": worst["vb2"], "exact": 0.0},
        "vb1_identity_max_abs_diff": {"value": worst["vb1"], "exact": 0.0},
        "diagnostics_equal": {"value": diagnostics_equal, "expect": True},
    }


def measure(modes: tuple[str, ...]) -> dict:
    times = _times_portfolio(1000)
    grouped = _grouped_portfolio(200)
    workloads = {
        "times1000/vb2": lambda: fit_vb2_fleet(times, PRIOR, 1.0),
        "grouped200/vb2": lambda: fit_vb2_fleet(grouped, PRIOR, 1.0),
        "times1000/vb1": lambda: fit_vb1_fleet(times, PRIOR, 1.0),
    }
    timings: dict[str, float] = {}
    info: dict = {"modes": {}}
    for mode in modes:
        runs = info["modes"][mode] = {}
        for key, fn in workloads.items():
            runs[key] = calibrated_best_of(fn, REPEATS[mode])
            timings[f"{mode}/{key}"] = runs[key]["calibrated"]
    return {"timings": timings, "checks": _checks(), "info": info}


def render(ledger: dict) -> str:
    lines = ["fleet fit: one vectorized sweep per portfolio"]
    for mode, runs in ledger["info"]["modes"].items():
        lines.append(f"  [{mode}]")
        for key, t in runs.items():
            lines.append(
                f"    {key:<18} {t['best_s'] * 1e3:9.1f} ms"
                f"   kernel {t['kernel_s'] * 1e3:6.3f} ms"
                f"   {t['calibrated']:7.1f} kernel units"
            )
    checks = ledger["checks"]
    lines.append(
        "  identity (fleet vs scalar, max |diff|): vb2 "
        f"{checks['vb2_identity_max_abs_diff']['value']:.1e}, vb1 "
        f"{checks['vb1_identity_max_abs_diff']['value']:.1e} "
        "(acceptance: exactly 0)"
    )
    return "\n".join(lines)


def test_fleet_quick():
    assert quick_failures("fleet", measure, render) == []


if __name__ == "__main__":
    raise SystemExit(bench_main("fleet", measure, render))
