"""Benchmark: fleet fitting sweeps, timed against the calibration kernel.

The dataset-lane fleet drivers (:mod:`repro.core.fleet`) fit a whole
portfolio of projects in one vectorized sweep: the lane axis of the
VB2 solver becomes ``(dataset, N)``, a dataset per lane for VB1's
lock-step outer iteration, and one broadcast β-terms evaluation per
partition for NINT. This benchmark times a synthetic 1000-project
portfolio and emits ``benchmarks/results/BENCH_fleet.json`` (native
schema-2 ledger):

* **times1000/vb2** — 1000 Goel–Okumoto failure-time projects in one
  fleet sweep, a calibrated timing (best-of seconds over the
  calibration kernel's, see :mod:`repro.obs.ledger`);
* **grouped200/vb2** — 200 grouped projects through the interval
  scatter-add path, a calibrated timing;
* **times1000/vb1** — the lock-step VB1 sweep over the same portfolio,
  a speedup over looping ``fit_vb1``.

The agreement checks show that lanes never interact: on a mixed ragged
identity portfolio (both kinds, α0 ∈ {1, 2}, growth rounds forced)
the max absolute difference between each fleet posterior and the
single fit of that dataset, across every number the posteriors carry,
NINT marginals included, must be exactly 0.0.

As a script:

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI mode
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick \\
        --out /tmp/BENCH_fleet.json \\
        --baseline benchmarks/results/BENCH_fleet.json

With ``--baseline`` the run fails (exit 1) on any regression that
``repro bench check`` would report: a speedup below 80% of the
baseline's, or a calibrated timing above the baseline's over 80%.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_fleet.py` does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import RESULTS_DIR, calibrated_best_of
from repro.bayes.nint import fit_nint
from repro.bayes.priors import ModelPrior
from repro.core.fleet import fit_nint_fleet, fit_vb1_fleet, fit_vb2_fleet
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.data.simulation import simulate_failure_times, simulate_grouped
from repro.models import GoelOkumoto
from repro.obs import compare_bench, self_check_bench

_MODE_SETTINGS = {
    # Both modes sweep the full 1000-project portfolio; quick trims
    # repeats for CI wall-clock. The calibrated VB2 sweeps take more
    # repeats than the VB1 ratio: a best-of over a shared host's slow
    # and fast spells needs several samples of each.
    "full": {"repeat": 3, "scalar_repeat": 2, "timed_repeat": 10},
    "quick": {"repeat": 2, "scalar_repeat": 1, "timed_repeat": 8},
}

PRIOR = ModelPrior.informative(30.0, 10.0, 0.01, 0.005)


def _times_portfolio(count: int, seed: int = 42):
    """Small ragged Goel-Okumoto projects: the regime where the scalar
    loop's per-fit Python overhead dominates."""
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


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- agreement ----------------------------------------------------------


def _posterior_max_abs_diff(a, b) -> float:
    """Max absolute difference over every number a VB posterior carries."""
    diffs = [
        float(np.max(np.abs(np.asarray(a.weights) - np.asarray(b.weights)))),
        float(np.max(np.abs(
            np.asarray(a.n_values, dtype=float)
            - np.asarray(b.n_values, dtype=float)
        ))),
    ]
    for da, db in zip(a._omega_components, b._omega_components):
        diffs.append(abs(da.shape - db.shape))
        diffs.append(abs(da.rate - db.rate))
    for da, db in zip(a._beta_components, b._beta_components):
        diffs.append(abs(da.shape - db.shape))
        diffs.append(abs(da.rate - db.rate))
    if a.elbo is not None and b.elbo is not None:
        diffs.append(abs(a.elbo - b.elbo))
    return max(diffs)


def _agreement() -> dict:
    """Exact-agreement block on a mixed ragged identity portfolio:
    fleet vs scalar loop for VB2 (α0 ∈ {1, 2}), VB1 and NINT, with
    diagnostics dict equality on top of the numeric diff."""
    portfolio = _times_portfolio(24, seed=7) + _grouped_portfolio(16, seed=8)

    vb2_max = 0.0
    diagnostics_equal = True
    for alpha0 in (1.0, 2.0):
        fleet = fit_vb2_fleet(portfolio, PRIOR, alpha0)
        for i, data in enumerate(portfolio):
            scalar = fit_vb2(data, PRIOR, alpha0)
            vb2_max = max(
                vb2_max,
                _posterior_max_abs_diff(fleet.posterior(i), scalar),
            )
            scalar_diag = {
                k: v for k, v in scalar.diagnostics.items() if k != "telemetry"
            }
            diagnostics_equal &= fleet.diagnostics[i] == scalar_diag

    vb1_max = 0.0
    fleet = fit_vb1_fleet(portfolio, PRIOR, 1.0)
    for i, data in enumerate(portfolio):
        scalar = fit_vb1(data, PRIOR, 1.0)
        vb1_max = max(
            vb1_max, _posterior_max_abs_diff(fleet.posterior(i), scalar)
        )
        scalar_diag = {
            k: v for k, v in scalar.diagnostics.items() if k != "telemetry"
        }
        diagnostics_equal &= fleet.diagnostics[i] == scalar_diag

    nint_subset = portfolio[:6] + portfolio[-4:]
    reference = fit_vb2_fleet(nint_subset, PRIOR, 1.0)
    nint_fleet = fit_nint_fleet(
        nint_subset, PRIOR, 1.0, reference=reference, n_omega=61, n_beta=61
    )
    nint_max = 0.0
    for i, data in enumerate(nint_subset):
        scalar = fit_nint(
            data, PRIOR, 1.0,
            reference_posterior=reference.posterior(i),
            n_omega=61, n_beta=61,
        )
        posterior = nint_fleet.posterior(i)
        for param in ("omega", "beta"):
            nint_max = max(
                nint_max,
                abs(posterior.mean(param) - scalar.mean(param)),
                abs(
                    posterior.quantile(param, 0.975)
                    - scalar.quantile(param, 0.975)
                ),
            )
        nint_max = max(
            nint_max, abs(posterior.log_normaliser - scalar.log_normaliser)
        )

    return {
        "vb2_identity_max_abs_diff": vb2_max,
        "vb1_identity_max_abs_diff": vb1_max,
        "nint_identity_max_abs_diff": nint_max,
        "diagnostics_equal": diagnostics_equal,
        "identity_portfolio": len(portfolio),
    }


# -- measurement --------------------------------------------------------


def _measure_mode(mode: str) -> dict:
    settings = _MODE_SETTINGS[mode]
    repeat = settings["repeat"]
    workloads: dict[str, dict] = {}

    times = _times_portfolio(1000)
    grouped = _grouped_portfolio(200)
    for key, portfolio in (("times1000/vb2", times),
                           ("grouped200/vb2", grouped)):
        timing = calibrated_best_of(
            lambda: fit_vb2_fleet(portfolio, PRIOR, 1.0),
            settings["timed_repeat"],
        )
        workloads[key] = {**timing, "datasets": len(portfolio)}

    fleet_s = _best_of(lambda: fit_vb1_fleet(times, PRIOR, 1.0), repeat)
    scalar_s = _best_of(
        lambda: [fit_vb1(d, PRIOR, 1.0) for d in times],
        settings["scalar_repeat"],
    )
    workloads["times1000/vb1"] = {
        "scalar_s": scalar_s,
        "fleet_s": fleet_s,
        "speedup": scalar_s / fleet_s,
        "datasets": len(times),
    }
    return workloads


def measure(modes: tuple[str, ...]) -> dict:
    agreement = _agreement()
    speedups: dict[str, float] = {}
    timings: dict[str, float] = {}
    info: dict = {"modes": {}}
    for mode in modes:
        workloads = _measure_mode(mode)
        info["modes"][mode] = workloads
        for key, w in workloads.items():
            if "speedup" in w:
                speedups[f"{mode}/{key}"] = w["speedup"]
            else:
                timings[f"{mode}/{key}"] = w["calibrated"]
    info["identity_portfolio"] = agreement["identity_portfolio"]
    checks = {
        "vb2_identity_max_abs_diff": {
            "value": agreement["vb2_identity_max_abs_diff"],
            "exact": 0.0,
        },
        "vb1_identity_max_abs_diff": {
            "value": agreement["vb1_identity_max_abs_diff"],
            "exact": 0.0,
        },
        "nint_identity_max_abs_diff": {
            "value": agreement["nint_identity_max_abs_diff"],
            "exact": 0.0,
        },
        "diagnostics_equal": {
            "value": agreement["diagnostics_equal"],
            "expect": True,
        },
    }
    return {
        "schema": 2,
        "kind": "bench",
        "suite": "fleet",
        "generated_by": "benchmarks/bench_fleet.py",
        "speedups": speedups,
        "timings": timings,
        "checks": checks,
        "info": info,
    }


# -- reporting ----------------------------------------------------------


def render(result: dict) -> str:
    lines = ["fleet fit: one vectorized sweep per portfolio"]
    for mode, workloads in result["info"]["modes"].items():
        lines.append(f"  [{mode}]")
        for key, w in workloads.items():
            if "speedup" in w:
                lines.append(
                    f"    {key:<18} scalar {w['scalar_s'] * 1e3:10.1f} ms"
                    f"   fleet {w['fleet_s'] * 1e3:9.1f} ms"
                    f"   {w['speedup']:6.1f}x   ({w['datasets']} datasets)"
                )
            else:
                lines.append(
                    f"    {key:<18} fleet {w['best_s'] * 1e3:9.1f} ms"
                    f"   kernel {w['kernel_s'] * 1e3:6.3f} ms"
                    f"   {w['calibrated']:7.1f} kernel units"
                    f"   ({w['datasets']} datasets)"
                )
    checks = result["checks"]
    lines.append(
        "  identity (fleet vs scalar, max |diff|): vb2 "
        f"{checks['vb2_identity_max_abs_diff']['value']:.1e}, vb1 "
        f"{checks['vb1_identity_max_abs_diff']['value']:.1e}, nint "
        f"{checks['nint_identity_max_abs_diff']['value']:.1e} "
        "(acceptance: exactly 0)"
    )
    return "\n".join(lines)


# -- pytest entry point -------------------------------------------------


def test_fleet_quick(results_dir):
    result = measure(modes=("quick",))
    print("\n" + render(result))
    assert result["checks"]["vb2_identity_max_abs_diff"]["value"] == 0.0
    assert result["checks"]["vb1_identity_max_abs_diff"]["value"] == 0.0
    assert result["checks"]["nint_identity_max_abs_diff"]["value"] == 0.0
    assert result["checks"]["diagnostics_equal"]["value"] is True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure only the quick (fewer repeats) mode, for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "BENCH_fleet.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_fleet.json to gate regressions against",
    )
    args = parser.parse_args(argv)
    modes = ("quick",) if args.quick else ("full", "quick")
    result = measure(modes=modes)
    text = render(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(text)
    print(f"[written to {args.out}]")
    if args.baseline is None:
        failures = self_check_bench(result)
    else:
        failures = compare_bench(result, json.loads(args.baseline.read_text()))
        if not failures:
            print("within the regression gate vs baseline")
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
