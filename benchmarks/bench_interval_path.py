"""Benchmark: scalar vs batched interval-estimation path.

The vectorized interval engine (``MixtureDistribution.ppf`` on level
arrays + ``quantile_batch`` consumers) replaces per-level scalar
bisections — each one looping the mixture CDF over ~200 gamma
components — with a single simultaneous bisection whose CDF evaluations
are one ``scipy.special.gammainc`` broadcast. This benchmark times the
paper's interval workloads both ways and emits
``benchmarks/results/BENCH_interval.json``:

* **central99** — the 99% central intervals of ω and β (the interval
  columns of Tables 2/3);
* **hpd99_omega** — the 99% HPD interval of ω (coarse grid + golden-
  section refinement; the headline ≥10× acceptance target);
* **reliability99** — the 99% reliability interval of Tables 4/5
  (batched-path timing only: its vectorization lives in the quadrature
  table build, which has no scalar twin worth preserving).

The *legacy* reference reimplements the pre-vectorization path exactly
(per-component CDF loop + one scalar bisection per level; the HPD
coarse search as 2·grid scalar quantile calls). Agreement is recorded
as the max absolute difference between batched and scalar quantiles
over a level sweep (acceptance: ≤ 1e-9; the batched path is bit-equal
to the current scalar API by construction).

As a script:

    PYTHONPATH=src python benchmarks/bench_interval_path.py            # full + quick
    PYTHONPATH=src python benchmarks/bench_interval_path.py --quick    # CI mode
    PYTHONPATH=src python benchmarks/bench_interval_path.py --quick \\
        --out /tmp/BENCH_interval.json \\
        --baseline benchmarks/results/BENCH_interval.json

With ``--baseline`` the run fails (exit 1) if any workload's speedup
regresses below 80% of the committed baseline's — speedup ratios, not
wall-clock, so the check is machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_interval_path.py` does
# not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import RESULTS_DIR
from repro.core.hpd import hpd_interval
from repro.core.reliability import estimate_reliability
from repro.core.vb2 import fit_vb2
from repro.experiments.config import paper_scenarios
from repro.stats.rootfind import bisect_increasing

LEVEL = 0.99
SCENARIOS = ("DT-Info", "DG-Info")
HPD_SPEEDUP_TARGET = 10.0
AGREEMENT_TOL = 1e-9
REGRESSION_FRACTION = 0.8

#: Level sweep for the batched/scalar agreement check: bulk plus the
#: extreme tails that stress the bracket construction.
AGREEMENT_LEVELS = np.array(
    [1e-6, 1e-4, 0.005, 0.025, 0.25, 0.5, 0.75, 0.975, 0.995, 1 - 1e-4, 1 - 1e-6]
)

_MODE_SETTINGS = {
    # repeat: best-of count for the fast (batched) side; the legacy
    # side of the HPD workload is timed once — it is the >10x-slower
    # path, so single-run noise cannot flip the conclusion.
    "full": {"hpd_grid_size": 201, "repeat": 3},
    "quick": {"hpd_grid_size": 41, "repeat": 2},
}


# -- legacy (pre-vectorization) reference ------------------------------


def _legacy_cdf(mixture, x: float) -> float:
    """Seed-era mixture CDF: a Python loop over the components."""
    acc = 0.0
    for w, comp in zip(mixture.weights, mixture.components):
        acc += w * float(comp.cdf(x))
    return acc


def _legacy_ppf(mixture, q: float) -> float:
    """Seed-era mixture quantile: one scalar bisection per level."""
    lo = min(float(c.ppf(q)) for c in mixture.components)
    hi = max(float(c.ppf(q)) for c in mixture.components)
    if hi <= lo:
        return lo
    return bisect_increasing(lambda x: _legacy_cdf(mixture, x) - q, lo, hi)


def _legacy_central_intervals(posterior, level: float) -> dict[str, tuple]:
    tail = 0.5 * (1.0 - level)
    out = {}
    for param in ("omega", "beta"):
        marginal = posterior.marginal(param)
        out[param] = (
            _legacy_ppf(marginal, tail),
            _legacy_ppf(marginal, 1.0 - tail),
        )
    return out


def _legacy_hpd(posterior, param: str, level: float, *, grid_size: int,
                refine_iterations: int = 30):
    """Seed-era HPD search: every quantile a scalar legacy inversion."""
    marginal = posterior.marginal(param)
    quantile = lambda q: _legacy_ppf(marginal, q)
    slack = 1.0 - level

    def width(t: float) -> float:
        return quantile(t + level) - quantile(t)

    eps = min(1e-6, slack * 1e-3)
    candidates = [
        eps + (slack - 2 * eps) * i / (grid_size - 1) for i in range(grid_size)
    ]
    widths = [width(t) for t in candidates]
    best = min(range(grid_size), key=widths.__getitem__)
    a = candidates[max(best - 1, 0)]
    b = candidates[min(best + 1, grid_size - 1)]
    inv_phi = (5**0.5 - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = width(c), width(d)
    for _ in range(refine_iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = width(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = width(d)
    t_star = 0.5 * (a + b)
    return quantile(t_star), quantile(t_star + level)


# -- measurement -------------------------------------------------------


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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


def _agreement(posteriors) -> dict[str, float]:
    """Max |batched - scalar| and |batched - legacy| quantile gaps."""
    vs_scalar = 0.0
    vs_legacy = 0.0
    for _, _, posterior in posteriors.values():
        for param in ("omega", "beta"):
            marginal = posterior.marginal(param)
            batch = marginal.ppf(AGREEMENT_LEVELS)
            scalars = np.array(
                [marginal.ppf(float(q)) for q in AGREEMENT_LEVELS]
            )
            legacy = np.array(
                [_legacy_ppf(marginal, float(q)) for q in AGREEMENT_LEVELS]
            )
            # Scale β's tiny quantiles up to ω's so one absolute bound
            # covers both: compare on the level scale is wrong (that is
            # what the bisection already controls); report raw max.
            vs_scalar = max(vs_scalar, float(np.abs(batch - scalars).max()))
            vs_legacy = max(vs_legacy, float(np.abs(batch - legacy).max()))
    return {"max_abs_diff_scalar": vs_scalar, "max_abs_diff_legacy": vs_legacy}


def _measure_mode(mode: str, posteriors) -> dict:
    settings = _MODE_SETTINGS[mode]
    grid = settings["hpd_grid_size"]
    repeat = settings["repeat"]
    workloads: dict[str, dict] = {}
    for name, (scenario, data, posterior) in posteriors.items():
        # Central 99% intervals of both parameters (Tables 2/3).
        legacy_s = _best_of(
            lambda: _legacy_central_intervals(posterior, LEVEL), repeat
        )
        batched_s = _best_of(
            lambda: (
                posterior.credible_interval("omega", LEVEL),
                posterior.credible_interval("beta", LEVEL),
            ),
            repeat,
        )
        workloads[f"{name}/central99"] = {
            "legacy_s": legacy_s,
            "batched_s": batched_s,
            "speedup": legacy_s / batched_s,
        }

        # HPD 99% interval of omega — the acceptance workload.
        start = time.perf_counter()
        legacy_hpd = _legacy_hpd(posterior, "omega", LEVEL, grid_size=grid)
        legacy_s = time.perf_counter() - start
        batched_s = _best_of(
            lambda: hpd_interval(posterior, "omega", LEVEL, grid_size=grid),
            repeat,
        )
        new_hpd = hpd_interval(posterior, "omega", LEVEL, grid_size=grid)
        workloads[f"{name}/hpd99_omega"] = {
            "legacy_s": legacy_s,
            "batched_s": batched_s,
            "speedup": legacy_s / batched_s,
            "grid_size": grid,
            "endpoint_gap": max(
                abs(new_hpd.lower - legacy_hpd[0]),
                abs(new_hpd.upper - legacy_hpd[1]),
            ),
        }

        # Reliability 99% interval (Tables 4/5) — batched path only;
        # the table cache and the β grid are reset per run so each
        # repeat pays the full grid and table build + interval
        # inversion.
        u = scenario.reliability_windows[0]

        def reliability():
            posterior._reliability_cache.clear()
            posterior._beta_grid = None
            return estimate_reliability(
                posterior, data.horizon, u, alpha0=scenario.alpha0, level=LEVEL
            )

        workloads[f"{name}/reliability99"] = {
            "legacy_s": None,
            "batched_s": _best_of(reliability, repeat),
            "speedup": None,
        }
    return {
        "hpd_grid_size": grid,
        "repeat": repeat,
        "workloads": workloads,
    }


def measure(modes: tuple[str, ...]) -> dict:
    posteriors = _fit_scenarios()
    agreement = _agreement(posteriors)
    result = {
        "schema": 1,
        "generated_by": "benchmarks/bench_interval_path.py",
        "acceptance": {
            "hpd_speedup_target": HPD_SPEEDUP_TARGET,
            "agreement_tolerance": AGREEMENT_TOL,
        },
        "agreement": agreement,
        "modes": {mode: _measure_mode(mode, posteriors) for mode in modes},
    }
    hpd_speedups = [
        w["speedup"]
        for mode in result["modes"].values()
        for key, w in mode["workloads"].items()
        if key.endswith("hpd99_omega")
    ]
    result["acceptance"]["hpd_speedup_measured_min"] = min(hpd_speedups)
    return result


# -- reporting and regression gate -------------------------------------


def render(result: dict) -> str:
    lines = ["interval path: legacy scalar vs batched (best-of timings)"]
    for mode, payload in result["modes"].items():
        lines.append(
            f"  [{mode}] hpd grid {payload['hpd_grid_size']}, "
            f"repeat {payload['repeat']}"
        )
        for key, w in payload["workloads"].items():
            if w["speedup"] is None:
                lines.append(
                    f"    {key:<24} batched {w['batched_s'] * 1e3:9.2f} ms"
                    "   (no legacy twin)"
                )
            else:
                lines.append(
                    f"    {key:<24} legacy {w['legacy_s'] * 1e3:10.2f} ms"
                    f"   batched {w['batched_s'] * 1e3:9.2f} ms"
                    f"   {w['speedup']:6.1f}x"
                )
    agreement = result["agreement"]
    lines.append(
        f"  agreement: batched vs scalar {agreement['max_abs_diff_scalar']:.3e}"
        f" (tol {AGREEMENT_TOL:.0e}),"
        f" vs legacy {agreement['max_abs_diff_legacy']:.3e}"
    )
    lines.append(
        f"  acceptance: min hpd speedup "
        f"{result['acceptance']['hpd_speedup_measured_min']:.1f}x"
        f" (target >= {HPD_SPEEDUP_TARGET:.0f}x)"
    )
    return "\n".join(lines)


def check_regression(result: dict, baseline: dict) -> list[str]:
    """Compare speedup ratios against a baseline run.

    Returns failure messages for every workload whose speedup fell
    below ``REGRESSION_FRACTION`` of the baseline's. Ratios are
    machine-independent, so a committed baseline from another host is
    still a meaningful gate.
    """
    failures = []
    for mode, payload in result["modes"].items():
        base_mode = baseline.get("modes", {}).get(mode)
        if base_mode is None:
            continue
        for key, w in payload["workloads"].items():
            base_w = base_mode["workloads"].get(key)
            if base_w is None or w["speedup"] is None or base_w["speedup"] is None:
                continue
            floor = REGRESSION_FRACTION * base_w["speedup"]
            if w["speedup"] < floor:
                failures.append(
                    f"{mode}/{key}: speedup {w['speedup']:.1f}x fell below "
                    f"{floor:.1f}x (= {REGRESSION_FRACTION:.0%} of baseline "
                    f"{base_w['speedup']:.1f}x)"
                )
    return failures


# -- pytest entry point ------------------------------------------------


def test_batched_interval_path_quick(results_dir):
    result = measure(modes=("quick",))
    print("\n" + render(result))
    assert result["agreement"]["max_abs_diff_scalar"] <= AGREEMENT_TOL
    # Conservative floor for noisy CI hosts; the committed full-mode
    # baseline documents the >= 10x acceptance number.
    assert result["acceptance"]["hpd_speedup_measured_min"] >= 5.0
    for mode in result["modes"].values():
        for key, w in mode["workloads"].items():
            if key.endswith("hpd99_omega"):
                assert w["endpoint_gap"] <= 1e-4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure only the quick (small-grid) mode, for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "BENCH_interval.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_interval.json to gate speedup regressions against",
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
    if result["agreement"]["max_abs_diff_scalar"] > AGREEMENT_TOL:
        print(
            f"FAIL: batched/scalar disagreement "
            f"{result['agreement']['max_abs_diff_scalar']:.3e} > {AGREEMENT_TOL:.0e}",
            file=sys.stderr,
        )
        status = 1
    if "full" in result["modes"]:
        measured = result["acceptance"]["hpd_speedup_measured_min"]
        if measured < HPD_SPEEDUP_TARGET:
            print(
                f"FAIL: hpd speedup {measured:.1f}x < "
                f"{HPD_SPEEDUP_TARGET:.0f}x target",
                file=sys.stderr,
            )
            status = 1
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures = check_regression(result, baseline)
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("speedups within the regression gate vs baseline")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
