"""Benchmark: serial vs. parallel misspecification campaign wall-clock.

Measures `run_robustness` end to end at 1 worker and at `--workers`
(default 4), verifies the two results are bit-identical, and reports
the speedup. As with the SBC runner benchmark the asserted property is
the determinism contract — the speedup is hardware-bound.

Unlike the older path benchmarks this one emits its JSON artifact
(``benchmarks/results/BENCH_robustness.json``) natively in the unified
schema-2 bench-ledger layout consumed by ``repro bench check`` /
``repro bench report``; the gated property is the ``identical`` check,
the speedup is recorded as context.

As a script:

    PYTHONPATH=src python benchmarks/bench_robustness.py \
        --replications 24 --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_robustness.py` does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import RESULTS_DIR, write_result
from repro.robustness import RobustnessSpec, run_robustness


def _spec(replications: int, seed: int) -> RobustnessSpec:
    """A two-family sweep with LAPL, VB2 and one direct MCMC chain per
    replication."""
    return RobustnessSpec(
        families=("contaminated", "weibull-hazard"),
        methods=("LAPL", "MCMC", "VB2"),
        replications=replications,
        seed=seed,
    )


def measure(replications: int, workers: int, seed: int = 0) -> dict:
    """Time serial vs. parallel campaigns and check bit-identity."""
    spec = _spec(replications, seed)

    start = time.perf_counter()
    serial = run_robustness(spec, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_robustness(spec, workers=workers)
    parallel_s = time.perf_counter() - start

    return {
        "spec": spec,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "identical": serial.to_dict() == parallel.to_dict(),
    }


def to_ledger(result: dict) -> dict:
    """The run as a native schema-2 bench-ledger document.

    The determinism contract is the gated check; wall-clock numbers are
    hardware-bound, so the speedup travels as an ungated speedup entry
    and the raw timings as ``info``.
    """
    spec = result["spec"]
    return {
        "schema": 2,
        "kind": "bench",
        "suite": "robustness",
        "generated_by": "benchmarks/bench_robustness.py",
        "speedups": {
            f"parallel{result['workers']}/campaign": result["speedup"],
        },
        "checks": {
            "serial_parallel_identical": {
                "value": result["identical"],
                "expect": True,
            },
        },
        "info": {
            "families": list(spec.families),
            "methods": list(spec.methods),
            "replications": spec.replications,
            "seed": spec.seed,
            "serial_s": result["serial_s"],
            "parallel_s": result["parallel_s"],
        },
    }


def render(result: dict) -> str:
    spec = result["spec"]
    cells = len(spec.cells())
    lines = [
        "Robustness campaign — serial vs. parallel wall-clock",
        f"families={','.join(spec.families)} methods={','.join(spec.methods)} "
        f"cells={cells} replications={spec.replications} "
        f"seed={spec.seed} cores={os.cpu_count()}",
        f"  serial   (workers=1):              {result['serial_s']:8.3f} s",
        f"  parallel (workers={result['workers']}):"
        f"              {result['parallel_s']:8.3f} s",
        f"  speedup: {result['speedup']:.2f}x   "
        f"bit-identical: {result['identical']}",
    ]
    return "\n".join(lines)


def test_robustness_campaign_speedup(benchmark, results_dir):
    """Times the 4-worker campaign; asserts the determinism contract."""
    result = measure(replications=8, workers=4)
    assert result["identical"], "parallel result diverged from serial"
    write_result(results_dir / "robustness_runner.txt", render(result))

    from repro.obs import self_check_bench

    assert self_check_bench(to_ledger(result)) == []

    spec = result["spec"]
    benchmark(lambda: run_robustness(spec, workers=4))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=24)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "BENCH_robustness.json",
        help="where to write the schema-2 bench-ledger JSON",
    )
    args = parser.parse_args()
    result = measure(args.replications, args.workers, seed=args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(RESULTS_DIR / "robustness_runner.txt", render(result))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(to_ledger(result), indent=2) + "\n")
    print(f"[ledger written to {args.out}]")
    if not result["identical"]:
        raise SystemExit("FAIL: parallel result diverged from serial")


if __name__ == "__main__":
    main()
