"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_intervals --seed 1 \\
        --seconds 20 --trace 0

Each workload runs in its own single-threaded process (BLAS/OpenMP
pools pinned to one thread) as a closed loop: one client, the next op
only after the previous one returns. The set-up is measured in
``SETUP_SAMPLES`` fresh processes and reported as their median.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it are a human-readable report; with ``--trace 1`` it lists
every end-to-end and per-layer metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> the op kinds behind ``latency_*`` and ``replay_*``. Only
#: tracker_stream has a replay phase; elsewhere the replay pair reads
#: the latency kind again. paper_repro's report runs once per pass, so
#: its percentiles fall back to the median (calib.kind_latency).
OP_KINDS = {
    "paper_repro": ("report", "report"),
    "fleet_intervals": ("project", "project"),
    "tracker_stream": ("update", "replay"),
}

#: Fresh processes whose set-up is timed; the last one also measures.
SETUP_SAMPLES = 5

#: name -> unit, reported by untraced runs.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "replay_p50_ms": "ms",
    "replay_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: Layers with wrapped entry points (see layers.LAYERS).
LAYER_NAMES = (
    "core.reliability", "bayes.joint", "core.vb2", "core.vb1", "core.fleet",
    "data.fleet", "core.warmstart", "cache.keys", "cache.store", "bayes.mcmc",
    "bayes.nint", "bayes.laplace",
)

#: name -> (unit, better) of the per-layer metrics beyond calls and ms.
LAYER_EXTRAS = {
    "core.vb2.iterations": ("count", "lower"),
    "core.vb2.warm_frac": ("fraction", "higher"),
    "core.fleet.datasets": ("count", "higher"),
    "core.fleet.iterations": ("count", "lower"),
    "cache.store.hits": ("count", "higher"),
    "cache.store.misses": ("count", "lower"),
    "cache.store.hit_ratio": ("fraction", "higher"),
    "cache.store.disk_bytes": ("B", "lower"),
    "bayes.mcmc.variates": ("count", "lower"),
    "bayes.mcmc.variates_per_s": ("1/s", "higher"),
    "bench.unattributed_ms": ("ms", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.raw_wall_s": ("s", "lower"),
    "bench.calib_kernel_us": ("us", "lower"),
    "bench.calib_kernel_spread": ("fraction", "lower"),
    "bench.trace_overhead_frac": ("fraction", "lower"),
    "bench.ops": ("count", "lower"),
    "bench.latency_samples": ("count", "higher"),
    "bench.replay_samples": ("count", "higher"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.ms"] = ("ms", "lower")
    units.update(LAYER_EXTRAS)
    return units


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _worker(args, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: "1" for var in _THREAD_VARS})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, setups: list[float], main: dict) -> dict[str, float]:
    phase = main["untraced"]
    latency, replay = (phase["kinds_ms"][kind] for kind in OP_KINDS[workload])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(phase["wall_s"]),
        "latency_p50_ms": calib.kind_latency(latency, 50),
        "latency_p90_ms": calib.kind_latency(latency, 90),
        "replay_p50_ms": calib.kind_latency(replay, 50),
        "replay_p90_ms": calib.kind_latency(replay, 90),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": 1.0 - phase["failed"] / phase["ops"],
    }


def per_layer(workload: str, main: dict) -> dict[str, float]:
    untraced, traced = main["untraced"], main["traced"]
    counts = traced["counts"]
    values = {}
    for layer in LAYER_NAMES:
        values[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0.0)
        values[f"{layer}.ms"] = traced["layer_ms"].get(layer, 0.0)
    vb2_calls = values["core.vb2.calls"]
    lookups = counts.get("cache.store.hits", 0.0) + counts.get("cache.store.misses", 0.0)
    mcmc_s = values["bayes.mcmc.ms"] / 1e3
    traced_wall = statistics.fmean(traced["wall_s"])
    latency_kind, replay_kind = OP_KINDS[workload]
    values.update({
        "core.vb2.iterations": counts.get("core.vb2.iterations", 0.0),
        "core.vb2.warm_frac":
            counts.get("core.vb2.warm", 0.0) / vb2_calls if vb2_calls else 0.0,
        "core.fleet.datasets": counts.get("core.fleet.datasets", 0.0),
        "core.fleet.iterations": counts.get("core.fleet.iterations", 0.0),
        "cache.store.hits": counts.get("cache.store.hits", 0.0),
        "cache.store.misses": counts.get("cache.store.misses", 0.0),
        "cache.store.hit_ratio":
            counts.get("cache.store.hits", 0.0) / lookups if lookups else 0.0,
        "cache.store.disk_bytes": traced["extras"]["cache.store.disk_bytes"],
        "bayes.mcmc.variates": counts.get("bayes.mcmc.variates", 0.0),
        "bayes.mcmc.variates_per_s":
            counts.get("bayes.mcmc.variates", 0.0) / mcmc_s if mcmc_s else 0.0,
        "bench.unattributed_ms":
            traced_wall * 1e3 - sum(traced["layer_ms"].values()),
        "bench.traced_wall_s": traced_wall,
        "bench.raw_wall_s": statistics.median(untraced["raw_wall_s"]),
        "bench.calib_kernel_us": untraced["kernel_us"],
        "bench.calib_kernel_spread": untraced["kernel_spread"],
        "bench.trace_overhead_frac":
            traced_wall / statistics.fmean(untraced["wall_s"]) - 1.0,
        "bench.ops": traced["ops"] / traced["reps"],
        "bench.latency_samples": len(untraced["kinds_ms"][latency_kind]),
        "bench.replay_samples": len(untraced["kinds_ms"][replay_kind]),
    })
    return values


def _report(args, setups: list[float], setups_raw: list[float],
            main: dict) -> list[str]:
    """The human-readable lines printed before the JSON result."""
    phase = main["untraced"]
    lines = [
        f"# {args.workload} seed={args.seed}: {phase['reps']} reps, "
        f"{phase['ops']} ops, {phase['failed']} failed",
    ]
    kinds = dict(zip(("latency", "replay"), OP_KINDS[args.workload]))
    for name, value in end_to_end(args.workload, setups, main).items():
        note = ""
        if name.startswith(("latency", "replay")):
            kind = kinds[name.split("_")[0]]
            note = f" ({kind} ops, n={len(phase['kinds_ms'][kind])})"
        lines.append(f"{name:34s} {value:14.6g} {END_TO_END[name]}{note}")
    lines.append(f"{'setup_s samples':34s} "
                 + " ".join(f"{s:.4g}" for s in setups) + " s")
    lines.append(f"{'raw setup_s':34s} {statistics.median(setups_raw):14.6g} s")
    lines.append(f"{'raw wall_s':34s} {statistics.median(phase['raw_wall_s']):14.6g} s")
    lines.append(f"{'calibration kernel median':34s} {phase['kernel_us']:14.6g} us "
                 f"(IQR/median {phase['kernel_spread']:.3f})")
    for kind, values in phase["kinds_ms"].items():
        lines.append(f"{f'median {kind} op':34s} "
                     f"{statistics.median(values):14.6g} ms (n={len(values)})")
    if "traced" in main:
        values = per_layer(args.workload, main)
        traced_ms = values["bench.traced_wall_s"] * 1e3
        for name, (unit, _) in per_layer_units().items():
            share = ""
            if unit == "ms":
                share = f" ({100.0 * values[name] / traced_ms:5.1f}% of traced wall)"
            lines.append(f"{name:34s} {values[name]:14.6g} {unit}{share}")
        traced = main["traced"]
        for kind, layer_ms in traced["kind_layer_ms"].items():
            kind_ms = sum(traced["kinds_ms"][kind]) / traced["reps"]
            shares = sorted(layer_ms.items(), key=lambda item: -item[1])
            lines.append(f"{kind} ops, self time by layer: " + ", ".join(
                f"{layer} {100.0 * ms / kind_ms:.1f}%" for layer, ms in shares
            ))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(OP_KINDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs = [_worker(args, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        main_run = _worker(args, "--seconds", str(args.seconds),
                           "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)
    setups = [run["setup_s"] for run in runs]

    phases = [main_run["untraced"]] + ([main_run["traced"]] if args.trace else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
        values = per_layer(args.workload, main_run)
    else:
        units, values = END_TO_END, end_to_end(args.workload, setups, main_run)
    for line in _report(args, setups, [run["setup_raw_s"] for run in runs],
                        main_run):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
