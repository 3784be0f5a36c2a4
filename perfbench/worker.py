"""One benchmark process: set-up, timed reps, checks.

Started by ``run.py``, never by hand. The process imports the package,
builds the seeded inputs and warms up (its set-up), then repeats the
workload's fixed work (a *rep*) for ``--seconds``. With ``--trace 1``
it then repeats the same number of reps with the layer wrappers
installed. It prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402  (imports NumPy and SciPy first)


@dataclass
class Op:
    kind: str
    rep: int
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    spans: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    raw: float = 0.0
    seconds: float = 0.0  # calibrated


def measure(workload, sampler, tmp_root: Path, *, seconds=None, reps=None,
            tracer=None):
    """Run reps for ``seconds`` (whole reps that fit, at least one) or
    exactly ``reps`` of them; returns the phase summary."""
    ops: list[Op] = []
    extras: dict[str, list] = defaultdict(list)
    rep = 0

    def guarded(fn):
        try:
            return fn(), None
        except Exception as exc:  # an op that raises counts as failed
            return None, exc

    def run(kind, fn):
        op = Op(kind, rep)
        if tracer is not None:
            tracer.active = True
        (result, error), op.start, op.end = sampler.time(lambda: guarded(fn))
        if tracer is not None:
            tracer.active = False
            op.spans, op.counts = tracer.take()
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            op.ok = False
        ops.append(op)
        return result, op

    with sampler:
        sampler.sample()
        began = time.perf_counter()
        while True:
            rep_began = time.perf_counter()
            tmp = tmp_root / f"rep{rep}"
            workload.rep(run, tmp)
            shutil.rmtree(tmp, ignore_errors=True)
            extras["cache.store.disk_bytes"].append(getattr(workload, "disk_bytes", 0))
            rep += 1
            now = time.perf_counter()
            if reps is not None:
                if rep >= reps:
                    break
            elif now - began + (now - rep_began) > seconds:
                break

    for op in ops:
        op.raw = sampler.raw(op.start, op.end)
        op.seconds = sampler.calibrated(op.start, op.end)
    return summarise(ops, rep, sampler, extras)


def summarise(ops: list[Op], reps: int, sampler: calib.Sampler, extras) -> dict:
    wall = [0.0] * reps
    raw = [0.0] * reps
    kinds: dict[str, list[float]] = defaultdict(list)
    layer_ms: dict[str, float] = defaultdict(float)
    kind_layer_ms: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: Counter = Counter()
    for op in ops:
        wall[op.rep] += op.seconds
        raw[op.rep] += op.raw
        kinds[op.kind].append(op.seconds * 1e3)
        for layer, self_s in op.spans.items():
            ms = self_s * op.seconds / op.raw * 1e3 / reps
            layer_ms[layer] += ms
            kind_layer_ms[op.kind][layer] += ms
        counts.update(op.counts)
    kernel_s, kernel_spread = sampler.spread()
    return {
        "reps": reps,
        "ops": len(ops),
        "failed": sum(not op.ok for op in ops),
        "wall_s": wall,
        "raw_wall_s": raw,
        "kinds_ms": kinds,
        "layer_ms": layer_ms,
        "kind_layer_ms": kind_layer_ms,
        "counts": {k: v / reps for k, v in counts.items()},
        "extras": {k: statistics.median(v) for k, v in extras.items()},
        "kernel_us": kernel_s * 1e6,
        "kernel_spread": kernel_spread,
    }


def set_up(name: str, seed: int, tmp_root: Path):
    """Import the package, build the seeded inputs and warm up."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, ROOT)
    workload.warm_up(tmp_root / "warm-up")
    shutil.rmtree(tmp_root / "warm-up", ignore_errors=True)
    return workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tmp_root = ROOT / ".perfbench_tmp" / str(os.getpid())
    spawned = args.spawned_at + time.perf_counter() - time.monotonic()
    try:
        # Set-up runs under the in-call sampler too; only the interpreter
        # start and the NumPy/SciPy import before it are calibrated by
        # the samples that follow.
        calib.kernel()  # its first call pays one-off costs
        sampler = calib.Sampler()
        with sampler:
            sampler.sample()
            workload, _, ready = sampler.time(
                lambda: set_up(args.workload, args.seed, tmp_root)
            )
            for _ in range(calib.NEIGHBOURS - 1):
                sampler.sample()
        out = {"setup_raw_s": sampler.raw(spawned, ready),
               "setup_s": sampler.calibrated(spawned, ready)}
        if not args.setup_only:
            out["untraced"] = measure(
                workload, calib.Sampler(), tmp_root, seconds=args.seconds
            )
            out["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            if args.trace:
                from layers import Tracer

                sampler = calib.Sampler()
                tracer = Tracer(lambda: sampler.handler_s)
                tracer.install()
                try:
                    out["traced"] = measure(
                        workload, sampler, tmp_root,
                        reps=out["untraced"]["reps"], tracer=tracer,
                    )
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place if not empty
            tmp_root.parent.rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
