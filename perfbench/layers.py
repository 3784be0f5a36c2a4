"""Per-layer tracing from outside the package.

The traced run wraps each layer's public entry points and measures
self time: a call's duration minus the wrapped calls inside it, minus
the calibration handler's time. Spans are recorded only while an op is
being timed, so correctness checks between ops never show up in a
layer's numbers.

A function is wrapped wherever it is bound: the package and the
workloads import entry points by name (``from repro.core.vb2 import
fit_vb2``), so every loaded module holding the function object gets
the wrapper. Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _vb2(counts: Counter, posterior) -> None:
    diagnostics = posterior.diagnostics
    counts["core.vb2.iterations"] += int(diagnostics.get("fixed_point_iterations", 0))
    counts["core.vb2.warm"] += bool(diagnostics.get("warm_started", False))


def _fleet(counts: Counter, fleet) -> None:
    counts["core.fleet.datasets"] += len(fleet)
    counts["core.fleet.iterations"] += sum(
        int(d["fixed_point_iterations"]) for d in fleet.diagnostics
    )


def _cache_get(counts: Counter, posterior) -> None:
    counts["cache.store.hits" if posterior is not None else "cache.store.misses"] += 1


def _mcmc(counts: Counter, result) -> None:
    counts["bayes.mcmc.variates"] += int(result.variate_count)


#: layer -> ((module, qualified name, observer of the result), ...)
LAYERS = {
    "core.reliability": (("repro.core.reliability", "estimate_reliability", None),),
    "bayes.joint": (("repro.bayes.joint", "JointPosterior.credible_interval", None),),
    "core.vb2": (("repro.core.vb2", "fit_vb2", _vb2),),
    "core.vb1": (("repro.core.vb1", "fit_vb1", None),),
    "core.fleet": (
        ("repro.core.fleet", "fit_vb2_fleet", _fleet),
        ("repro.core.fleet", "FleetResult.posterior", None),
    ),
    "data.fleet": (("repro.data.fleet", "pack_grouped", None),),
    "core.warmstart": (("repro.core.warmstart", "warm_start_from", None),),
    "cache.keys": (("repro.cache.keys", "fit_cache_key", None),),
    "cache.store": (
        ("repro.cache.store", "PosteriorCache.get", _cache_get),
        ("repro.cache.store", "PosteriorCache.put", None),
    ),
    "bayes.mcmc": (
        ("repro.bayes.mcmc.gibbs_failure_time", "gibbs_failure_time", _mcmc),
        ("repro.bayes.mcmc.gibbs_grouped", "gibbs_grouped", _mcmc),
    ),
    "bayes.nint": (("repro.bayes.nint", "fit_nint", None),),
    "bayes.laplace": (("repro.bayes.laplace", "fit_laplace", None),),
}


class Tracer:
    """Installs the layer wrappers and accumulates one op's spans.

    ``clock_offset`` returns the seconds to exclude from a span (the
    calibration handler's running total).
    """

    def __init__(self, clock_offset) -> None:
        self._offset = clock_offset
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def take(self) -> tuple[dict, Counter]:
        """This op's raw self seconds per layer and its counts; resets."""
        spans, counts = dict(self.self_s), self.counts
        self.self_s, self.counts = defaultdict(float), Counter()
        return spans, counts

    def _wrap(self, layer: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            offset = tracer._offset()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start - (tracer._offset() - offset)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.self_s[layer] += duration - children[0]
                tracer.counts[f"{layer}.calls"] += 1
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return wrapper

    def install(self) -> None:
        for layer, entries in LAYERS.items():
            for module_name, qualname, observe in entries:
                owner = importlib.import_module(module_name)
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                wrapper = self._wrap(layer, original, observe)
                if path:  # a method: patch the class
                    self._set(owner, name, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    for attr, value in list(getattr(module, "__dict__", {}).items()):
                        if value is original:
                            self._set(module, attr, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
