"""Solver telemetry: spans, counters, histograms, and trace capture.

The obs layer gives every solver in the package a machine-readable
account of its own work — fixed-point iteration counts, VB2 ``nmax``
growth, MCMC acceptance rates, quadrature node counts — without
changing a single numerical result. Design constraints, in order:

1. **Zero overhead when disabled.** No collector is installed by
   default; every instrumentation site is a module-level function (or
   a span constructor) whose first action is a ``None`` check on the
   global collector. Hot loops accumulate into local variables and
   report once per solve.
2. **Determinism.** At the default ``"summary"`` level events carry no
   wall-clock, pid, or host fields, so a trace is a pure function of
   the inputs — which is what lets the campaign runners merge worker
   traces byte-identically to a serial run. Wall-clock durations appear
   only at the ``"timing"`` and ``"debug"`` levels.
3. **Aggregation over event spam.** Counters and histograms aggregate
   in memory (count/total/min/max/sum-of-squares plus fixed log-bucket
   counts); only spans, point events, and the final summary are
   materialised as events. They are the package's one telemetry store:
   per-fit solver health (VB2 ``nmax``, ELBOs, sandwich ``kappa``) is
   recorded here under its method's prefix, once.

Usage::

    from repro import obs

    with obs.span("vb2.fit", collect=True, data="FailureTimeData") as sp:
        ...
        obs.observe("vb2.nmax", nmax)
        telemetry = sp.telemetry()   # per-fit counter/histogram deltas

    with obs.tracing("trace.jsonl", level="timing"):
        fit_vb2(data, prior)         # events stream to the JSONL sink
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.obs.events import SCHEMA_VERSION, sanitise_value

__all__ = [
    "TRACE_LEVELS",
    "Histogram",
    "Collector",
    "enabled",
    "active",
    "counter_add",
    "observe",
    "event",
    "span",
    "timing_sample",
    "progress",
    "capture",
    "tracing",
    "traced_task",
]

#: Verbosity levels in increasing order. ``summary`` is deterministic
#: (no wall-clock); ``timing`` adds wall-clock durations; ``debug``
#: additionally records per-``N`` solve spans and growth-round events.
TRACE_LEVELS = ("summary", "timing", "debug")
_LEVEL_NUM = {name: i for i, name in enumerate(TRACE_LEVELS)}

_logger = logging.getLogger("repro.obs")

#: The ambient collector; ``None`` means telemetry is disabled.
_COLLECTOR: "Collector | None" = None


#: Fixed bucket grid: 4 log-spaced buckets per decade over [1e-9, 1e9)
#: (nanoseconds and tiny residuals up to large counts). Values outside
#: clamp into the edge buckets; the grid never adapts to the data, so
#: merging two histograms adds integer bucket counts.
BUCKETS_PER_DECADE = 4
_MIN_INDEX = -9 * BUCKETS_PER_DECADE
_MAX_INDEX = 9 * BUCKETS_PER_DECADE - 1


def bucket_index(value: float) -> int:
    """Grid bucket of a positive value (clamped into the edge buckets)."""
    idx = math.floor(math.log10(min(value, 1e9)) * BUCKETS_PER_DECADE)
    return min(max(idx, _MIN_INDEX), _MAX_INDEX)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``[lo, hi)`` bounds of one bucket of the grid."""
    return (10.0 ** (index / BUCKETS_PER_DECADE),
            10.0 ** ((index + 1) / BUCKETS_PER_DECADE))


class Histogram:
    """Streaming scalar aggregate: count, total, min, max, variance, and
    counts on the fixed log-bucket grid.

    Keeps the sum of squares and the bucket counts so that
    independently collected histograms merge (worker traces folding
    into a campaign trace); :meth:`summary` reads approximate
    quantiles off the buckets.
    """

    __slots__ = ("count", "total", "sumsq", "min", "max", "buckets",
                 "nonpos")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}
        self.nonpos = 0

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = bucket_index(value)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.nonpos += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the recorded values."""
        if self.count < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(max(self.sumsq / self.count - mean * mean, 0.0))

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution ``q``-quantile: the geometric midpoint of
        the bucket that holds it. ``None`` when the histogram is empty
        or holds a value that is not positive (<= 0 or NaN): log
        buckets order positive values only.
        """
        if not self.count or self.nonpos:
            return None
        target = q * self.count
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= target:
                break
        lo, hi = bucket_bounds(idx)
        return math.sqrt(lo * hi)

    def state(self) -> dict:
        """Mergeable state (for shipping across processes)."""
        return {
            "count": self.count,
            "total": self.total,
            "sumsq": self.sumsq,
            "min": self.min,
            "max": self.max,
            "buckets": dict(sorted(self.buckets.items())),
            "nonpos": self.nonpos,
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one."""
        self.count += int(state["count"])
        self.total += float(state["total"])
        self.sumsq += float(state["sumsq"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        for idx, count in state["buckets"].items():
            self.buckets[idx] = self.buckets.get(idx, 0) + count
        self.nonpos += int(state["nonpos"])

    def summary(self) -> dict:
        """JSON-ready summary for trace summary events."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


class _NoopSpan:
    """Shared do-nothing span handle for the disabled path."""

    __slots__ = ()
    collecting = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def telemetry(self) -> dict:
        return {}


_NOOP_SPAN = _NoopSpan()


class _Span:
    """Live span handle: times a region, records its outcome.

    With ``collect=True`` the span additionally scopes counter and
    histogram updates made while it is open, so a fit function can
    attach exactly its own telemetry to its result.
    """

    __slots__ = ("_collector", "name", "attrs", "collect", "_start",
                 "_counters", "_histograms")

    def __init__(self, collector: "Collector", name: str, attrs: dict,
                 collect: bool) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.collect = collect
        self._start = 0.0
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def collecting(self) -> bool:
        return self.collect

    def __enter__(self) -> "_Span":
        col = self._collector
        col._stack.append(self.name)
        if self.collect:
            col._collecting.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._start
        col = self._collector
        col._stack.pop()
        if self.collect:
            col._collecting.pop()
        status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        fields = dict(self.attrs)
        fields["name"] = self.name
        fields["depth"] = len(col._stack)
        fields["status"] = status
        if col.timing:
            fields["wall_s"] = wall
        col._record_span(self.name, status, wall)
        col.emit("span", **fields)
        return False

    def telemetry(self) -> dict:
        """Counters and histogram summaries recorded inside this span."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: self._histograms[k].summary()
                for k in sorted(self._histograms)
            },
        }


class Collector:
    """In-memory event collector with optional JSONL sink.

    Parameters
    ----------
    level:
        One of :data:`TRACE_LEVELS`.
    sink:
        Object with a ``write(event: dict)`` method (e.g.
        :class:`repro.obs.sink.JsonlSink`); events are streamed to it
        as they are emitted, in addition to being kept in memory.
    """

    def __init__(self, level: str = "summary", sink=None) -> None:
        if level not in _LEVEL_NUM:
            raise ValueError(
                f"level must be one of {TRACE_LEVELS}, got {level!r}"
            )
        self.level = level
        self._level_num = _LEVEL_NUM[level]
        self.sink = sink
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.span_stats: dict[str, dict] = {}
        self._stack: list[str] = []
        self._collecting: list[_Span] = []
        self._seq = 0

    # -- level helpers -------------------------------------------------
    @property
    def timing(self) -> bool:
        """True when wall-clock fields are recorded."""
        return self._level_num >= _LEVEL_NUM["timing"]

    @property
    def debug(self) -> bool:
        """True when per-iteration debug spans/events are recorded."""
        return self._level_num >= _LEVEL_NUM["debug"]

    def allows(self, level: str) -> bool:
        num = _LEVEL_NUM.get(level)
        if num is None:
            raise ValueError(
                f"unknown trace level {level!r}; expected one of "
                f"{TRACE_LEVELS}"
            )
        return num <= self._level_num

    # -- event plumbing ------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        """Append one event (and stream it to the sink, if any)."""
        ev: dict = {"kind": kind, "seq": self._seq}
        self._seq += 1
        for key, value in fields.items():
            ev[key] = sanitise_value(value)
        self.events.append(ev)
        if self.sink is not None:
            self.sink.write(ev)
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug("event %s", ev)
        return ev

    def _record_span(self, name: str, status: str, wall: float) -> None:
        stats = self.span_stats.get(name)
        if stats is None:
            stats = {"count": 0, "errors": 0}
            if self.timing:
                stats["wall_s"] = 0.0
            self.span_stats[name] = stats
        stats["count"] += 1
        if status != "ok":
            stats["errors"] += 1
        if self.timing:
            stats["wall_s"] = stats.get("wall_s", 0.0) + wall

    # -- metric primitives ---------------------------------------------
    def counter_add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        for span_handle in self._collecting:
            span_handle._counters[name] = (
                span_handle._counters.get(name, 0) + value
            )

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)
        for span_handle in self._collecting:
            scoped = span_handle._histograms.get(name)
            if scoped is None:
                scoped = span_handle._histograms[name] = Histogram()
            scoped.record(value)

    # -- summaries and cross-process merge -----------------------------
    def summary(self) -> dict:
        """Deterministic aggregate view of everything collected."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k].summary()
                for k in sorted(self.histograms)
            },
            "spans": {
                k: dict(self.span_stats[k]) for k in sorted(self.span_stats)
            },
        }

    def emit_summary(self) -> dict:
        """Emit the aggregate view as a ``summary`` event."""
        return self.emit("summary", **self.summary())

    def export(self) -> dict:
        """Serialisable payload for merging into a parent collector.

        Everything in the payload is plain Python data, so it crosses a
        process boundary by pickling without losing exactness (histogram
        merge uses the raw sums and bucket counts, not the derived
        mean/std/quantiles).
        """
        return {
            "events": list(self.events),
            "counters": dict(self.counters),
            "histograms": {
                name: hist.state() for name, hist in self.histograms.items()
            },
            "spans": {
                name: dict(stats) for name, stats in self.span_stats.items()
            },
        }

    def merge(self, payload: dict, *, rep: int | None = None) -> None:
        """Fold a child :meth:`export` payload into this collector.

        Events are re-emitted in their original order (re-sequenced by
        this collector), tagged with the replication key ``rep`` —
        the ``SeedSequence`` spawn key of the child's work item — so the
        merged trace is identical whether children ran serially or on a
        process pool, as long as they are merged in spawn-key order.
        """
        for ev in payload["events"]:
            fields = {k: v for k, v in ev.items() if k not in ("kind", "seq")}
            if rep is not None:
                fields["rep"] = rep
            self.emit(ev["kind"], **fields)
        for name, value in payload["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, state in payload["histograms"].items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_state(state)
        for name, stats in payload["spans"].items():
            mine = self.span_stats.get(name)
            if mine is None:
                mine = self.span_stats[name] = {"count": 0, "errors": 0}
            mine["count"] += stats["count"]
            mine["errors"] += stats["errors"]
            if "wall_s" in stats:
                mine["wall_s"] = mine.get("wall_s", 0.0) + stats["wall_s"]


# -- module-level API (all no-ops when no collector is installed) ------

def enabled() -> bool:
    """True when a collector is currently installed."""
    return _COLLECTOR is not None


def active() -> Collector | None:
    """The ambient collector, or ``None`` when telemetry is disabled."""
    return _COLLECTOR


def counter_add(name: str, value: float = 1) -> None:
    """Add to a named counter (no-op when telemetry is disabled)."""
    col = _COLLECTOR
    if col is not None:
        col.counter_add(name, value)


def observe(name: str, value: float) -> None:
    """Record one observation into a named histogram (no-op when off)."""
    col = _COLLECTOR
    if col is not None:
        col.observe(name, value)


def event(name: str, *, level: str = "summary", **attrs) -> None:
    """Emit a point event (no-op when disabled or below ``level``)."""
    col = _COLLECTOR
    if col is not None and col.allows(level):
        col.emit("point", name=name, **attrs)


def span(name: str, *, level: str = "summary", collect: bool = False,
         **attrs):
    """Open a nestable span; returns a context manager.

    When telemetry is disabled (or the collector's level is below
    ``level``) a shared no-op handle is returned, so the call costs one
    dictionary lookup and a comparison.
    """
    col = _COLLECTOR
    if col is None or not col.allows(level):
        return _NOOP_SPAN
    return _Span(col, name, attrs, collect)


def timing_sample(label: str, samples) -> None:
    """Emit a ``timing`` event for a wall-clock measurement.

    Only recorded at the ``timing`` level and above — wall-clock values
    are inherently non-deterministic and would break the byte-identity
    of campaign traces at the default level.
    """
    col = _COLLECTOR
    if col is None or not col.timing:
        return
    samples = [float(s) for s in samples]
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    col.emit(
        "timing",
        label=label,
        repeat=n,
        min_s=min(samples),
        mean_s=mean,
        std_s=math.sqrt(var),
    )


def progress(label: str, done: int, total: int, **extra) -> None:
    """Emit a campaign ``progress`` heartbeat event.

    Timing-level only: the *cadence* of heartbeats depends on the wall
    clock (they are rate-limited), so even rate-free progress events
    would make summary traces differ between serial and parallel runs.
    """
    col = _COLLECTOR
    if col is None or not col.timing:
        return
    col.emit("progress", label=label, done=int(done), total=int(total),
             **extra)


@contextmanager
def capture(level: str = "summary", sink=None) -> Iterator[Collector]:
    """Install a fresh collector for the duration of the block.

    The previous collector (possibly ``None``) is restored on exit, so
    captures nest: a campaign worker can capture its replication's
    telemetry while the parent process is itself tracing.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    collector = Collector(level=level, sink=sink)
    _COLLECTOR = collector
    try:
        yield collector
    finally:
        _COLLECTOR = previous


@contextmanager
def tracing(path, level: str = "summary", **meta) -> Iterator[Collector]:
    """Capture telemetry and stream it to a JSONL trace file.

    Writes a ``meta`` header event first, then — after the block — a
    ``summary`` event (the aggregated counters/histograms/span stats),
    then closes the file. ``meta`` keyword arguments land in the header
    event.
    """
    from repro.obs.sink import JsonlSink

    sink = JsonlSink(path)
    try:
        with capture(level=level, sink=sink) as collector:
            collector.emit("meta", schema=SCHEMA_VERSION, level=level, **meta)
            yield collector
            collector.emit_summary()
    finally:
        sink.close()


def traced_task(fn: Callable, level: str, item):
    """Run ``fn(item)`` under a fresh capture; return ``(result, export)``.

    Module-level and picklable (given a picklable ``fn``), so campaign
    runners can fan it out over a process pool and merge the exported
    payloads deterministically in spawn-key order.
    """
    with capture(level=level) as collector:
        result = fn(item)
    return result, collector.export()
