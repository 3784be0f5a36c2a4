"""Render cost/convergence tables from a telemetry trace.

``repro report <trace.jsonl>`` turns the machine-readable trace into
the human-readable companion of the paper's computation-cost tables:
per-method fit counts, failure counts, and wall-clock (when the trace
was recorded at the ``timing`` level or above), plus the solver
convergence histograms (fixed-point iterations, VB2 ``nmax``, MCMC
acceptance, ...) and raw counters. ``--format json`` returns the same
summary machine-readable (:func:`summarise_report`); ``--metrics`` and
``--profile`` add the labeled metrics snapshot and the aggregated span
call tree.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = [
    "render_report",
    "render_metrics",
    "summarise_report",
    "method_of",
]

#: Span/metric name prefixes attributed to each posterior method, in
#: the paper's method order; everything else lands under its own
#: top-level prefix (e.g. ``rootfind``, ``sbc``).
_METHOD_PREFIXES = {
    "nint": "NINT",
    "laplace": "LAPL",
    "mcmc": "MCMC",
    "vb1": "VB1",
    "vb2": "VB2",
    "mle": "MLE",
}


def method_of(name: str) -> str:
    """Method label for a dotted span/metric name."""
    prefix = name.split(".", 1)[0]
    return _METHOD_PREFIXES.get(prefix, prefix)


def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i])
                      for i, cell in enumerate(row)).rstrip()
        )
    return lines


def _num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def _method_costs(span_stats: dict) -> dict[str, dict]:
    """Aggregate span stats per posterior method, in paper order."""
    by_method: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "errors": 0, "wall_s": 0.0, "timed": False}
    )
    for name, stats in span_stats.items():
        agg = by_method[method_of(name)]
        agg["count"] += stats.get("count", 0)
        agg["errors"] += stats.get("errors", 0)
        if "wall_s" in stats:
            agg["wall_s"] += stats["wall_s"]
            agg["timed"] = True
    order = list(_METHOD_PREFIXES.values())
    return {
        method: by_method[method]
        for method in sorted(
            by_method,
            key=lambda m: (order.index(m) if m in order else len(order), m),
        )
    }


def render_report(events: list[dict]) -> str:
    """Build the full text report from a list of trace events."""
    meta = events[0] if events and events[0].get("kind") == "meta" else {}
    summaries = [e for e in events if e.get("kind") == "summary"]
    summary = summaries[-1] if summaries else {
        "counters": {}, "histograms": {}, "spans": {}
    }
    spans = [e for e in events if e.get("kind") == "span"]
    points = [e for e in events if e.get("kind") == "point"]
    timings = [e for e in events if e.get("kind") == "timing"]
    reps = {e["rep"] for e in events if "rep" in e}

    lines = []
    level = meta.get("level", "?")
    header = f"telemetry report — {len(events)} events, level {level}"
    if meta.get("command"):
        header += f", command {meta['command']}"
    lines.append(header)
    if reps:
        lines.append(
            f"replications merged: {len(reps)} "
            f"(spawn keys {min(reps)}..{max(reps)})"
        )
    lines.append("")

    # Per-method cost table from the aggregated span stats.
    span_stats = summary.get("spans", {})
    if span_stats:
        rows = []
        for method, agg in _method_costs(span_stats).items():
            wall = f"{agg['wall_s']:.4f}" if agg["timed"] else "-"
            mean = (
                f"{agg['wall_s'] / agg['count']:.4f}"
                if agg["timed"] and agg["count"]
                else "-"
            )
            rows.append(
                [method, str(agg["count"]), str(agg["errors"]), wall, mean]
            )
        lines.append("## cost per method (spans)")
        lines += _format_table(
            ["method", "spans", "errors", "total s", "mean s"], rows
        )
        lines.append("")

    # Convergence table from histograms.
    histograms = summary.get("histograms", {})
    if histograms:
        rows = [
            [
                name,
                str(hist["count"]),
                _num(hist["mean"]),
                _num(hist["std"]),
                _num(hist["min"]),
                _num(hist["max"]),
            ]
            for name, hist in sorted(histograms.items())
        ]
        lines.append("## convergence metrics (histograms)")
        lines += _format_table(
            ["metric", "count", "mean", "std", "min", "max"], rows
        )
        lines.append("")

    counters = summary.get("counters", {})
    if counters:
        rows = [[name, _num(value)] for name, value in sorted(counters.items())]
        lines.append("## counters")
        lines += _format_table(["counter", "value"], rows)
        lines.append("")

    if timings:
        rows = [
            [
                t.get("label") or "(unlabelled)",
                str(t["repeat"]),
                f"{t['min_s']:.4f}",
                f"{t['mean_s']:.4f}",
                f"{t['std_s']:.4f}",
            ]
            for t in timings
        ]
        lines.append("## wall-clock timings")
        lines += _format_table(
            ["label", "repeat", "min s", "mean s", "std s"], rows
        )
        lines.append("")

    failures = [
        p for p in points
        if p.get("name", "").endswith((".divergence", ".failure", ".failed"))
    ]
    if failures:
        lines.append("## failure events")
        for p in failures:
            attrs = {
                k: v for k, v in p.items()
                if k not in ("kind", "seq", "name")
            }
            lines.append(f"  {p['name']}  {attrs}")
        lines.append("")
    error_spans = [s for s in spans if s.get("status", "ok") != "ok"]
    if error_spans:
        lines.append("## failed spans")
        for s in error_spans:
            rep = f" rep={s['rep']}" if "rep" in s else ""
            lines.append(f"  {s['name']}  {s['status']}{rep}")
        lines.append("")

    if len(lines) <= 2:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines).rstrip() + "\n"


def _last_metrics(events: list[dict]) -> dict | None:
    snapshots = [e for e in events if e.get("kind") == "metrics"]
    return snapshots[-1] if snapshots else None


def render_metrics(events: list[dict]) -> str:
    """Text rendering of the trace's labeled metrics snapshot."""
    snapshot = _last_metrics(events)
    if snapshot is None:
        return "metrics: no snapshot recorded\n"
    lines = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [[key, _num(value)] for key, value in sorted(counters.items())]
        lines.append("## metric counters")
        lines += _format_table(["counter", "value"], rows)
        lines.append("")
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [
            [key, _num(gauge["value"]), str(gauge["updates"])]
            for key, gauge in sorted(gauges.items())
        ]
        lines.append("## metric gauges (last write)")
        lines += _format_table(["gauge", "value", "updates"], rows)
        lines.append("")
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for key, hist in sorted(histograms.items()):
            quantiles = [
                _num(hist[q]) if hist.get(q) is not None else "-"
                for q in ("p50", "p90", "p99")
            ]
            rows.append(
                [key, str(hist["count"]), _num(hist["mean"]),
                 _num(hist["min"]), _num(hist["max"]), *quantiles]
            )
        lines.append("## metric histograms (log buckets)")
        lines += _format_table(
            ["histogram", "count", "mean", "min", "max", "~p50", "~p90",
             "~p99"],
            rows,
        )
        lines.append("")
    if not lines:
        return "metrics: snapshot is empty\n"
    return "\n".join(lines).rstrip() + "\n"


def summarise_report(events: list[dict]) -> dict:
    """Machine-readable counterpart of :func:`render_report`.

    The returned dict is plain JSON-compatible data: trace header
    fields, the per-method cost table, the final summary (counters,
    histograms, span stats), the labeled metrics snapshot (when one
    was recorded), wall-clock timings, and failure events.
    """
    meta = events[0] if events and events[0].get("kind") == "meta" else {}
    summaries = [e for e in events if e.get("kind") == "summary"]
    summary = summaries[-1] if summaries else {
        "counters": {}, "histograms": {}, "spans": {}
    }
    spans = [e for e in events if e.get("kind") == "span"]
    points = [e for e in events if e.get("kind") == "point"]
    timings = [e for e in events if e.get("kind") == "timing"]
    reps = sorted({e["rep"] for e in events if "rep" in e})

    methods = {}
    for method, agg in _method_costs(summary.get("spans", {})).items():
        entry = {"spans": agg["count"], "errors": agg["errors"]}
        if agg["timed"]:
            entry["wall_s"] = agg["wall_s"]
            if agg["count"]:
                entry["mean_s"] = agg["wall_s"] / agg["count"]
        methods[method] = entry

    metrics = _last_metrics(events)
    if metrics is not None:
        metrics = {
            k: v for k, v in metrics.items() if k not in ("kind", "seq")
        }

    return {
        "events": len(events),
        "schema": meta.get("schema"),
        "level": meta.get("level"),
        "command": meta.get("command"),
        "replications": (
            {"count": len(reps), "min": reps[0], "max": reps[-1]}
            if reps else None
        ),
        "methods": methods,
        "counters": dict(sorted(summary.get("counters", {}).items())),
        "histograms": dict(sorted(summary.get("histograms", {}).items())),
        "spans": dict(sorted(summary.get("spans", {}).items())),
        "metrics": metrics,
        "timings": [
            {k: v for k, v in t.items() if k not in ("kind", "seq")}
            for t in timings
        ],
        "failures": {
            "points": [
                {k: v for k, v in p.items() if k not in ("kind", "seq")}
                for p in points
                if p.get("name", "").endswith(
                    (".divergence", ".failure", ".failed")
                )
            ],
            "spans": [
                {k: v for k, v in s.items() if k not in ("kind", "seq")}
                for s in spans if s.get("status", "ok") != "ok"
            ],
        },
    }
