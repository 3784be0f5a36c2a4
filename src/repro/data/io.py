"""Loading and saving failure data as CSV or JSON.

Formats
-------
Failure-time CSV: a single ``time`` column (one failure per row); the
horizon travels in the JSON sidecar or is passed explicitly.

Grouped CSV: ``boundary,count`` columns, one interval per row.

JSON: a tagged document ``{"kind": "failure_times" | "grouped", ...}``
that round-trips every field including the unit and horizon.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import DataValidationError

__all__ = [
    "load_failure_times_csv",
    "save_failure_times_csv",
    "load_grouped_csv",
    "save_grouped_csv",
    "load_json",
    "save_json",
]


def load_failure_times_csv(
    path: str | Path,
    *,
    horizon: float | None = None,
    unit: str = "seconds",
) -> FailureTimeData:
    """Read one failure time per row (at most one header line).

    Only the *first* non-numeric row is treated as a header; any later
    non-numeric value raises :class:`DataValidationError` instead of
    silently vanishing (a typo'd reading in row 3 of a headerless file
    must not be swallowed as "another header").
    """
    times: list[float] = []
    header_seen = False
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                times.append(float(row[0]))
            except ValueError:
                if header_seen or times:
                    raise DataValidationError(
                        f"non-numeric value {row[0]!r} in {path} "
                        f"(only one header line is allowed)"
                    )
                header_seen = True  # the single permitted header line
    return FailureTimeData(np.asarray(times), horizon=horizon, unit=unit)


def save_failure_times_csv(data: FailureTimeData, path: str | Path) -> None:
    """Write one failure time per row with a ``time`` header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"])
        for t in data.times:
            writer.writerow([repr(float(t))])


def load_grouped_csv(path: str | Path, *, unit: str = "days") -> GroupedData:
    """Read ``boundary,count`` rows (at most one header line).

    Mirrors :func:`load_failure_times_csv`: only the first non-numeric
    row can be a header, every later one raises
    :class:`DataValidationError` so malformed rows never vanish. Counts
    are read as floats and validated by :class:`GroupedData`, so a
    fractional, infinite or NaN count is rejected, never truncated.
    """
    boundaries: list[float] = []
    counts: list[float] = []
    header_seen = False
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            try:
                boundary = float(row[0])
            except ValueError:
                if header_seen or boundaries:
                    raise DataValidationError(
                        f"non-numeric value {row[0]!r} in {path} "
                        f"(only one header line is allowed)"
                    )
                header_seen = True  # the single permitted header line
                continue
            if len(row) < 2:
                raise DataValidationError(f"grouped CSV row needs two columns: {row}")
            try:
                counts.append(float(row[1]))
            except ValueError:
                raise DataValidationError(
                    f"non-numeric count {row[1]!r} in {path} (line {line})"
                ) from None
            boundaries.append(boundary)
    return GroupedData(counts=counts, boundaries=boundaries, unit=unit)


def save_grouped_csv(data: GroupedData, path: str | Path) -> None:
    """Write ``boundary,count`` rows with a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary", "count"])
        for boundary, count in zip(data.boundaries, data.counts):
            writer.writerow([repr(float(boundary)), int(count)])


def save_json(data: FailureTimeData | GroupedData, path: str | Path) -> None:
    """Serialise either data kind to a tagged JSON document."""
    if isinstance(data, FailureTimeData):
        doc = {
            "kind": "failure_times",
            "times": [float(t) for t in data.times],
            "horizon": data.horizon,
            "unit": data.unit,
        }
    elif isinstance(data, GroupedData):
        doc = {
            "kind": "grouped",
            "counts": [int(c) for c in data.counts],
            "boundaries": [float(b) for b in data.boundaries],
            "unit": data.unit,
        }
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")
    Path(path).write_text(json.dumps(doc, indent=2))


def load_json(path: str | Path) -> FailureTimeData | GroupedData:
    """Load a tagged JSON document written by :func:`save_json`.

    Invalid JSON, a document that is not an object, and a missing
    field all raise :class:`DataValidationError` naming the file.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise DataValidationError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise DataValidationError(
            f"{path} must hold a JSON object, got {type(doc).__name__}"
        )
    kind = doc.get("kind")
    try:
        if kind == "failure_times":
            return FailureTimeData(
                np.asarray(doc["times"], dtype=float),
                horizon=doc.get("horizon"),
                unit=doc.get("unit", "seconds"),
            )
        if kind == "grouped":
            return GroupedData(
                counts=doc["counts"],
                boundaries=doc["boundaries"],
                unit=doc.get("unit", "days"),
            )
    except KeyError as err:
        raise DataValidationError(
            f"{kind} document {path} is missing the field {err}"
        ) from None
    raise DataValidationError(f"unknown data kind {kind!r} in {path}")
