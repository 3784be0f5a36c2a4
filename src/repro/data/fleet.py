"""Lane-major packing of whole project portfolios.

Fleet fitting (:mod:`repro.core.fleet`) sweeps thousands of projects'
failure histories through one vectorized solve. This module owns the
data side of that: packing ragged per-project histories into the
flat lane-major arrays the dataset-lane solvers consume, value-based
deduplication of repeated histories, and the JSON manifest format the
CLI's ``repro fit --fleet`` reads.

The packed layout follows the ragged-stream convention of
:mod:`repro.stats.uniforms`: per-dataset segments concatenate
lane-major into one flat array, with ``offsets`` delimiting each
dataset's slice (``offsets[i]:offsets[i+1]``). For grouped data the
flattened elements are the *occupied* observation intervals in
ascending order, so every lane's interval sum runs left to right
whatever other datasets share a sweep — which is what keeps fleet
sums bit-identical to single fits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.data.io import load_failure_times_csv, load_grouped_csv, load_json
from repro.exceptions import DataValidationError

__all__ = [
    "FleetTimesStats",
    "FleetGroupedStats",
    "pack_times",
    "pack_grouped",
    "dedupe_datasets",
    "load_fleet_manifest",
]


@dataclass(frozen=True)
class FleetTimesStats:
    """Per-dataset sufficient statistics of failure-time data, packed
    columnar: element ``i`` of every array belongs to dataset ``i``.

    Mirrors :class:`repro.core.gamma_updates.TimesStats` with the
    dataset axis vectorized (``me`` as float so lane arithmetic needs
    no casts; the counts are exact in float64).
    """

    me: np.ndarray
    sum_times: np.ndarray
    sum_log_times: np.ndarray
    horizon: np.ndarray

    def __len__(self) -> int:
        return self.me.size


@dataclass(frozen=True)
class FleetGroupedStats:
    """Per-dataset grouped-data statistics with the ragged interval
    structure flattened dataset-major.

    Attributes
    ----------
    total:
        Observed failure count per dataset (float64, exact).
    horizon:
        Right edge of each dataset's last interval.
    seed_dot:
        ``float(np.dot(counts, edges[1:]))`` per dataset — every
        observed failure at its interval's right edge, the VB2
        solver's bracket seed.
    sum_log_count_factorials:
        ``Σ_i ln(x_i!)`` per dataset (the ELBO constant's data term).
    offsets:
        ``(D+1,)`` — dataset ``i``'s occupied intervals are
        ``interval_*[offsets[i]:offsets[i+1]]``.
    interval_lo, interval_hi, interval_count:
        Flattened occupied intervals (``count > 0`` only), ascending
        within each dataset. Counts are float64 (exact).
    """

    total: np.ndarray
    horizon: np.ndarray
    seed_dot: np.ndarray
    sum_log_count_factorials: np.ndarray
    offsets: np.ndarray
    interval_lo: np.ndarray
    interval_hi: np.ndarray
    interval_count: np.ndarray

    def __len__(self) -> int:
        return self.total.size

    def interval_counts_per_dataset(self) -> np.ndarray:
        """Number of occupied intervals per dataset."""
        return np.diff(self.offsets)


def pack_times(datasets) -> FleetTimesStats:
    """Pack failure-time datasets into columnar per-dataset statistics."""
    datasets = list(datasets)
    for i, data in enumerate(datasets):
        if not isinstance(data, FailureTimeData):
            raise TypeError(
                f"dataset {i}: expected FailureTimeData, "
                f"got {type(data).__name__}"
            )
    return FleetTimesStats(
        me=np.array([float(d.count) for d in datasets]),
        sum_times=np.array([d.total_time for d in datasets]),
        sum_log_times=np.array([d.sum_log_times for d in datasets]),
        horizon=np.array([d.horizon for d in datasets]),
    )


def pack_grouped(datasets) -> FleetGroupedStats:
    """Pack grouped datasets, flattening the ragged interval structure
    dataset-major (occupied intervals only, in ascending order)."""
    datasets = list(datasets)
    lo_parts, hi_parts, count_parts = [], [], []
    totals, horizons, seed_dots, logfacts = [], [], [], []
    sizes = []
    for i, data in enumerate(datasets):
        if not isinstance(data, GroupedData):
            raise TypeError(
                f"dataset {i}: expected GroupedData, "
                f"got {type(data).__name__}"
            )
        counts = np.asarray(data.counts, dtype=np.int64)
        edges = data.interval_edges()
        occupied = counts > 0
        lo_parts.append(edges[:-1][occupied])
        hi_parts.append(edges[1:][occupied])
        count_parts.append(counts[occupied].astype(float))
        sizes.append(int(occupied.sum()))
        totals.append(float(counts.sum()))
        horizons.append(data.horizon)
        seed_dots.append(float(np.dot(counts, edges[1:])))
        logfacts.append(
            float(np.sum([_log_factorial_int(int(c)) for c in counts]))
        )
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    return FleetGroupedStats(
        total=np.array(totals),
        horizon=np.array(horizons),
        seed_dot=np.array(seed_dots),
        sum_log_count_factorials=np.array(logfacts),
        offsets=offsets,
        interval_lo=_concat(lo_parts),
        interval_hi=_concat(hi_parts),
        interval_count=_concat(count_parts),
    )


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0)


def _log_factorial_int(n: int) -> float:
    # GroupedStats.from_data computes this through
    # repro.stats.special.log_factorial; inlined via the scipy.special
    # shim (imported lazily, so loading the data layer does not load
    # the stats package) while producing the same gammaln(n + 1) float.
    from repro.stats import scipy_special as sc

    return float(sc.gammaln(n + 1.0))


def dedupe_datasets(datasets):
    """Collapse value-equal datasets, returning ``(unique, index)``.

    ``unique`` preserves first-seen order; ``index[i]`` maps dataset
    ``i`` of the input to its representative in ``unique``. Relies on
    the value-based ``__eq__``/``__hash__`` of the data containers, so
    byte-identical histories loaded from different files collapse too.
    Fleet callers fit only the unique histories and fan results back
    out through ``index``.
    """
    datasets = list(datasets)
    unique = []
    seen: dict = {}
    index = np.empty(len(datasets), dtype=np.intp)
    for i, data in enumerate(datasets):
        j = seen.get(data)
        if j is None:
            j = len(unique)
            seen[data] = j
            unique.append(data)
        index[i] = j
    return unique, index


def load_fleet_manifest(path):
    """Load a portfolio manifest: a JSON document listing datasets.

    Format::

        {
          "defaults": {"kind": "times", "unit": "seconds"},
          "datasets": [
            {"path": "projects/a.csv", "kind": "times", "horizon": 120.0},
            {"path": "projects/b.csv", "kind": "grouped"},
            {"path": "projects/c.json"},
            "projects/d.csv"
          ]
        }

    Entries are dataset file paths (relative paths resolve against the
    manifest's directory) with optional per-entry overrides; plain
    strings are shorthand for ``{"path": ...}``. ``kind`` selects the
    loader: ``"times"`` (CSV, optional ``horizon``/``unit``),
    ``"grouped"`` (CSV, optional ``unit``), or ``"json"`` (tagged
    documents from :func:`repro.data.io.save_json`; the default when
    the path ends in ``.json``, otherwise ``"times"``).

    Returns the list of loaded data objects in manifest order.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise DataValidationError(f"manifest {path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or "datasets" not in doc:
        raise DataValidationError(
            f"manifest {path} must be an object with a 'datasets' list"
        )
    entries = doc["datasets"]
    if not isinstance(entries, list) or not entries:
        raise DataValidationError(
            f"manifest {path} needs a non-empty 'datasets' list"
        )
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise DataValidationError(f"manifest {path}: 'defaults' must be an object")

    datasets = []
    for i, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"path": entry}
        if not isinstance(entry, dict) or "path" not in entry:
            raise DataValidationError(
                f"manifest {path}: entry {i} needs a 'path'"
            )
        spec = {**defaults, **entry}
        data_path = Path(spec["path"])
        if not data_path.is_absolute():
            data_path = path.parent / data_path
        kind = spec.get(
            "kind", "json" if data_path.suffix == ".json" else "times"
        )
        if kind == "times":
            data = load_failure_times_csv(
                data_path,
                horizon=spec.get("horizon"),
                unit=spec.get("unit", "seconds"),
            )
        elif kind == "grouped":
            data = load_grouped_csv(data_path, unit=spec.get("unit", "days"))
        elif kind == "json":
            data = load_json(data_path)
        else:
            raise DataValidationError(
                f"manifest {path}: entry {i} has unknown kind {kind!r} "
                f"(expected 'times', 'grouped' or 'json')"
            )
        datasets.append(data)
    return datasets
