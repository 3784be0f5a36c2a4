"""Failure-data containers, bundled datasets, simulators and I/O."""

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.data.simulation import (
    simulate_failure_times,
    simulate_grouped,
    simulate_nhpp_thinning,
)
from repro.data.datasets import (
    system17_failure_times,
    system17_grouped,
    ntds_failure_times,
    dataset_registry,
)
from repro.data.fleet import (
    FleetGroupedStats,
    FleetTimesStats,
    load_fleet_manifest,
    pack_grouped,
    pack_times,
)

__all__ = [
    "FleetTimesStats",
    "FleetGroupedStats",
    "pack_times",
    "pack_grouped",
    "load_fleet_manifest",
    "FailureTimeData",
    "GroupedData",
    "simulate_failure_times",
    "simulate_grouped",
    "simulate_nhpp_thinning",
    "system17_failure_times",
    "system17_grouped",
    "ntds_failure_times",
    "dataset_registry",
]
