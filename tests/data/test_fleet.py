"""Lane-major portfolio packing and the fleet manifest loader."""

import json

import numpy as np
import pytest
from scipy import special as sc

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.data.fleet import load_fleet_manifest, pack_grouped, pack_times
from repro.data.io import save_failure_times_csv, save_grouped_csv, save_json
from repro.exceptions import DataValidationError


@pytest.fixture
def times_pair():
    return [
        FailureTimeData([1.0, 4.0, 9.0], horizon=12.0),
        FailureTimeData([0.5, 2.5], horizon=6.0),
    ]


@pytest.fixture
def grouped_pair():
    return [
        GroupedData([3, 0, 2], [2.0, 5.0, 9.0]),
        GroupedData([1, 4], [1.0, 3.0]),
    ]


class TestPackTimes:
    def test_columnar_statistics(self, times_pair):
        packed = pack_times(times_pair)
        assert len(packed) == 2
        assert list(packed.me) == [3.0, 2.0]
        assert packed.me.dtype == np.float64
        assert list(packed.sum_times) == [d.total_time for d in times_pair]
        assert list(packed.sum_log_times) == [d.sum_log_times for d in times_pair]
        assert list(packed.horizon) == [12.0, 6.0]

    def test_rejects_wrong_kind(self, grouped_pair):
        with pytest.raises(TypeError, match="dataset 0"):
            pack_times(grouped_pair)


class TestPackGrouped:
    def test_lane_major_occupied_intervals(self, grouped_pair):
        packed = pack_grouped(grouped_pair)
        assert len(packed) == 2
        # Dataset 0 has a zero-count interval: only occupied intervals
        # pack, ascending within the dataset, datasets in order.
        assert list(packed.offsets) == [0, 2, 4]
        assert list(packed.interval_lo) == [0.0, 5.0, 0.0, 1.0]
        assert list(packed.interval_hi) == [2.0, 9.0, 1.0, 3.0]
        assert list(packed.interval_count) == [3.0, 2.0, 1.0, 4.0]
        assert packed.interval_count.dtype == np.float64
        assert list(packed.total) == [5.0, 5.0]
        assert list(packed.horizon) == [9.0, 3.0]

    def test_scalar_statistics_match_per_count_loop(self, grouped_pair):
        packed = pack_grouped(grouped_pair)
        for i, data in enumerate(grouped_pair):
            counts = np.asarray(data.counts, dtype=np.int64)
            # The vectorised sum gives the same float as one gammaln
            # call per count, summed as a list.
            assert packed.sum_log_count_factorials[i] == float(
                np.sum([float(sc.gammaln(int(c) + 1.0)) for c in counts])
            )
            edges = data.interval_edges()
            assert packed.seed_dot[i] == float(np.dot(counts, edges[1:]))

    def test_log_factorials_are_gammaln(self):
        data = GroupedData([4, 7], [1.0, 2.0])
        packed = pack_grouped([data])
        expected = float(sc.gammaln(5.0) + sc.gammaln(8.0))
        assert packed.sum_log_count_factorials[0] == expected

    def test_rejects_wrong_kind(self, times_pair):
        with pytest.raises(TypeError, match="dataset 1"):
            pack_grouped([GroupedData([1], [1.0]), times_pair[0]])


class TestManifestLoader:
    def test_loads_all_kinds_with_defaults(self, tmp_path, times_pair, grouped_pair):
        save_failure_times_csv(times_pair[0], tmp_path / "a.csv")
        save_grouped_csv(grouped_pair[0], tmp_path / "b.csv")
        save_json(times_pair[1], tmp_path / "c.json")
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({
            "defaults": {"horizon": 12.0},
            "datasets": [
                "a.csv",
                {"path": "b.csv", "kind": "grouped"},
                {"path": "c.json"},
            ],
        }))
        loaded = load_fleet_manifest(manifest)
        assert loaded[0] == times_pair[0]
        assert loaded[1] == grouped_pair[0]
        assert loaded[2] == times_pair[1]

    def test_relative_paths_resolve_against_manifest(self, tmp_path, times_pair):
        sub = tmp_path / "projects"
        sub.mkdir()
        save_failure_times_csv(times_pair[0], sub / "a.csv")
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({
            "datasets": [{"path": "projects/a.csv", "horizon": 12.0}],
        }))
        assert load_fleet_manifest(manifest) == [times_pair[0]]

    def test_invalid_json(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text("{not json")
        with pytest.raises(DataValidationError, match="not valid JSON"):
            load_fleet_manifest(manifest)

    def test_missing_datasets_list(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({"defaults": {}}))
        with pytest.raises(DataValidationError, match="datasets"):
            load_fleet_manifest(manifest)
        manifest.write_text(json.dumps({"datasets": []}))
        with pytest.raises(DataValidationError, match="non-empty"):
            load_fleet_manifest(manifest)

    def test_entry_without_path(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({"datasets": [{"kind": "times"}]}))
        with pytest.raises(DataValidationError, match="entry 0 needs a 'path'"):
            load_fleet_manifest(manifest)

    def test_unknown_kind(self, tmp_path, times_pair):
        save_failure_times_csv(times_pair[0], tmp_path / "a.csv")
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({
            "datasets": [{"path": "a.csv", "kind": "parquet"}],
        }))
        with pytest.raises(DataValidationError, match="unknown kind 'parquet'"):
            load_fleet_manifest(manifest)
