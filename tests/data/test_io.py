"""Tests for CSV/JSON data I/O round-trips."""

import numpy as np
import pytest

from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.data.io import (
    load_failure_times_csv,
    load_grouped_csv,
    load_json,
    save_failure_times_csv,
    save_grouped_csv,
    save_json,
)
from repro.exceptions import DataValidationError


class TestCsvRoundTrip:
    def test_failure_times(self, tmp_path):
        original = system17_failure_times()
        path = tmp_path / "times.csv"
        save_failure_times_csv(original, path)
        loaded = load_failure_times_csv(path, horizon=original.horizon)
        assert np.array_equal(loaded.times, original.times)
        assert loaded.horizon == original.horizon

    def test_grouped(self, tmp_path):
        original = system17_grouped()
        path = tmp_path / "grouped.csv"
        save_grouped_csv(original, path)
        loaded = load_grouped_csv(path)
        assert np.array_equal(loaded.counts, original.counts)
        assert np.array_equal(loaded.boundaries, original.boundaries)

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time\n1.5\n2.5\n")
        loaded = load_failure_times_csv(path)
        assert loaded.times.tolist() == [1.5, 2.5]

    def test_garbage_mid_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5\nhello\n")
        with pytest.raises(DataValidationError):
            load_failure_times_csv(path)

    def test_grouped_needs_two_columns(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0\n")
        with pytest.raises(DataValidationError):
            load_grouped_csv(path)

    def test_empty_file_times(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        loaded = load_failure_times_csv(path, horizon=5.0)
        assert loaded.count == 0
        assert loaded.horizon == 5.0

    def test_header_only_file_times(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time\n")
        loaded = load_failure_times_csv(path, horizon=5.0)
        assert loaded.count == 0

    def test_second_header_line_rejected(self, tmp_path):
        # Regression: only ONE header line is allowed. Previously every
        # non-numeric row before the first data row was swallowed, so a
        # typo'd value in an early row simply vanished.
        path = tmp_path / "x.csv"
        path.write_text("time\noops\n1.5\n2.5\n")
        with pytest.raises(DataValidationError):
            load_failure_times_csv(path)

    def test_grouped_second_header_line_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("boundary,count\ntypo,3\n1.0,2\n")
        with pytest.raises(DataValidationError):
            load_grouped_csv(path)

    def test_grouped_header_then_data(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("boundary,count\n1.0,2\n2.0,0\n")
        loaded = load_grouped_csv(path)
        assert loaded.counts.tolist() == [2, 0]
        assert loaded.boundaries.tolist() == [1.0, 2.0]

    def test_grouped_garbage_after_data_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0,2\nwhat,1\n")
        with pytest.raises(DataValidationError):
            load_grouped_csv(path)

    @pytest.mark.parametrize("cell", ["2.7", "nan", "inf"])
    def test_grouped_invalid_count_rejected(self, tmp_path, cell):
        # Regression: counts were read with int(float(cell)), so 2.7
        # loaded as 2 and nan/inf escaped as ValueError/OverflowError.
        path = tmp_path / "g.csv"
        path.write_text(f"boundary,count\n1.0,{cell}\n2.0,3\n")
        with pytest.raises(DataValidationError):
            load_grouped_csv(path)

    def test_grouped_non_numeric_count_names_file_and_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("boundary,count\n1.0,2\n2.0,abc\n")
        with pytest.raises(DataValidationError, match=r"'abc' in .*g\.csv \(line 3\)"):
            load_grouped_csv(path)

    def test_blank_lines_still_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time\n\n1.5\n\n2.5\n")
        loaded = load_failure_times_csv(path)
        assert loaded.times.tolist() == [1.5, 2.5]


class TestJsonRoundTrip:
    def test_failure_times(self, tmp_path):
        original = FailureTimeData([1.0, 2.5], horizon=7.0, unit="hours")
        path = tmp_path / "d.json"
        save_json(original, path)
        loaded = load_json(path)
        assert isinstance(loaded, FailureTimeData)
        assert np.array_equal(loaded.times, original.times)
        assert loaded.horizon == 7.0
        assert loaded.unit == "hours"

    def test_grouped(self, tmp_path):
        original = GroupedData(counts=[1, 0, 4], boundaries=[1.0, 2.0, 3.5])
        path = tmp_path / "g.json"
        save_json(original, path)
        loaded = load_json(path)
        assert isinstance(loaded, GroupedData)
        assert np.array_equal(loaded.counts, original.counts)
        assert np.array_equal(loaded.boundaries, original.boundaries)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(DataValidationError):
            load_json(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"kind": ', "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"kind": "grouped", "counts": [1]}', "'boundaries'"),
            ('{"kind": "failure_times"}', "'times'"),
        ],
        ids=["invalid-json", "not-an-object", "missing-boundaries",
             "missing-times"],
    )
    def test_malformed_document_rejected(self, tmp_path, text, match):
        # Regression: these escaped as JSONDecodeError, AttributeError
        # and KeyError.
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DataValidationError, match=match):
            load_json(path)

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_json("not data", tmp_path / "x.json")
