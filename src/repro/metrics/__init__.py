"""Comparison metrics and table rendering for the experiment harness."""

from repro.metrics.comparison import relative_deviation, deviation_table
from repro.metrics.tables import render_table, format_value
from repro.metrics.timing import time_callable, TimingRecord
from repro.metrics.coverage import CoverageResult, interval_coverage_study

__all__ = [
    "relative_deviation",
    "deviation_table",
    "render_table",
    "format_value",
    "time_callable",
    "TimingRecord",
    "CoverageResult",
    "interval_coverage_study",
]
