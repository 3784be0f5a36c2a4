"""Property tests: merging per-replication telemetry in order gives what
one collector that saw every value records.

Campaign runners (:func:`repro.validation.parallel.campaign_map`) merge
every replication's exported collector into the parent in replication
order, on the serial path and the pool path alike. These properties pin
what that merge keeps: counts, minima, maxima and the log-bucket counts
(hence the approximate quantiles) exactly; the float sums exactly
wherever the arithmetic is exact — integer-valued observations such as
iteration counts and ``nmax`` — and to rounding otherwise, because a
merge adds each replication's subtotal where one collector adds the
values one by one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.core import Histogram

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e12,
    max_value=1e12,
)
counts = st.integers(min_value=-10**6, max_value=10**6)
value_lists = st.lists(finite_floats, max_size=30)
#: Replications, each a list of observations of one histogram.
replications = st.lists(st.lists(finite_floats, max_size=8), max_size=8)
integer_replications = st.lists(st.lists(counts, max_size=8), max_size=8)


def _hist_of(values):
    hist = Histogram()
    for v in values:
        hist.record(v)
    return hist


def _merged_and_direct(reps):
    """Per-replication collectors merged in order, and one collector
    that recorded every value in the same order."""
    with obs.capture() as parent:
        for index, values in enumerate(reps):
            with obs.capture() as child:
                for v in values:
                    obs.observe("h.values", v)
                obs.counter_add("c.reps")
            parent.merge(child.export(), rep=index)
    with obs.capture() as direct:
        for values in reps:
            for v in values:
                obs.observe("h.values", v)
            obs.counter_add("c.reps")
    return parent, direct


@given(integer_replications)
@settings(max_examples=200, deadline=None)
def test_in_order_merge_equals_one_collector(reps):
    merged, direct = _merged_and_direct(reps)
    assert merged.summary() == direct.summary()


@given(replications)
@settings(max_examples=200, deadline=None)
def test_in_order_merge_matches_one_collector_to_rounding(reps):
    merged, direct = _merged_and_direct(reps)
    assert merged.counters == direct.counters
    assert merged.histograms.keys() == direct.histograms.keys()
    magnitude = sum(abs(v) for values in reps for v in values)
    for name, hist in merged.histograms.items():
        state, want = hist.state(), direct.histograms[name].state()
        assert state.pop("total") == pytest.approx(
            want.pop("total"), rel=0, abs=1e-12 * magnitude
        )
        assert state.pop("sumsq") == pytest.approx(want.pop("sumsq"),
                                                   rel=1e-12)
        assert state == want
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == direct.histograms[name].quantile(q)


@given(value_lists, value_lists)
@settings(max_examples=200)
def test_histogram_merge_equals_concatenation(a, b):
    merged = _hist_of(a)
    merged.merge_state(_hist_of(b).state())
    direct = _hist_of(a + b)
    state, want = merged.state(), direct.state()
    for field in ("count", "min", "max", "buckets", "nonpos"):
        assert state[field] == want[field]
    assert merged.quantile(0.5) == direct.quantile(0.5)


@given(value_lists, value_lists)
@settings(max_examples=200)
def test_histogram_merge_commutes(a, b):
    ab = _hist_of(a)
    ab.merge_state(_hist_of(b).state())
    ba = _hist_of(b)
    ba.merge_state(_hist_of(a).state())
    assert ab.state() == ba.state()
    assert ab.summary() == ba.summary()
