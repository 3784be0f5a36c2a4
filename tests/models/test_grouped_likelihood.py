"""The loop-free grouped log-likelihood equals the per-interval loop.

``NHPPModel.log_likelihood_grouped`` adds its terms with one ``cumsum``
instead of a Python loop over the intervals. It must return the loop's
value bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.failure_data import GroupedData
from repro.models.gamma_srm import GammaSRM
from repro.stats.special import log_factorial


def _loop_log_likelihood(model, data):
    """Paper Eq. 5 one interval at a time: the reference arithmetic.

    An interval that starts past the median takes its increment as a
    survival difference, where a CDF difference would cancel.
    """
    edges = data.interval_edges()
    cdf_vals = np.asarray(model.lifetime_cdf(edges), dtype=float)
    sf_vals = np.asarray(model.lifetime_sf(edges), dtype=float)
    total = -model.omega * cdf_vals[-1]
    for i, count in enumerate(data.counts):
        if count == 0:
            continue
        if cdf_vals[i] > 0.5:
            inc = sf_vals[i] - sf_vals[i + 1]
        else:
            inc = cdf_vals[i + 1] - cdf_vals[i]
        if inc <= 0.0:
            return -math.inf
        total += count * (math.log(inc) + math.log(model.omega))
        total -= float(log_factorial(int(count)))
    return total


def _assert_same(model, data):
    fast = model.log_likelihood_grouped(data)
    loop = _loop_log_likelihood(model, data)
    assert fast == loop
    assert np.float64(fast).tobytes() == np.float64(loop).tobytes()


@pytest.mark.parametrize("alpha0", [1.0, 2.0])
def test_system17_grouped(grouped_data, alpha0):
    for omega in (20.0, 43.2, 100.0):
        for beta in (0.01, 0.0342, 0.2):
            _assert_same(GammaSRM(omega=omega, beta=alpha0 * beta, alpha0=alpha0),
                         grouped_data)


def test_empty_intervals():
    data = GroupedData(counts=[0, 3, 0, 0, 7, 1, 0, 12, 0],
                       boundaries=np.arange(1.0, 10.0))
    for alpha0 in (1.0, 2.0, 0.7):
        _assert_same(GammaSRM(omega=30.0, beta=0.2, alpha0=alpha0), data)


def test_single_occupied_interval():
    for counts in ([5], [0, 0, 4, 0], [0, 9]):
        data = GroupedData(counts=counts,
                           boundaries=np.linspace(1.0, 4.0, len(counts)))
        _assert_same(GammaSRM(omega=12.0, beta=0.3, alpha0=1.0), data)


def test_no_failures():
    data = GroupedData(counts=[0, 0, 0], boundaries=[1.0, 2.0, 3.0])
    _assert_same(GammaSRM(omega=5.0, beta=0.4, alpha0=1.0), data)


def test_zero_mass_interval_is_minus_inf():
    # The CDF increment of (1, 2] underflows to exactly 0 at beta = 1000.
    data = GroupedData(counts=[2, 1, 0], boundaries=[1.0, 2.0, 3.0])
    model = GammaSRM(omega=10.0, beta=1000.0, alpha0=1.0)
    assert model.log_likelihood_grouped(data) == -math.inf
    assert _loop_log_likelihood(model, data) == -math.inf


@given(
    log_omega=st.floats(math.log(1.0), math.log(5_000.0)),
    log_beta=st.floats(math.log(1e-4), math.log(2.0)),
    alpha0=st.sampled_from([1.0, 2.0, 1.5]),
)
@settings(max_examples=150, deadline=None)
def test_hypothesis_sweep(grouped_data, log_omega, log_beta, alpha0):
    model = GammaSRM(omega=math.exp(log_omega), beta=math.exp(log_beta),
                     alpha0=alpha0)
    _assert_same(model, grouped_data)
