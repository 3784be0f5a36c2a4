"""Tests for the VB2 conditional update equations.

These tests pin down the mathematical content of paper Section 5.2,
including the erratum documented in DESIGN.md: the residual-fault terms
use the gamma *survival* function, which is what makes the paper's own
closed-form claim for the Goel–Okumoto case come out. Every lane is
solved through the lane entry points of ``repro.core.gamma_updates``:
the closed-form Goel–Okumoto lanes and the inverse solver.
"""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from repro.bayes.priors import GammaPrior, ModelPrior
from repro.core import gamma_updates
from repro.core.config import VBConfig
from repro.core.gamma_updates import (
    SweepInputs,
    _lifetime_sum,
    solve_lanes,
    solve_times_exponential_lanes,
)
from repro.core.vb2 import fit_vb2
from repro.core.warmstart import warm_start_from
from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.stats.special import log_gamma_cdf_increment
from repro.stats.truncated import (
    _exponential_excess,
    censored_gamma_mean,
    truncated_gamma_mean,
)


def _times_stats(data):
    """The failure-time statistics the closed forms below read."""
    return SimpleNamespace(
        me=data.count, sum_times=data.total_time, horizon=data.horizon
    )


@pytest.fixture(scope="module")
def times_stats():
    return _times_stats(system17_failure_times())


@pytest.fixture(scope="module")
def grouped_stats():
    data = system17_grouped()
    counts = np.asarray(data.counts, dtype=np.int64)
    return SimpleNamespace(
        counts=counts, edges=data.interval_edges(), total=int(counts.sum()),
        horizon=data.horizon,
    )


@pytest.fixture(scope="module")
def prior_times():
    return ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)


@pytest.fixture(scope="module")
def prior_grouped():
    return ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2)


CONFIG = VBConfig()

FIELDS = ("zeta", "xi", "a_omega", "b_omega", "a_beta", "b_beta",
          "log_weight")
TIMES = system17_failure_times()
GROUPED = system17_grouped()


def _lanes(data, prior, alpha0, lo, hi, config=CONFIG):
    """Lanes ``lo..hi`` of one dataset: the closed form for Goel–Okumoto
    failure times, the inverse solver otherwise."""
    if alpha0 == 1.0 and isinstance(data, FailureTimeData):
        return _exponential_lanes(_times_stats(data), prior, lo, hi)
    lanes, _ = solve_lanes(
        SweepInputs.pack([data], [prior], alpha0), alpha0, [0], [lo], [hi],
        config,
    )
    return lanes


def _solve(data, prior, alpha0, n):
    """The conditional posterior of one latent count ``n``."""
    lanes = _lanes(data, prior, alpha0, n, n)
    return SimpleNamespace(
        **{field: float(getattr(lanes, field)[0]) for field in FIELDS}
    )


class TestClosedFormGoelOkumoto:
    """The paper states (Section 5.2) that for alpha0 = 1 and failure-time
    data the non-linear equations can be solved explicitly. This only
    works with survival-function residual terms — the erratum check."""

    def test_xi_closed_form(self, times_stats, prior_times):
        n = 50
        solution = _solve(TIMES, prior_times, 1.0, n)
        m_beta, phi_beta = prior_times.beta.shape, prior_times.beta.rate
        expected = (m_beta + times_stats.me) / (
            phi_beta
            + times_stats.sum_times
            + (n - times_stats.me) * times_stats.horizon
        )
        assert solution.xi == pytest.approx(expected, rel=1e-12)

    def test_closed_form_is_fixed_point(self, times_stats, prior_times):
        # xi must satisfy xi = (m_beta + N alpha0) / (phi_beta + zeta(xi)).
        n = 60
        s = _solve(TIMES, prior_times, 1.0, n)
        zeta = times_stats.sum_times + (n - times_stats.me) * censored_gamma_mean(
            times_stats.horizon, 1.0, s.xi
        )
        assert s.zeta == pytest.approx(zeta, rel=1e-12)
        assert s.xi == pytest.approx(
            (prior_times.beta.shape + n) / (prior_times.beta.rate + zeta), rel=1e-12
        )

    def test_gibbs_parallel_with_flat_prior(self, times_stats):
        # With a flat prior the closed form parallels Kuo-Yang Eq. 11:
        # beta | N ~ Gamma(me, sum t_i + (N - me) te).
        prior = ModelPrior(omega=GammaPrior(1.0, 0.0), beta=GammaPrior(1.0, 0.0))
        n = 45
        s = _solve(TIMES, prior, 1.0, n)
        expected = (1.0 + times_stats.me) / (
            times_stats.sum_times + (n - times_stats.me) * times_stats.horizon
        )
        assert s.xi == pytest.approx(expected, rel=1e-12)


class TestConditionalStructure:
    def test_omega_posterior_parameters(self, times_stats, prior_times):
        n = 55
        s = _solve(TIMES, prior_times, 1.0, n)
        assert s.a_omega == pytest.approx(prior_times.omega.shape + n)
        assert s.b_omega == pytest.approx(prior_times.omega.rate + 1.0)

    def test_beta_posterior_parameters_general_alpha(self, times_stats, prior_times):
        # Paper erratum 2: the shape is m_beta + N * alpha0 (not m_beta + N).
        n, alpha0 = 55, 2.0
        s = _solve(TIMES, prior_times, alpha0, n)
        assert s.a_beta == pytest.approx(prior_times.beta.shape + n * alpha0)
        assert s.b_beta == pytest.approx(prior_times.beta.rate + s.zeta)
        assert s.xi == pytest.approx(s.a_beta / s.b_beta, rel=1e-10)

    def test_zeta_exceeds_observed_sum(self, times_stats, prior_times):
        # Residual faults fail after the horizon, so zeta > sum of
        # observed times whenever N > me.
        s = _solve(TIMES, prior_times, 1.0, times_stats.me + 10)
        assert s.zeta > times_stats.sum_times + 10 * times_stats.horizon

    def test_n_equal_observed_has_no_residual_terms(self, times_stats, prior_times):
        s = _solve(TIMES, prior_times, 1.0, times_stats.me)
        assert s.zeta == pytest.approx(times_stats.sum_times)

    def test_below_observed_rejected(self, times_stats, prior_times):
        for alpha0 in (1.0, 2.0):
            with pytest.raises(ValueError, match="below the observed"):
                _solve(TIMES, prior_times, alpha0, times_stats.me - 1)

    def test_warm_start_changes_nothing(self, times_stats, prior_times):
        # A warm start only moves the truncation schedule, so a lane's
        # solution must not depend on the growth round that solved it:
        # one round over [me, me+100] and two rounds split at me+40
        # agree to the polish tolerance.
        me, alpha0 = times_stats.me, 2.0
        whole = _lanes(TIMES, prior_times, alpha0, me, me + 100)
        first = _lanes(TIMES, prior_times, alpha0, me, me + 40)
        second = _lanes(TIMES, prior_times, alpha0, me + 41, me + 100)
        for field in ("xi", "b_beta", "log_weight"):
            split = np.concatenate(
                (getattr(first, field), getattr(second, field))
            )
            np.testing.assert_allclose(
                split, getattr(whole, field), rtol=1e-11
            )


def _exponential_lanes(stats, prior, lo, hi, m_beta=None):
    """One dataset's latent-count range ``[lo, hi]`` as closed-form
    Goel–Okumoto lanes."""
    n = np.arange(lo, hi + 1, dtype=float)

    def per_lane(value):
        return np.full(n.size, float(value))

    return solve_times_exponential_lanes(
        n, per_lane(stats.me), per_lane(stats.sum_times),
        per_lane(stats.horizon),
        per_lane(prior.omega.shape), per_lane(prior.omega.rate),
        per_lane(prior.beta.shape if m_beta is None else m_beta),
        per_lane(prior.beta.rate),
    )


def _closed_form(stats, prior, n):
    """Paper Section 5.2's Goel–Okumoto lane, written out with math."""
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    r = n - stats.me
    xi = (m_beta + stats.me) / (
        phi_beta + stats.sum_times + r * stats.horizon
    )
    zeta = stats.sum_times + r * (stats.horizon + 1.0 / xi)
    a_beta, b_beta = m_beta + n, phi_beta + zeta
    log_weight = (
        math.lgamma(m_omega + n) - (m_omega + n) * math.log(phi_omega + 1.0)
        + math.lgamma(a_beta) - a_beta * math.log(b_beta)
        + r * (1.0 - math.log(xi)) - math.lgamma(r + 1.0)
    )
    return {
        "zeta": zeta, "xi": xi, "a_omega": m_omega + n,
        "b_omega": phi_omega + 1.0, "a_beta": a_beta, "b_beta": b_beta,
        "log_weight": log_weight,
    }


class TestVectorisedExponentialRange:
    """The closed-form lanes are DESIGN erratum 1's formulas, and the
    inverse solver run at ``α0 = 1`` on failure times finds them."""

    def test_matches_scalar_solutions(self, times_stats, prior_times):
        batch = _exponential_lanes(
            times_stats, prior_times, times_stats.me, times_stats.me + 100
        )
        for i in (0, 37, 100):
            want = _closed_form(times_stats, prior_times, int(batch.n[i]))
            for field in FIELDS:
                assert getattr(batch, field)[i] == pytest.approx(
                    want[field], rel=1e-12
                ), field
        inverted, _ = solve_lanes(
            SweepInputs.pack([TIMES], [prior_times], 1.0), 1.0, [0],
            [times_stats.me], [times_stats.me + 100], CONFIG,
        )
        for field in FIELDS:
            np.testing.assert_allclose(
                getattr(inverted, field), getattr(batch, field), rtol=1e-10,
                err_msg=field,
            )

    def test_matches_scalar_with_flat_prior(self, times_stats):
        flat = ModelPrior.noninformative()
        batch = _exponential_lanes(
            times_stats, flat, times_stats.me, times_stats.me + 20
        )
        want = _closed_form(times_stats, flat, times_stats.me + 20)
        assert batch.log_weight[-1] == pytest.approx(
            want["log_weight"], rel=1e-12
        )

    def test_validation(self, times_stats, prior_times):
        with pytest.raises(ValueError, match="below the observed"):
            _exponential_lanes(
                times_stats, prior_times, times_stats.me - 1, times_stats.me
            )
        with pytest.raises(ValueError, match="must be positive"):
            _exponential_lanes(
                times_stats, prior_times, times_stats.me, times_stats.me + 5,
                m_beta=-float(times_stats.me + 3),
            )


class TestGroupedUpdates:
    def test_zeta_composition(self, grouped_stats, prior_grouped):
        n = 50
        s = _solve(GROUPED, prior_grouped, 1.0, n)
        edges = grouped_stats.edges
        expected = sum(
            count
            * truncated_gamma_mean(float(edges[i]), float(edges[i + 1]), 1.0, s.xi)
            for i, count in enumerate(grouped_stats.counts)
            if count
        ) + (n - grouped_stats.total) * censored_gamma_mean(
            grouped_stats.horizon, 1.0, s.xi
        )
        assert s.zeta == pytest.approx(expected, rel=1e-10)

    def test_fixed_point_consistency(self, grouped_stats, prior_grouped):
        n, alpha0 = 60, 2.0
        s = _solve(GROUPED, prior_grouped, alpha0, n)
        assert s.xi == pytest.approx(s.a_beta / s.b_beta, rel=1e-10)

    def test_below_observed_rejected(self, grouped_stats, prior_grouped):
        with pytest.raises(ValueError, match="below the observed"):
            _solve(GROUPED, prior_grouped, 1.0, grouped_stats.total - 1)


class TestLogWeights:
    def test_weights_peak_near_posterior_mode(self, times_stats, prior_times):
        # The latent-count weight should be unimodal with its mode near
        # the posterior mean of N (~ observed + expected residual).
        ns = np.arange(times_stats.me, times_stats.me + 120)
        weights = _lanes(
            TIMES, prior_times, 1.0, times_stats.me, times_stats.me + 119
        ).log_weight
        mode = ns[int(np.argmax(weights))]
        assert times_stats.me < mode < times_stats.me + 30
        diffs = np.sign(np.diff(weights))
        # Unimodal: signs go from +1 to -1 with a single change.
        changes = int(np.sum(np.abs(np.diff(diffs)) > 0))
        assert changes <= 2

    def test_log_weight_finite_deep_into_tail(self, times_stats, prior_times):
        for alpha0 in (1.0, 2.0):
            s = _solve(TIMES, prior_times, alpha0, 5000)
            assert math.isfinite(s.log_weight)

    def test_grouped_weights_finite(self, grouped_stats, prior_grouped):
        for n in (grouped_stats.total, 100, 1000):
            s = _solve(GROUPED, prior_grouped, 1.0, n)
            assert math.isfinite(s.log_weight)

    @pytest.mark.parametrize("alpha0", [1.0, 1.5, 2.0])
    def test_grouped_log_weight_formula(self, grouped_stats, prior_grouped,
                                        alpha0):
        # The module docstring's grouped log P~v(N), term by term with
        # scipy.special at the solved xi.
        total = grouped_stats.total
        lanes = _lanes(GROUPED, prior_grouped, alpha0, total, total + 60)
        m_omega, phi_omega = prior_grouped.omega.shape, prior_grouped.omega.rate
        edges, te = grouped_stats.edges, grouped_stats.horizon
        for i in (0, 7, 60):
            n, xi, zeta = lanes.n[i], lanes.xi[i], lanes.zeta[i]
            a_beta, b_beta = lanes.a_beta[i], lanes.b_beta[i]
            want = (
                special.gammaln(m_omega + n)
                - (m_omega + n) * math.log(phi_omega + 1.0)
                + special.gammaln(a_beta) - a_beta * math.log(b_beta)
                - n * alpha0 * math.log(xi) + xi * zeta
                + sum(
                    count * math.log(
                        special.gammainc(alpha0, xi * edges[j + 1])
                        - special.gammainc(alpha0, xi * edges[j])
                    )
                    for j, count in enumerate(grouped_stats.counts) if count
                )
                + (n - total) * math.log(special.gammaincc(alpha0, xi * te))
                - special.gammaln(n - total + 1.0)
            )
            assert lanes.log_weight[i] == pytest.approx(want, rel=1e-12)


class TestMarginalExactness:
    """For the Goel-Okumoto model the *exact* marginal posterior of N is
    available by analytic integration over omega and beta:

    P(N | D_T) ∝ Γ(m_ω+N)/(φ_ω+1)^{m_ω+N} / (N-me)!
               x Γ(m_β+me) / (φ_β + Σt_i + (N-me) t_e)^{m_β+me}

    (the beta integral is conjugate because the residual-fault survival
    terms are exponential). VB2's Pv(N) is an approximation of this; for
    informative priors they should agree closely near the mode.
    """

    @staticmethod
    def _exact_log_pmf(n, stats, prior):
        from scipy.special import gammaln

        m_omega, phi_omega = prior.omega.shape, prior.omega.rate
        m_beta, phi_beta = prior.beta.shape, prior.beta.rate
        r = n - stats.me
        return (
            float(gammaln(m_omega + n))
            - (m_omega + n) * math.log(phi_omega + 1.0)
            - float(gammaln(r + 1.0))
            - (m_beta + stats.me) * math.log(
                phi_beta + stats.sum_times + r * stats.horizon
            )
        )

    def test_vb_latent_pmf_tracks_exact(self, times_stats, prior_times):
        ns = np.arange(times_stats.me, times_stats.me + 80)
        log_vb = _lanes(
            TIMES, prior_times, 1.0, times_stats.me, times_stats.me + 79
        ).log_weight
        log_exact = np.array(
            [self._exact_log_pmf(int(n), times_stats, prior_times) for n in ns]
        )
        from scipy.special import logsumexp

        vb = np.exp(log_vb - logsumexp(log_vb))
        exact = np.exp(log_exact - logsumexp(log_exact))
        # Means of N under the two pmfs agree within a fraction of a fault.
        assert float(ns @ vb) == pytest.approx(float(ns @ exact), abs=0.5)
        # Total variation distance is small.
        assert 0.5 * np.abs(vb - exact).sum() < 0.05


# ----------------------------------------------------------------------
# Interval-width classes
# ----------------------------------------------------------------------
CAMPAIGN_PRIOR = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)


def _tracker_campaign(seed=1, periods=34, failures=45):
    """A sequential-tracking campaign: ``failures`` spread over unit
    periods with intensity proportional to e^(-t/25)."""
    intensity = np.exp(-np.arange(periods) / 25.0)
    return GroupedData(
        counts=np.random.default_rng(seed).multinomial(
            failures, intensity / intensity.sum()
        ),
        boundaries=np.arange(1.0, periods + 1.0),
    )


def _linspace_project():
    """A fleet project on ``linspace`` edges: 11 intervals of width
    90/11 whose float widths take 5 distinct values."""
    edges = np.linspace(0.0, 90.0, 12)[1:]
    return GroupedData(counts=np.arange(1, 12) % 4, boundaries=edges)


MIXED = GroupedData(
    counts=[2, 0, 3, 1, 4, 2, 5], boundaries=[1.0, 2.0, 4.0, 5.0, 7.0, 10.0, 13.0]
)
CLASS_DATA = {
    "tracker": _tracker_campaign(),
    "linspace": _linspace_project(),
    "mixed": MIXED,
}


def _occupied(data):
    return [(lo, hi, count) for lo, hi, count in data.intervals() if count]


def _classes(data, alpha0):
    return SweepInputs.pack([data], [CAMPAIGN_PRIOR], alpha0).classes


class TestIntervalClasses:
    """At α0 = 1 the grouped updates read each distinct interval width
    once, with the summed count, plus the shift ``Σ x_i lo_i``."""

    @pytest.mark.parametrize(
        "name, size", [("tracker", 1), ("linspace", 5), ("mixed", 3)]
    )
    def test_memoryless_classes_are_the_distinct_widths(self, name, size):
        data = CLASS_DATA[name]
        occupied = _occupied(data)
        widths = {}
        for lo, hi, count in occupied:
            widths[hi - lo] = widths.get(hi - lo, 0) + count
        classes = _classes(data, 1.0)
        assert list(classes.offsets) == [0, size] and len(widths) == size
        assert list(classes.hi) == sorted(widths)
        assert list(classes.count) == [widths[w] for w in sorted(widths)]
        assert not classes.lo.any()
        assert classes.shift[0] == pytest.approx(
            math.fsum(count * lo for lo, _, count in occupied), rel=1e-15
        )

    @pytest.mark.parametrize("name", sorted(CLASS_DATA))
    def test_other_shapes_read_every_interval(self, name):
        data = CLASS_DATA[name]
        occupied = _occupied(data)
        classes = _classes(data, 2.0)
        assert list(zip(classes.lo, classes.hi, classes.count)) == occupied
        assert list(classes.offsets) == [0, len(occupied)]
        assert list(classes.shift) == [0.0]

    def test_lanes_at_another_shape_are_rejected(self, prior_grouped):
        inputs = SweepInputs.pack([GROUPED], [prior_grouped], 1.0)
        total = GROUPED.total_count
        with pytest.raises(ValueError, match="packed at alpha0=1"):
            solve_lanes(inputs, 2.0, [0], [total], [total + 5], CONFIG)

    def test_each_dataset_packs_alone(self):
        datasets = [CLASS_DATA[name] for name in sorted(CLASS_DATA)]
        fleet = SweepInputs.pack(
            datasets, [CAMPAIGN_PRIOR] * len(datasets), 1.0
        ).classes
        for i, data in enumerate(datasets):
            alone = _classes(data, 1.0)
            part = slice(fleet.offsets[i], fleet.offsets[i + 1])
            for field in ("lo", "hi", "count"):
                assert np.array_equal(
                    getattr(fleet, field)[part], getattr(alone, field)
                ), field
            assert fleet.shift[i] == alone.shift[0]


def _decimal_reference(data, xi):
    """``A(ξ) = Σ x_i E[T | interval_i]`` and ``Σ x_i ln ΔG_i`` of an
    exponential lifetime at rate ``xi``, per interval in 60-digit
    decimal arithmetic, summed with ``math.fsum``."""
    with localcontext() as ctx:
        ctx.prec = 60
        rate = Decimal(float(xi))
        means, logs = [], []
        for lo, hi, count in _occupied(data):
            lo, width = Decimal(float(lo)), Decimal(float(hi)) - Decimal(float(lo))
            mean = lo + 1 / rate - width / ((rate * width).exp() - 1)
            log_mass = -rate * lo + (1 - (-rate * width).exp()).ln()
            means.append(float(count * mean))
            logs.append(float(count * log_mass))
    return math.fsum(means), math.fsum(logs)


class TestClassSums:
    """The class sums against per-interval references, from
    ``ξ t_e = 1e-6`` to intervals at ``ξ lo ≈ 1000``, deep in the
    exponential's tail."""

    @pytest.mark.parametrize("name", sorted(CLASS_DATA))
    def test_match_per_interval_reference(self, name):
        data = CLASS_DATA[name]
        inputs = SweepInputs.pack([data], [CAMPAIGN_PRIOR], 1.0)
        last_lo = _occupied(data)[-1][0]
        xi = np.geomspace(1e-6 / data.horizon, 1000.0 / last_lo, 41)
        g = np.zeros(xi.size, dtype=np.intp)
        lifetime = _lifetime_sum(inputs, 1.0, g, xi)
        classes = inputs.classes
        log_masses = classes.add_terms(
            -xi * classes.shift[g], log_gamma_cdf_increment, 1.0, g, xi
        )
        for k, rate in enumerate(xi):
            want_lifetime, want_log = _decimal_reference(data, rate)
            assert lifetime[k] == pytest.approx(want_lifetime, rel=1e-13)
            assert log_masses[k] == pytest.approx(want_log, rel=1e-13)


class TestClassCost:
    def test_warm_fit_reads_each_class_once_per_evaluation(self, monkeypatch):
        # One warm tracker fit at α0 = 1: every evaluation of N(ξ) reads
        # the campaign's single width class, not its 34 periods.
        data = _tracker_campaign()
        previous = fit_vb2(data.truncate(33), CAMPAIGN_PRIOR, 1.0)
        config = VBConfig(warm_start=warm_start_from(previous))
        passed = []

        # at α0 = 1 the lifetime sum calls the memoryless kernel directly
        def counting(width, rate):
            passed.append(np.size(width))
            return _exponential_excess(width, rate)

        monkeypatch.setattr(gamma_updates, "_exponential_excess", counting)
        posterior = fit_vb2(data, CAMPAIGN_PRIOR, 1.0, config)
        evaluations = posterior.diagnostics["fixed_point_iterations"]
        classes = _classes(data, 1.0).count.size
        assert classes == 1 and evaluations > 0
        assert 0 < sum(passed) <= evaluations * classes
