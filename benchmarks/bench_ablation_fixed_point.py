"""Ablation: the paper's successive substitution vs inverting ``N(ξ)``.

The paper (Sections 5.1–5.2) solves the zeta/xi equations of every
latent count ``N`` by successive substitution,
``ξ ← (m_β + N α0) / (φ_β + ζ_N(ξ))``, and notes that a faster solver
would make VB2's cost linear in ``nmax``. The package instead inverts
the closed-form ``N(ξ)`` (:func:`repro.core.gamma_updates.solve_lanes`):
one bracket, 64 node evaluations and a few Newton sweeps per dataset
and growth round.

This bench keeps the paper's method as the reference: a per-``N``
substitution loop, written out below, runs on the same lanes as the
inversion, from the same prior-moment seed, to the same relative step
``1e-12``. The table compares evaluations of ``ζ_N(ξ)`` and time, and
the asserts check that both give the same posterior. The cases have a
genuinely non-linear fixed point: the delayed S-shaped member
(``α0 = 2``), and grouped data, where no closed form exists even at
``α0 = 1``.
"""

import time

import numpy as np
import pytest

from conftest import write_result
from repro.bayes.priors import ModelPrior
from repro.core.posterior import VBPosterior
from repro.core.vb2 import fit_vb2
from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.failure_data import FailureTimeData
from repro.metrics.tables import render_table
from repro.metrics.timing import time_callable
from repro.stats.special import (
    log_factorial,
    log_gamma_cdf_increment,
    log_gamma_fn,
    log_gamma_sf,
    log_sum_exp,
)
from repro.stats.truncated import censored_gamma_mean, truncated_gamma_mean

CASES = [
    ("DT alpha0=2", system17_failure_times,
     ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6), 2.0),
    ("DG alpha0=1", system17_grouped,
     ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2), 1.0),
    ("DG alpha0=2", system17_grouped,
     ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2), 2.0),
]

RTOL = 1e-12
MAX_ITER = 100_000


class _Lifetimes:
    """The observed-failure terms of paper Eqs. 24 and 26."""

    def __init__(self, data, alpha0):
        self.alpha0 = alpha0
        self.times = isinstance(data, FailureTimeData)
        self.horizon = data.horizon
        if self.times:
            self.observed = data.count
            self.seed_sum, self.seed_tail = data.total_time, data.horizon
            self.total_time = data.total_time
        else:
            self.observed = data.total_count
            intervals = [item for item in data.intervals() if item[2] > 0]
            self.lo = np.array([lo for lo, _, _ in intervals])
            self.hi = np.array([hi for _, hi, _ in intervals])
            self.count = np.array([float(c) for _, _, c in intervals])
            edges = data.interval_edges()
            self.seed_sum = float(np.dot(data.counts, edges[1:]))
            self.seed_tail = 2.0 * data.horizon

    def zeta(self, n, xi):
        """``ζ_N(ξ) = A(ξ) + (N − m) E[T | T > t_e]``."""
        if self.times:
            total = self.total_time
        else:
            total = float(np.sum(self.count * truncated_gamma_mean(
                self.lo, self.hi, self.alpha0, xi
            )))
        if n > self.observed:
            total += (n - self.observed) * censored_gamma_mean(
                self.horizon, self.alpha0, xi
            )
        return total

    def log_weight(self, n, xi, zeta, prior):
        """``log P̃v(N)`` (paper Eq. 28, survival-function form)."""
        a, r = self.alpha0, n - self.observed
        a_beta = prior.beta.shape + n * a
        value = (
            log_gamma_fn(prior.omega.shape + n)
            - (prior.omega.shape + n) * np.log(prior.omega.rate + 1.0)
            + log_gamma_fn(a_beta)
            - a_beta * np.log(prior.beta.rate + zeta)
        )
        if self.times:
            if r > 0:
                value += r * (
                    log_gamma_sf(self.horizon, a, xi) - a * np.log(xi)
                    + xi * censored_gamma_mean(self.horizon, a, xi)
                )
        else:
            value += -n * a * np.log(xi) + xi * zeta + float(np.sum(
                self.count * log_gamma_cdf_increment(self.lo, self.hi, a, xi)
            ))
            if r > 0:
                value += r * log_gamma_sf(self.horizon, a, xi)
        return float(value - log_factorial(r))


def successive_substitution(data, prior, alpha0, nmax):
    """The paper's solver on lanes ``observed..nmax``: returns the
    posterior, the lane ``ξ`` and the evaluations of ``ζ_N(ξ)``."""
    terms = _Lifetimes(data, alpha0)
    n_values = np.arange(terms.observed, nmax + 1)
    xis, zetas, log_w = [], [], []
    evaluations = 0
    for n in n_values:
        a_beta = prior.beta.shape + n * alpha0
        xi = a_beta / (
            prior.beta.rate + terms.seed_sum
            + (n - terms.observed) * terms.seed_tail
        )
        for _ in range(MAX_ITER):
            new = a_beta / (prior.beta.rate + terms.zeta(n, xi))
            evaluations += 1
            converged = abs(new - xi) <= RTOL * new
            xi = new
            if converged:
                break
        else:
            raise RuntimeError(f"substitution did not converge at N={n}")
        zeta = terms.zeta(n, xi)
        xis.append(xi)
        zetas.append(zeta)
        log_w.append(terms.log_weight(n, xi, zeta, prior))
    log_w = np.array(log_w)
    weights = np.exp(log_w - log_sum_exp(log_w))
    posterior = VBPosterior.from_arrays(
        n_values.astype(float), weights,
        prior.omega.shape + n_values, np.full(n_values.size,
                                              prior.omega.rate + 1.0),
        prior.beta.shape + n_values * alpha0,
        prior.beta.rate + np.array(zetas),
        method_name="VB2",
    )
    return posterior, np.array(xis), evaluations


def test_fixed_point_acceleration(benchmark, results_dir):
    rows = []
    checks = []
    for label, loader, prior, alpha0 in CASES:
        data = loader()
        nmax = fit_vb2(data, prior, alpha0).diagnostics["nmax"]
        inversion = time_callable(
            lambda: fit_vb2(data, prior, alpha0, nmax=nmax), repeat=3
        )
        start = time.perf_counter()
        reference, xi, evaluations = successive_substitution(
            data, prior, alpha0, nmax
        )
        reference_s = time.perf_counter() - start
        posterior = inversion.result
        xi_diff = float(np.max(np.abs(
            posterior._beta_shape / posterior._beta_rate / xi - 1.0
        )))
        rows.append(
            [
                label,
                xi.size,
                evaluations,
                posterior.diagnostics["fixed_point_iterations"],
                f"{reference_s * 1000:.1f} ms",
                f"{inversion.seconds * 1000:.1f} ms",
                f"{reference.mean('omega'):.4f}",
                f"{posterior.mean('omega'):.4f}",
                f"{xi_diff:.1e}",
            ]
        )
        checks.append((reference, posterior))

    write_result(
        results_dir / "ablation_fixed_point.txt",
        render_table(
            ["case", "lanes", "substitution evals", "inversion evals",
             "substitution time", "inversion time", "subst. E[omega]",
             "inversion E[omega]", "max rel xi diff"],
            rows,
            title="Ablation — the paper's successive substitution vs "
                  "inverting N(xi)",
        ),
    )

    data = system17_grouped()
    prior = ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2)
    benchmark(lambda: fit_vb2(data, prior, 2.0))

    for reference, posterior in checks:
        # The paper's method and the inversion give the same posterior.
        assert posterior.mean("omega") == pytest.approx(
            reference.mean("omega"), rel=1e-8
        )
        assert posterior.variance("beta") == pytest.approx(
            reference.variance("beta"), rel=1e-6
        )
