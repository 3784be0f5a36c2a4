"""The benchmark's three workloads and their correctness checks.

Each workload builds its inputs from the seed before timing starts,
warms up with the first call of each op kind on throwaway inputs, and
then runs its fixed work (one *rep*) through ``run(kind, fn)``, which
times ``fn`` as one op and returns ``(result, op)``. Checks run between
ops, outside the timed region, and clear ``op.ok`` on failure.

* ``paper_repro``: one serial pass of the paper's Tables 1-7 and
  Figure 1 at ``QUICK_SCALE``, the calls ``build_report`` and
  ``figure1.run`` make. The paper fixes the inputs; the seed is unused.
* ``fleet_intervals``: one ``fit_vb2_fleet`` over a seeded portfolio,
  then each project's 95% credible intervals for omega and beta and
  95% reliability interval.
* ``tracker_stream``: seeded grouped campaigns replayed period by
  period through ``ReliabilityTracker`` with warm starts and a
  ``PosteriorCache`` (one miss and one write per period), then
  replayed again by fresh trackers through a fresh cache instance on
  the same directories (one disk hit per period).
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np

from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.priors import ModelPrior
from repro.cache.store import PosteriorCache
from repro.core.fleet import fit_vb2_fleet
from repro.core.reliability import estimate_reliability
from repro.core.sequential import ReliabilityTracker
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import GroupedData
from repro.data.simulation import simulate_failure_times, simulate_grouped
from repro.experiments import figure1, table1, table45
from repro.experiments.config import ExperimentScale, QUICK_SCALE, paper_scenarios
from repro.experiments.report import build_report
from repro.experiments.runner import run_all_methods
from repro.experiments.table23 import interval_summary
from repro.models import GoelOkumoto

# ----------------------------------------------------------------------
# paper_repro
# ----------------------------------------------------------------------

#: Relative tolerances of tests/experiments/test_golden_tables.py:
#: deterministic methods match to the tables' printed digits, MCMC to
#: its QUICK_SCALE Monte-Carlo error.
_REL = {"NINT": 0.01, "LAPL": 0.01, "VB1": 0.01, "VB2": 0.01, "MCMC": 0.30}
_REL_INTERVALS = {**_REL, "MCMC": 0.20}
_REL_RELIABILITY = {**_REL, "MCMC": 0.08}

_REPORT_SECTIONS = ("## Table 1", "## Tables 2–3", "## Tables 4–5", "## Tables 6–7")
_FIGURE_METHODS = ("NINT", "LAPL", "VB1", "VB2")


def _close(current: float, reference: float, rel: float) -> bool:
    if reference == 0.0:
        return abs(current) <= 1e-9
    return abs(current - reference) <= rel * abs(reference)


def table_mismatches(moments, intervals, reliability, golden) -> list[str]:
    """Cells of Tables 1-5 outside the golden tolerances.

    ``moments`` and ``intervals`` map scenario -> method -> quantity;
    ``reliability`` maps scenario -> window -> method -> quantity, the
    layout of ``tests/fixtures/golden_tables.json``.
    """
    bad = []
    for section, measured, rel in (
        ("moments", moments, _REL),
        ("intervals", intervals, _REL_INTERVALS),
    ):
        for scenario, methods in golden[section].items():
            for method, reference in methods.items():
                for key, value in reference.items():
                    current = measured[scenario][method][key]
                    if not _close(current, value, rel[method]):
                        bad.append(f"{section}/{scenario}/{method}/{key}")
    for scenario, windows in golden["reliability"].items():
        for window, methods in windows.items():
            for method, reference in methods.items():
                for key, value in reference.items():
                    current = reliability[scenario][window][method][key]
                    if not _close(current, value, _REL_RELIABILITY[method]):
                        bad.append(f"reliability/{scenario}/{window}/{method}/{key}")
    return bad


def figure_ok(densities: dict, scatter: np.ndarray) -> bool:
    """Figure 1's grids are finite non-negative densities with a peak,
    and the MCMC scatter is finite."""
    if set(densities) != set(_FIGURE_METHODS):
        return False
    for density in densities.values():
        if not (np.all(np.isfinite(density)) and density.min() >= 0.0
                and density.max() > 0.0):
            return False
    return scatter.ndim == 2 and scatter.shape[1] == 2 and scatter.shape[0] > 0 \
        and bool(np.all(np.isfinite(scatter)))


@contextlib.contextmanager
def _capture(module, name: str, returns: list):
    """Record what ``module.name`` returns while the block runs."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        returns.append(result)
        return result

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, original)


class PaperRepro:
    name = "paper_repro"

    def __init__(self, seed: int, root: Path) -> None:
        self.golden = json.loads(
            (root / "tests" / "fixtures" / "golden_tables.json").read_text()
        )

    def warm_up(self, tmp: Path) -> None:
        tiny = ExperimentScale(
            mcmc=ChainSettings(n_samples=20, burn_in=10, thin=1, seed=1),
            nint_resolution=21,
            label="warm-up",
        )
        for name in ("DT-Info", "DG-Info"):
            scenario = paper_scenarios()[name]
            data = scenario.load_data()
            results = run_all_methods(scenario, scale=tiny)
            for posterior in results.posteriors.values():
                posterior.credible_interval("omega", 0.99)
                estimate_reliability(posterior, data.horizon, 1.0, level=0.99)
        posterior = results.posteriors["VB2"]
        grid = np.linspace(1.0, 2.0, 3)
        posterior.log_pdf_grid(grid * 40.0, grid * 0.03)

    def rep(self, run, tmp: Path) -> None:
        tables, reliability = [], []
        with _capture(table1, "run", tables), _capture(table45, "run", reliability):
            text, op = run("report", lambda: build_report(QUICK_SCALE))
        if op.ok:
            op.ok = self._report_ok(text, tables, reliability)
        figure, op = run("figure1", lambda: figure1.run(QUICK_SCALE))
        if op.ok:
            op.ok = figure_ok(figure.densities, figure.mcmc_scatter)

    def _report_ok(self, text: str, tables: list, reliability: list) -> bool:
        if not all(section in text for section in _REPORT_SECTIONS):
            return False
        (results,) = tables
        moments = {name: result.moments() for name, result in results.items()}
        intervals = {
            name: interval_summary(result) for name, result in results.items()
        }
        rows = {}
        for result, view_rows in reliability:
            windows = rows.setdefault(result.scenario.name, {})
            for row in view_rows:
                windows.setdefault(str(row.u), {})[row.method] = {
                    "point": row.point, "lower": row.lower, "upper": row.upper,
                }
        return not table_mismatches(moments, intervals, rows, self.golden)


# ----------------------------------------------------------------------
# fleet_intervals
# ----------------------------------------------------------------------

#: The portfolio mix and prior of benchmarks/bench_fleet.py: small
#: ragged failure-time projects with a grouped minority.
FLEET_PRIOR = ModelPrior.informative(30.0, 10.0, 0.01, 0.005)
FLEET_TIMES, FLEET_GROUPED = 200, 40
IDENTITY_TIMES, IDENTITY_GROUPED = 3, 1
LEVEL = 0.95


def portfolio(rng: np.random.Generator, n_times: int, n_grouped: int) -> list:
    """Goel-Okumoto projects: ``n_times`` failure-time, then ``n_grouped``
    grouped."""
    times = [
        simulate_failure_times(
            GoelOkumoto(12.0 + (i % 7) * 3.0, 0.008 + (i % 5) * 0.002),
            60.0 + (i % 11) * 4.0,
            rng,
        )
        for i in range(n_times)
    ]
    grouped = [
        simulate_grouped(
            GoelOkumoto(18.0 + (i % 6) * 4.0, 0.01 + (i % 4) * 0.003),
            np.linspace(0.0, 70.0 + (i % 9) * 5.0, 8 + (i % 5))[1:],
            rng,
        )
        for i in range(n_grouped)
    ]
    return times + grouped


def project_report(fleet, i: int, data):
    """One project's 95% intervals for omega and beta and its 95%
    reliability interval over the next tenth of its horizon."""
    posterior = fleet.posterior(i)
    return (
        posterior.credible_interval("omega", LEVEL),
        posterior.credible_interval("beta", LEVEL),
        estimate_reliability(
            posterior, data.horizon, 0.1 * data.horizon, alpha0=1.0, level=LEVEL
        ),
    )


def project_report_ok(omega, beta, reliability) -> bool:
    """Finite, ordered intervals; the reliability point lies between its
    bounds inside [0, 1]."""
    values = (*omega, *beta, reliability.point, reliability.lower,
              reliability.upper)
    return (
        all(math.isfinite(v) for v in values)
        and 0.0 <= omega[0] < omega[1]
        and 0.0 <= beta[0] < beta[1]
        and 0.0 <= reliability.lower <= reliability.point
        <= reliability.upper <= 1.0
    )


def _components(components) -> list:
    return [(c.shape, c.rate) for c in components]


def _content(posterior) -> tuple:
    diagnostics = {
        k: v for k, v in posterior.diagnostics.items() if k != "telemetry"
    }
    return (
        posterior.n_values.tolist(),
        posterior.weights.tolist(),
        _components(posterior._omega_components),
        _components(posterior._beta_components),
        posterior.elbo,
        diagnostics,
    )


def bit_identical(fleet_posterior, scalar_posterior) -> bool:
    """Every number the two VB posteriors carry is equal."""
    return _content(fleet_posterior) == _content(scalar_posterior)


class FleetIntervals:
    name = "fleet_intervals"

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.portfolio = portfolio(rng, FLEET_TIMES, FLEET_GROUPED)
        self.identity_sample = sorted(
            rng.choice(FLEET_TIMES, IDENTITY_TIMES, replace=False).tolist()
            + (FLEET_TIMES + rng.choice(FLEET_GROUPED, IDENTITY_GROUPED,
                                        replace=False)).tolist()
        )
        self._warm_portfolio = portfolio(rng, 3, 2)

    def warm_up(self, tmp: Path) -> None:
        fleet = fit_vb2_fleet(self._warm_portfolio, FLEET_PRIOR, 1.0)
        for i, data in enumerate(self._warm_portfolio):
            project_report(fleet, i, data)

    def rep(self, run, tmp: Path) -> None:
        fleet, fit_op = run(
            "fit", lambda: fit_vb2_fleet(self.portfolio, FLEET_PRIOR, 1.0)
        )
        if fleet is None:
            return
        for i, data in enumerate(self.portfolio):
            report, op = run("project", lambda: project_report(fleet, i, data))
            if op.ok:
                op.ok = project_report_ok(*report)
        if fit_op.ok:
            fit_op.ok = all(
                bit_identical(
                    fleet.posterior(i),
                    fit_vb2(self.portfolio[i], FLEET_PRIOR, 1.0),
                )
                for i in self.identity_sample
            )


# ----------------------------------------------------------------------
# tracker_stream
# ----------------------------------------------------------------------

#: The prior of benchmarks/bench_warmstart.py. Campaigns are
#: System-17-sized: 45 failures over 34 periods. The total is fixed so
#: that the seed moves where failures fall, not how much work there is.
TRACKER_PRIOR = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)
CAMPAIGNS, PERIODS, FAILURES = 3, 34, 45


def campaign(rng: np.random.Generator, periods: int, failures: int) -> GroupedData:
    """A decaying grouped test campaign: ``failures`` spread over unit
    periods with intensity proportional to e^(-t/25)."""
    intensity = np.exp(-np.arange(periods) / 25.0)
    return GroupedData(
        counts=rng.multinomial(failures, intensity / intensity.sum()),
        boundaries=np.arange(1.0, periods + 1.0),
    )


def cache_counts(cache: PosteriorCache) -> tuple[int, int, int]:
    """``(disk hits, misses, stores)`` of a cache instance."""
    return cache.stats.hits_disk, cache.stats.misses, cache.stats.stores


#: Expected change of :func:`cache_counts` per period.
UPDATE_DELTA = (0, 1, 1)  # one miss and one write
REPLAY_DELTA = (1, 0, 0)  # one disk hit


def step_ok(before, after, expected) -> bool:
    """The cache counters moved by exactly ``expected``."""
    return tuple(a - b for a, b in zip(after, before)) == expected


def replay_ok(record, update_record, before, after) -> bool:
    """A replayed period reproduces its update's record from one disk
    hit."""
    return record == update_record and step_ok(before, after, REPLAY_DELTA)


class TrackerStream:
    name = "tracker_stream"

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.campaigns = [
            campaign(rng, PERIODS, FAILURES) for _ in range(CAMPAIGNS)
        ]
        self._warm_campaign = campaign(rng, 3, 4)
        self.disk_bytes = 0

    @staticmethod
    def _tracker(cache: PosteriorCache) -> ReliabilityTracker:
        return ReliabilityTracker(TRACKER_PRIOR, alpha0=1.0, cache=cache)

    def warm_up(self, tmp: Path) -> None:
        for _ in range(2):  # a write pass, then a disk-hit pass
            tracker = self._tracker(PosteriorCache(tmp))
            tracker.replay_grouped(self._warm_campaign)

    def _phase(self, run, tmp: Path, kind: str, updates=None) -> list:
        """Replay every campaign through fresh trackers and caches on
        ``tmp``; ``updates`` are the update phase's records, which a
        replay must reproduce."""
        records = []
        for j, data in enumerate(self.campaigns):
            cache = PosteriorCache(tmp / f"campaign{j}")
            tracker = self._tracker(cache)
            for end in range(1, data.n_intervals + 1):
                before = cache_counts(cache)
                record, op = run(kind, lambda: tracker.observe(data.truncate(end)))
                if op.ok:
                    after = cache_counts(cache)
                    op.ok = (
                        step_ok(before, after, UPDATE_DELTA) if updates is None
                        else replay_ok(record, updates[len(records)], before, after)
                    )
                records.append(record)
        return records

    def rep(self, run, tmp: Path) -> None:
        updates = self._phase(run, tmp, "update")
        self.disk_bytes = sum(
            PosteriorCache(tmp / f"campaign{j}").disk_bytes()
            for j in range(len(self.campaigns))
        )
        self._phase(run, tmp, "replay", updates)


WORKLOADS = {w.name: w for w in (PaperRepro, FleetIntervals, TrackerStream)}
