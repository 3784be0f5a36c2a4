"""Command-line interface.

Two families of commands:

* experiment regeneration — one sub-command per paper table/figure::

      python -m repro table1 --scale quick
      python -m repro figure1 --out figure1_csv/
      python -m repro all --scale paper

* library usage on your own data::

      python -m repro fit --data failures.csv --kind times \
          --omega-mean 50 --omega-std 16 --beta-mean 1e-5 --beta-std 3e-6
      python -m repro simulate --model goel-okumoto --omega 40 \
          --beta 1e-5 --horizon 250000 --out sim.csv

  ``fit --cache-dir PATH`` routes VB fits through the content-addressed
  posterior cache (a repeat fit of identical inputs loads the stored
  posterior byte-identically instead of solving); ``repro cache stats``
  and ``repro cache clear`` inspect and empty such a directory.

* posterior-method validation campaigns (parallel across cores)::

      python -m repro validate sbc --model goel-okumoto --method VB2 \
          --replications 200 --workers 4
      python -m repro validate coverage --methods VB1,VB2 \
          --replications 200 --level 0.9 --workers 4
      python -m repro validate robustness --families contaminated \
          --replications 100 --workers 4

``fit``, ``simulate`` and the ``validate`` campaigns accept
``--trace PATH`` (with ``--trace-level summary|timing|debug``) to write
a JSONL telemetry trace of the run; ``repro report trace.jsonl``
renders it as per-method cost/convergence tables. ``-v`` / ``-vv``
turn on INFO / DEBUG logging.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.exceptions import ModelSpecificationError
from repro.experiments import PAPER_SCALE, QUICK_SCALE
from repro.obs import TRACE_LEVELS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure1",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of Okamura et al., "
            "'Variational Bayesian Approach for Interval Estimation of "
            "NHPP-Based Software Reliability Models' (DSN 2007), or run "
            "the estimators on your own failure data."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v = INFO, -vv = DEBUG)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_trace_options(sub) -> None:
        sub.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL telemetry trace of this run to PATH",
        )
        sub.add_argument(
            "--trace-level", choices=list(TRACE_LEVELS), default="summary",
            help="trace verbosity: 'summary' is deterministic (no "
            "wall-clock), 'timing' adds durations, 'debug' adds "
            "per-iteration spans",
        )

    for name in (*_EXPERIMENTS, "all"):
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.add_argument(
            "--scale", choices=["quick", "paper"], default="quick",
            help="computational scale: 'quick' (seconds) or 'paper' "
            "(the paper's full MCMC schedule)",
        )
        sub.add_argument(
            "--out", default=None,
            help="directory for figure1 CSV export (figure1/all only)",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="process count for running independent scenarios "
            "concurrently (0 = one per core)",
        )

    fit = subparsers.add_parser("fit", help="fit a posterior to a dataset")
    fit.add_argument("--data", default=None, help="CSV file with the data")
    fit.add_argument(
        "--fleet", default=None, metavar="MANIFEST",
        help="fit a whole portfolio in one vectorized sweep: JSON "
        "manifest listing the datasets (mutually exclusive with --data; "
        "methods vb2 and vb1 only)",
    )
    fit.add_argument(
        "--kind", choices=["times", "grouped"], default="times",
        help="data structure of the CSV (one time per row, or "
        "boundary,count rows)",
    )
    fit.add_argument(
        "--horizon", type=float, default=None,
        help="observation horizon for failure-time data "
        "(defaults to the last failure)",
    )
    fit.add_argument(
        "--method", choices=["vb2", "vb1", "laplace", "mcmc"], default="vb2",
        help="posterior approximation to use",
    )
    fit.add_argument(
        "--alpha0", type=float, default=1.0,
        help="gamma-type lifetime shape (1 = Goel-Okumoto, 2 = delayed "
        "S-shaped)",
    )
    fit.add_argument("--omega-mean", type=float, default=None,
                     help="prior mean for omega (omit for a flat prior)")
    fit.add_argument("--omega-std", type=float, default=None)
    fit.add_argument("--beta-mean", type=float, default=None)
    fit.add_argument("--beta-std", type=float, default=None)
    fit.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed posterior cache: refitting already-seen "
        "(data, prior, config) inputs loads the stored posterior "
        "byte-identically instead of running the solver "
        "(methods vb2/vb1 with --data only)",
    )
    fit.add_argument("--level", type=float, default=0.99,
                     help="credible level for the reported intervals")
    fit.add_argument("--predict", type=float, default=None, metavar="U",
                     help="also report reliability and the predictive "
                     "failure-count distribution for the window (te, te+U]")
    add_trace_options(fit)

    simulate = subparsers.add_parser(
        "simulate", help="simulate failure data from a model"
    )
    simulate.add_argument("--model", default="goel-okumoto",
                          help="model family registry name")
    simulate.add_argument("--omega", type=float, required=True)
    simulate.add_argument("--beta", type=float, required=True)
    simulate.add_argument("--horizon", type=float, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", default=None,
                          help="write the failure times to this CSV")
    add_trace_options(simulate)

    validate = subparsers.add_parser(
        "validate",
        help="run a posterior-method validation campaign "
        "(simulation-based calibration or interval coverage)",
    )
    validate_kind = validate.add_subparsers(dest="validate_command",
                                            required=True)

    def add_campaign_options(sub) -> None:
        sub.add_argument("--replications", type=int, default=200,
                         help="number of simulated campaigns")
        sub.add_argument("--workers", type=int, default=1,
                         help="process count (0 = one per core); results "
                         "are identical for any value")
        sub.add_argument("--seed", type=int, default=0,
                         help="root seed of the deterministic stream tree")
        sub.add_argument("--horizon", type=float, default=25.0,
                         help="observation horizon of each campaign")
        sub.add_argument("--min-failures", type=int, default=3,
                         help="campaigns observing fewer failures are skipped")
        sub.add_argument("--scale", choices=["quick", "paper"],
                         default="quick",
                         help="MCMC schedule / NINT resolution for those "
                         "methods")
        sub.add_argument("--out", default=None,
                         help="JSON artifact path (defaults to "
                         "benchmarks/results/<campaign>.json)")
        sub.add_argument("--omega-mean", type=float, default=40.0,
                         help="prior mean for omega")
        sub.add_argument("--omega-std", type=float, default=12.0)
        sub.add_argument("--beta-mean", type=float, default=0.1)
        sub.add_argument("--beta-std", type=float, default=0.04)
        add_trace_options(sub)

    sbc = validate_kind.add_parser(
        "sbc", help="simulation-based calibration (rank uniformity)"
    )
    sbc.add_argument("--model", default="goel-okumoto",
                     help="data-generating model registry name "
                     "(underscores accepted)")
    sbc.add_argument("--method", default="VB2",
                     help="posterior method under test "
                     "(NINT, LAPL, MCMC, VB1, VB2)")
    sbc.add_argument("--ranks", type=int, default=63,
                     help="L: posterior draws per rank statistic")
    sbc.add_argument("--window", type=float, default=None,
                     help="reliability prediction window "
                     "(default horizon / 5)")
    add_campaign_options(sbc)

    coverage = validate_kind.add_parser(
        "coverage", help="frequentist coverage of the credible intervals"
    )
    coverage.add_argument("--methods", default="VB1,VB2",
                          help="comma-separated fitters to compare "
                          "(subset of NINT, LAPL, MCMC, VB1, VB2)")
    coverage.add_argument("--level", type=float, default=0.99,
                          help="nominal credible level to assess")
    coverage.add_argument("--true-omega", type=float, default=40.0,
                          help="data-generating omega")
    coverage.add_argument("--true-beta", type=float, default=0.1,
                          help="data-generating beta")
    add_campaign_options(coverage)

    robustness = validate_kind.add_parser(
        "robustness",
        help="interval coverage under misspecified data generators "
        "(degradation curves + sandwich-correction pay-back)",
    )
    robustness.add_argument(
        "--families", default="all",
        help="comma-separated scenario families to sweep (weibull-hazard, "
        "change-point, contaminated, truncated-reporting) or 'all'",
    )
    robustness.add_argument(
        "--severities", action="append", default=None, metavar="FAMILY=S1,S2",
        help="override one family's severity grid, e.g. "
        "'contaminated=0,0.4,0.7' (repeatable; grids should start at the "
        "well-specified anchor 0)",
    )
    robustness.add_argument(
        "--methods", default="NINT,LAPL,MCMC,VB1,VB2",
        help="comma-separated posterior methods to score",
    )
    robustness.add_argument(
        "--no-sandwich", action="store_true",
        help="skip the sandwich-corrected VB2 column",
    )
    robustness.add_argument(
        "--level", type=float, default=0.9,
        help="nominal credible level to assess",
    )
    add_campaign_options(robustness)

    report = subparsers.add_parser(
        "report",
        help="render a JSONL telemetry trace as per-method "
        "cost/convergence tables",
    )
    report.add_argument("trace_file",
                        help="trace written by a --trace run")
    report.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format: human-readable tables or a JSON summary",
    )
    report.add_argument(
        "--metrics", action="store_true",
        help="also render the labeled metrics snapshot "
        "(counters/gauges/log-bucket histograms)",
    )
    report.add_argument(
        "--profile", action="store_true",
        help="also render the aggregated span call tree "
        "(call counts, self/cumulative wall time)",
    )
    report.add_argument(
        "--folded", default=None, metavar="PATH",
        help="write the profile as folded stacks (flamegraph.pl input) "
        "to PATH",
    )

    cache_cmd = subparsers.add_parser(
        "cache",
        help="inspect or clear a content-addressed posterior cache "
        "directory (as used by `fit --cache-dir`)",
    )
    cache_kind = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_kind.add_parser(
        "stats", help="artifact count and disk footprint of a cache"
    )
    cache_stats.add_argument(
        "cache_dir", metavar="DIR",
        help="cache directory (the path passed to fit --cache-dir)",
    )
    cache_stats.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is what the nightly CI artifact "
        "collects)",
    )
    cache_clear = cache_kind.add_parser(
        "clear",
        help="delete every cached artifact; files the cache did not "
        "write are left alone",
    )
    cache_clear.add_argument(
        "cache_dir", metavar="DIR",
        help="cache directory (the path passed to fit --cache-dir)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="perf ledger over the BENCH_*.json benchmark artifacts",
    )
    bench_kind = bench.add_subparsers(dest="bench_command", required=True)
    bench_check = bench_kind.add_parser(
        "check",
        help="gate fresh benchmark runs against the committed baselines "
        "(exit 1 when a calibrated timing rises above its baseline's "
        "over 0.8, a baseline timing or check is missing, or a check "
        "fails); with no files, self-check every committed baseline",
    )
    bench_check.add_argument(
        "fresh", nargs="*", metavar="BENCH.json",
        help="fresh benchmark result files; each is matched to the "
        "baseline of the same name in --baseline-dir",
    )
    bench_check.add_argument(
        "--baseline-dir", default="benchmarks/results", metavar="DIR",
        help="directory holding the committed BENCH_*.json baselines",
    )
    bench_report = bench_kind.add_parser(
        "report", help="render the unified perf ledger"
    )
    bench_report.add_argument(
        "--dir", default="benchmarks/results", metavar="DIR",
        help="directory holding BENCH_*.json files",
    )
    bench_report.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format",
    )
    return parser


def _run_experiment(
    name: str, scale, out: str | None, workers: int = 1, results=None
) -> str:
    """Render one experiment. ``results`` are Table 1's fits at
    ``scale`` (``repro all``), which every MCMC-backed table and the
    figure then reuse instead of refitting."""
    from repro.experiments import figure1, table1, table23, table45, table67

    if name == "table1":
        if results is None:
            results = table1.run(scale=scale, workers=workers)
        return table1.render(results)
    if name == "table2":
        return table23.render(
            table23.run("DT", scale=scale, workers=workers, results=results),
            table_number=2,
        )
    if name == "table3":
        return table23.render(
            table23.run("DG", scale=scale, workers=workers, results=results),
            table_number=3,
        )
    if name == "table4":
        _, rows = table45.run("DT", scale=scale, results=results)
        return table45.render(rows, table_number=4, unit="s")
    if name == "table5":
        _, rows = table45.run("DG", scale=scale, results=results)
        return table45.render(rows, table_number=5, unit="d")
    if name == "table6":
        if results is None:
            return table67.render_table6(table67.run_table6(scale=scale))
        return table67.render_table6(table67.table6_rows(results))
    if name == "table7":
        return table67.render_table7(table67.run_table7())
    if name == "figure1":
        figure = figure1.run(scale=scale, results=results)
        text = figure1.render_ascii(figure)
        if out:
            paths = figure1.save_csv(figure, out)
            text += "\n\nCSV written to:\n" + "\n".join(str(p) for p in paths)
        return text
    raise ValueError(f"unknown experiment {name!r}")


def _build_prior(args) -> "ModelPrior":
    from repro.bayes.priors import FlatPrior, GammaPrior, ModelPrior

    informative = [args.omega_mean, args.omega_std, args.beta_mean, args.beta_std]
    if all(value is None for value in informative):
        return ModelPrior.noninformative()
    if any(value is None for value in informative):
        raise SystemExit(
            "either give all four of --omega-mean/--omega-std/"
            "--beta-mean/--beta-std or none (flat priors)"
        )
    return ModelPrior(
        omega=GammaPrior.from_mean_std(args.omega_mean, args.omega_std),
        beta=GammaPrior.from_mean_std(args.beta_mean, args.beta_std),
    )


def _run_fit(args) -> str:
    from repro.bayes.laplace import fit_laplace
    from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
    from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
    from repro.core.prediction import predict_failure_counts
    from repro.core.reliability import estimate_reliability
    from repro.core.vb1 import fit_vb1
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import FailureTimeData
    from repro.data.io import load_failure_times_csv, load_grouped_csv

    if (args.data is None) == (args.fleet is None):
        raise SystemExit("fit needs exactly one of --data or --fleet")
    if args.cache_dir is not None:
        if args.fleet is not None:
            raise SystemExit("--cache-dir applies to --data fits only")
        if args.method not in ("vb2", "vb1"):
            raise SystemExit(
                f"--cache-dir supports methods vb2 and vb1, "
                f"not {args.method}"
            )
    if args.fleet is not None:
        return _run_fit_fleet(args)
    if args.kind == "times":
        data = load_failure_times_csv(args.data, horizon=args.horizon)
    else:
        data = load_grouped_csv(args.data)
    prior = _build_prior(args)

    cache = None
    if args.cache_dir is not None:
        from repro.cache.store import PosteriorCache

        cache = PosteriorCache(args.cache_dir)

    if args.method == "vb2":
        if cache is not None:
            from repro.cache.fitting import fit_vb2_cached

            posterior = fit_vb2_cached(data, prior, args.alpha0, cache=cache)
        else:
            posterior = fit_vb2(data, prior, alpha0=args.alpha0)
    elif args.method == "vb1":
        if cache is not None:
            from repro.cache.fitting import fit_vb1_cached

            posterior = fit_vb1_cached(data, prior, args.alpha0, cache=cache)
        else:
            posterior = fit_vb1(data, prior, alpha0=args.alpha0)
    elif args.method == "laplace":
        posterior = fit_laplace(data, prior, alpha0=args.alpha0)
    else:
        sampler = (
            gibbs_failure_time if isinstance(data, FailureTimeData) else gibbs_grouped
        )
        posterior = sampler(data, prior, alpha0=args.alpha0).posterior()

    lines = [f"method: {posterior.method_name}    data: {data!r}"]
    if cache is not None:
        stats = cache.stats
        outcome = (
            "hit (memory)" if stats.hits_memory
            else "hit (disk)" if stats.hits_disk
            else "miss (fitted and stored)"
        )
        lines.append(
            f"  cache: {outcome} — {len(cache.disk_entries())} artifacts, "
            f"{cache.disk_bytes()} bytes in {args.cache_dir}"
        )
    for param in ("omega", "beta"):
        lo, hi = posterior.credible_interval(param, args.level)
        lines.append(
            f"  {param}: mean {posterior.mean(param):.6g}   "
            f"{args.level:.0%} CI [{lo:.6g}, {hi:.6g}]"
        )
    lines.append(f"  Cov(omega, beta): {posterior.covariance():.6g}")
    if args.predict is not None:
        estimate = estimate_reliability(
            posterior, data.horizon, args.predict,
            alpha0=args.alpha0, level=args.level,
        )
        lines.append(f"  {estimate}")
        counts = predict_failure_counts(
            posterior, data.horizon, args.predict, alpha0=args.alpha0
        )
        head = ", ".join(
            f"P(K={k})={p:.4f}" for k, p in enumerate(counts.pmf[:5])
        )
        lines.append(
            f"  predictive failures in window: mean {counts.mean():.3f}   {head}"
        )
    return "\n".join(lines)


def _run_fit_fleet(args) -> str:
    from repro.core.fleet import fit_vb1_fleet, fit_vb2_fleet
    from repro.data.fleet import load_fleet_manifest

    if args.method not in ("vb2", "vb1"):
        raise SystemExit(
            f"--fleet supports methods vb2 and vb1, not {args.method}"
        )
    datasets = load_fleet_manifest(args.fleet)
    prior = _build_prior(args)
    fitter = fit_vb2_fleet if args.method == "vb2" else fit_vb1_fleet
    fleet = fitter(datasets, prior, alpha0=args.alpha0)

    lines = [
        f"method: {fleet.method_name}    fleet: {len(fleet)} datasets "
        f"({args.fleet})"
    ]
    omega_ci = fleet.credible_intervals("omega", args.level)
    beta_ci = fleet.credible_intervals("beta", args.level)
    omega_means = fleet.means("omega")
    beta_means = fleet.means("beta")
    for i in range(len(fleet)):
        diag = fleet.diagnostics[i]
        lines.append(
            f"  [{i}] {diag['data_kind']}: "
            f"omega {omega_means[i]:.6g} "
            f"[{omega_ci[i, 0]:.6g}, {omega_ci[i, 1]:.6g}]   "
            f"beta {beta_means[i]:.6g} "
            f"[{beta_ci[i, 0]:.6g}, {beta_ci[i, 1]:.6g}]"
        )
    expected = fleet.expected_total_faults()
    lines.append(
        f"  portfolio: E[total faults] {float(expected.sum()):.6g} "
        f"across {len(fleet)} projects at {args.level:.0%} intervals"
    )
    return "\n".join(lines)


def _campaign_prior(args) -> "ModelPrior":
    from repro.bayes.priors import ModelPrior

    return ModelPrior.informative(
        args.omega_mean, args.omega_std, args.beta_mean, args.beta_std
    )


def _campaign_workers(args) -> int | None:
    # --workers 0 means "one process per core".
    return None if args.workers == 0 else args.workers


def _run_validate_sbc(args) -> str:
    from repro.experiments import PAPER_SCALE, QUICK_SCALE
    from repro.metrics.timing import time_callable
    from repro.validation.artifacts import (
        ValidationArtifact,
        default_artifact_path,
        save_artifact,
    )
    from repro.validation.sbc import SBCSpec, run_sbc

    spec = SBCSpec(
        model=args.model.replace("_", "-"),
        method=args.method.upper(),
        prior=_campaign_prior(args),
        horizon=args.horizon,
        reliability_window=args.window,
        replications=args.replications,
        ranks=args.ranks,
        min_failures=args.min_failures,
        seed=args.seed,
        scale=PAPER_SCALE if args.scale == "paper" else QUICK_SCALE,
    )
    timing = time_callable(
        lambda: run_sbc(spec, workers=_campaign_workers(args))
    )
    result = timing.result
    summary = result.to_dict()
    artifact = ValidationArtifact(
        kind="sbc", config=summary["config"],
        results={k: v for k, v in summary.items() if k != "config"},
    )
    out = args.out or default_artifact_path("sbc", spec.model, spec.method)
    path = save_artifact(artifact, out)
    lines = [
        f"SBC: {spec.method} on {spec.model} — "
        f"{result.used} used / {result.skipped} skipped / "
        f"{result.failed} failed replications "
        f"({timing.seconds:.1f}s, workers={args.workers or 'auto'})",
    ]
    for quantity, report in result.reports().items():
        verdict = "ok" if report.calibrated else "MISCALIBRATED"
        lines.append(
            f"  {quantity:<12} chi2 p={report.chi_square.p_value:.4f}   "
            f"ecdf dev {report.ecdf.max_deviation:.4f} "
            f"(envelope {report.ecdf.envelope:.4f})   {verdict}"
        )
    lines.append(f"artifact: {path}")
    return "\n".join(lines)


def _run_validate_coverage(args) -> str:
    from repro.metrics.coverage import interval_coverage_study
    from repro.metrics.timing import time_callable
    from repro.models.registry import make_model
    from repro.validation.artifacts import (
        ValidationArtifact,
        default_artifact_path,
        save_artifact,
    )
    from repro.validation.fitters import coverage_fitters

    from repro.experiments import PAPER_SCALE, QUICK_SCALE

    labels = [label.strip().upper() for label in args.methods.split(",") if label.strip()]
    scale = PAPER_SCALE if args.scale == "paper" else QUICK_SCALE
    fitters = coverage_fitters(labels, scale=scale)
    true_model = make_model(
        "goel-okumoto", omega=args.true_omega, beta=args.true_beta
    )
    timing = time_callable(
        lambda: interval_coverage_study(
            true_model,
            _campaign_prior(args),
            fitters,
            horizon=args.horizon,
            level=args.level,
            replications=args.replications,
            min_failures=args.min_failures,
            seed=args.seed,
            workers=_campaign_workers(args),
        )
    )
    results = timing.result
    config = {
        "true_model": {"name": true_model.name, "omega": args.true_omega,
                       "beta": args.true_beta},
        "prior": {"omega": {"mean": args.omega_mean, "std": args.omega_std},
                  "beta": {"mean": args.beta_mean, "std": args.beta_std}},
        "methods": labels,
        "level": args.level,
        "horizon": args.horizon,
        "replications": args.replications,
        "min_failures": args.min_failures,
        "seed": args.seed,
        "scale": scale.label,
    }
    artifact = ValidationArtifact(
        kind="coverage",
        config=config,
        results={label: record.to_dict() for label, record in results.items()},
    )
    out = args.out or default_artifact_path("coverage", *labels)
    path = save_artifact(artifact, out)
    lines = [
        f"coverage at nominal {args.level:.0%} "
        f"({timing.seconds:.1f}s, workers={args.workers or 'auto'})"
    ]
    for label, record in results.items():
        flags = []
        for param in ("omega", "beta"):
            mark = "UNDER-COVERS" if record.undercovers(param) else "ok"
            flags.append(
                f"{param} {record.coverage(param):.3f} ({mark})"
            )
        lines.append(f"  {label:<6} {'   '.join(flags)}")
    lines.append(f"artifact: {path}")
    return "\n".join(lines)


def _parse_severity_overrides(entries) -> dict | None:
    """Parse repeated ``--severities FAMILY=S1,S2,...`` options."""
    if not entries:
        return None
    overrides: dict[str, tuple[float, ...]] = {}
    for entry in entries:
        family, _, grid = entry.partition("=")
        if not grid:
            raise SystemExit(
                f"error: --severities expects FAMILY=S1,S2,..., got {entry!r}"
            )
        try:
            overrides[family.strip()] = tuple(
                float(s) for s in grid.split(",") if s.strip()
            )
        except ValueError as exc:
            raise SystemExit(
                f"error: bad severity grid in {entry!r}: {exc}"
            ) from exc
    return overrides


def _run_validate_robustness(args) -> str:
    from repro.experiments import PAPER_SCALE, QUICK_SCALE
    from repro.metrics.timing import time_callable
    from repro.robustness import (
        SANDWICH_LABEL,
        SCENARIO_FAMILIES,
        RobustnessSpec,
        run_robustness,
    )
    from repro.validation.artifacts import (
        ValidationArtifact,
        default_artifact_path,
        save_artifact,
    )

    if args.families.strip().lower() == "all":
        families = tuple(SCENARIO_FAMILIES)
    else:
        families = tuple(
            f.strip() for f in args.families.split(",") if f.strip()
        )
    methods = tuple(
        label.strip().upper()
        for label in args.methods.split(",")
        if label.strip()
    )
    spec = RobustnessSpec(
        families=families,
        severities=_parse_severity_overrides(args.severities),
        methods=methods,
        sandwich=not args.no_sandwich,
        prior=_campaign_prior(args),
        horizon=args.horizon,
        level=args.level,
        replications=args.replications,
        min_failures=args.min_failures,
        seed=args.seed,
        scale=PAPER_SCALE if args.scale == "paper" else QUICK_SCALE,
    )
    timing = time_callable(
        lambda: run_robustness(spec, workers=_campaign_workers(args))
    )
    result = timing.result
    summary = result.to_dict()
    artifact = ValidationArtifact(
        kind="robustness", config=summary["config"],
        results={k: v for k, v in summary.items() if k != "config"},
    )
    out = args.out or default_artifact_path("robustness", *families)
    path = save_artifact(artifact, out)
    lines = [
        f"robustness at nominal {args.level:.0%} — "
        f"{len(spec.cells())} cells x {spec.replications} replications "
        f"({timing.seconds:.1f}s, workers={args.workers or 'auto'})"
    ]
    for cell in result.cells:
        cols = "   ".join(
            f"{label} {cell.coverage(label, 'residual'):.3f}"
            for label in spec.labels()
        )
        lines.append(
            f"  {cell.family:<20} sev={cell.severity:<5g} "
            f"residual coverage: {cols}"
        )
    if spec.sandwich and "VB2" in spec.methods:
        flag = result.sandwich_recovers_half_on_contamination()
        verdict = "yes" if flag else "no"
        lines.append(
            f"  {SANDWICH_LABEL} recovers >= half of lost coverage on a "
            f"contamination cell: {verdict}"
        )
    lines.append(f"artifact: {path}")
    return "\n".join(lines)


def _run_simulate(args) -> str:
    from repro.data.io import save_failure_times_csv
    from repro.data.simulation import simulate_failure_times
    from repro.models.registry import make_model

    model = make_model(args.model, omega=args.omega, beta=args.beta)
    rng = np.random.default_rng(args.seed)
    data = simulate_failure_times(model, args.horizon, rng)
    lines = [f"simulated {data.count} failures from {model!r} "
             f"over horizon {args.horizon:g}"]
    if args.out:
        save_failure_times_csv(data, args.out)
        lines.append(f"written to {args.out}")
    else:
        lines.append("times: " + ", ".join(f"{t:.6g}" for t in data.times))
    return "\n".join(lines)


def _run_report(args) -> str:
    import json as _json
    from pathlib import Path

    from repro.exceptions import TelemetryError
    from repro.obs import (
        build_profile,
        fold_stacks,
        load_validated_trace,
        render_profile,
        render_report,
        summarise_report,
    )
    from repro.obs.report import render_metrics

    try:
        events = load_validated_trace(args.trace_file)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}") from exc
    except TelemetryError as exc:
        raise SystemExit(f"error: invalid trace: {exc}") from exc

    want_profile = args.profile or args.folded
    profile_root = None
    if want_profile:
        try:
            profile_root = build_profile(events)
        except ValueError as exc:
            raise SystemExit(f"error: invalid trace: {exc}") from exc
    if args.folded:
        Path(args.folded).write_text(
            "\n".join(fold_stacks(profile_root)) + "\n"
        )

    if args.format == "json":
        payload = summarise_report(events)
        if args.profile:
            payload["profile"] = profile_root.to_dict()
        return _json.dumps(payload, indent=2, sort_keys=True)

    parts = [render_report(events)]
    if args.metrics:
        parts.append("## metrics snapshot\n" + render_metrics(events))
    if args.profile:
        parts.append("## span profile\n" + render_profile(profile_root))
    if args.folded:
        parts.append(f"folded stacks written to {args.folded}\n")
    return "\n".join(parts).rstrip()


def _run_cache(args) -> int:
    import json as _json

    from repro.cache.store import PosteriorCache

    cache = PosteriorCache(args.cache_dir)
    if args.cache_command == "stats":
        payload = {
            "cache_dir": str(args.cache_dir),
            "entries": len(cache.disk_entries()),
            "disk_bytes": cache.disk_bytes(),
        }
        if args.format == "json":
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(
                f"cache {payload['cache_dir']}: {payload['entries']} "
                f"artifacts, {payload['disk_bytes']} bytes on disk"
            )
        return 0
    removed = cache.clear()
    print(f"cache {args.cache_dir}: removed {removed} artifacts")
    return 0


def _run_bench(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.exceptions import TelemetryError
    from repro.obs import compare_bench, load_ledger, render_ledger
    from repro.obs import self_check_bench

    if args.bench_command == "report":
        bench_dir = Path(args.dir)
        paths = sorted(bench_dir.glob("BENCH_*.json"))
        if not paths:
            raise SystemExit(f"error: no BENCH_*.json files in {bench_dir}")
        try:
            ledgers = [load_ledger(path) for path in paths]
        except TelemetryError as exc:
            raise SystemExit(f"error: {exc}") from exc
        if args.format == "json":
            print(_json.dumps(ledgers, indent=2, sort_keys=True))
        else:
            print(render_ledger(ledgers), end="")
        return 0

    baseline_dir = Path(args.baseline_dir)
    failures: list[str] = []
    try:
        if args.fresh:
            for fresh_path in map(Path, args.fresh):
                baseline_path = baseline_dir / fresh_path.name
                if not baseline_path.exists():
                    raise SystemExit(
                        f"error: no committed baseline {baseline_path} "
                        f"for {fresh_path}"
                    )
                found = compare_bench(
                    load_ledger(fresh_path), load_ledger(baseline_path)
                )
                label = fresh_path.name
                if found:
                    failures += [f"{label}: {msg}" for msg in found]
                else:
                    print(f"ok: {label} within the gate vs baseline")
        else:
            paths = sorted(baseline_dir.glob("BENCH_*.json"))
            if not paths:
                raise SystemExit(
                    f"error: no BENCH_*.json baselines in {baseline_dir}"
                )
            for path in paths:
                found = self_check_bench(load_ledger(path))
                if found:
                    failures += [f"{path.name}: {msg}" for msg in found]
                else:
                    print(f"ok: {path.name} passes its own checks")
    except TelemetryError as exc:
        raise SystemExit(f"error: {exc}") from exc
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


def _dispatch(args) -> int:
    """Run the selected command (inside the trace context, if any)."""
    if args.command == "fit":
        print(_run_fit(args))
        return 0
    if args.command == "simulate":
        try:
            print(_run_simulate(args))
        except ModelSpecificationError as exc:
            raise SystemExit(f"error: {exc}") from exc
        return 0
    if args.command == "validate":
        try:
            if args.validate_command == "sbc":
                print(_run_validate_sbc(args))
            elif args.validate_command == "robustness":
                print(_run_validate_robustness(args))
            else:
                print(_run_validate_coverage(args))
        except ValueError as exc:
            # Campaign specs validate their own fields; surface those
            # messages as clean CLI errors rather than tracebacks.
            raise SystemExit(f"error: {exc}") from exc
        return 0
    scale = PAPER_SCALE if args.scale == "paper" else QUICK_SCALE
    workers = None if args.workers == 0 else args.workers
    results = None
    names = [args.command]
    if args.command == "all":
        from repro.experiments import table1

        # One fit per scenario serves every table and the figure.
        results = table1.run(scale=scale, workers=workers)
        names = list(_EXPERIMENTS)
    for name in names:
        print(_run_experiment(name, scale, args.out, workers=workers, results=results))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro import obs

    args = build_parser().parse_args(argv)
    obs.configure_verbosity(args.verbose)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "report":
        try:
            print(_run_report(args))
        except BrokenPipeError:
            # Reader (e.g. `| head`) closed the pipe early — not an
            # error. Detach stdout so interpreter shutdown doesn't
            # complain about the unflushable buffer.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return 0
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _dispatch(args)
    command = args.command
    if command == "validate":
        command = f"validate {args.validate_command}"
    with obs.tracing(trace_path, level=args.trace_level, command=command):
        code = _dispatch(args)
    print(f"trace written to {trace_path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
