"""The paper's contribution: structured variational Bayes (VB2) for
gamma-type NHPP software reliability models, its predecessor VB1, and
posterior reliability inference."""

from repro.core.config import VBConfig
from repro.core.vb2 import fit_vb2
from repro.core.vb1 import fit_vb1
from repro.core.fleet import (
    FleetResult,
    fit_vb1_fleet,
    fit_vb2_fleet,
)
from repro.core.posterior import VBPosterior
from repro.core.reliability import (
    ReliabilityEstimate,
    estimate_reliability,
    reliability_increment,
)
from repro.core.prediction import PredictiveCounts, predict_failure_counts
from repro.core.expansion import (
    CornishFisherInterval,
    cornish_fisher_quantile,
    expansion_interval,
)
from repro.core.sequential import ReliabilityTracker, TrackingRecord
from repro.core.hpd import HPDInterval, hpd_interval

__all__ = [
    "FleetResult",
    "fit_vb2_fleet",
    "fit_vb1_fleet",
    "HPDInterval",
    "hpd_interval",
    "ReliabilityTracker",
    "TrackingRecord",
    "VBConfig",
    "fit_vb2",
    "fit_vb1",
    "VBPosterior",
    "ReliabilityEstimate",
    "estimate_reliability",
    "reliability_increment",
    "PredictiveCounts",
    "predict_failure_counts",
    "CornishFisherInterval",
    "cornish_fisher_quantile",
    "expansion_interval",
]
