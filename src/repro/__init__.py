"""repro: Variational Bayesian interval estimation for NHPP-based
software reliability models.

A faithful, self-contained reproduction of Okamura, Grottke, Dohi &
Trivedi, "Variational Bayesian Approach for Interval Estimation of
NHPP-Based Software Reliability Models" (DSN 2007), including every
baseline the paper compares against.

Quick start
-----------
>>> from repro import fit_vb2, ModelPrior, system17_failure_times
>>> data = system17_failure_times()
>>> prior = ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)
>>> posterior = fit_vb2(data, prior, alpha0=1.0)
>>> posterior.mean("omega") > 0
True
"""

import logging as _logging

# Library convention: never configure handlers on import; applications
# opt in (the CLI does via --verbose / repro.obs.configure_verbosity).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.core import (
    VBConfig,
    VBPosterior,
    ReliabilityEstimate,
    PredictiveCounts,
    CornishFisherInterval,
    estimate_reliability,
    expansion_interval,
    predict_failure_counts,
    fit_vb1,
    fit_vb2,
    FleetResult,
    fit_vb1_fleet,
    fit_vb2_fleet,
)
from repro.bayes import (
    EmpiricalPosterior,
    FlatPrior,
    GammaPrior,
    GridPosterior,
    JointPosterior,
    ModelPrior,
    NormalPosterior,
    find_map,
    fit_laplace,
    fit_nint,
)
from repro.core.sequential import ReliabilityTracker
from repro.bayes.mcmc import (
    ChainSettings,
    gibbs_failure_time,
    gibbs_grouped,
)
from repro.data import (
    FailureTimeData,
    GroupedData,
    ntds_failure_times,
    simulate_failure_times,
    simulate_grouped,
    system17_failure_times,
    system17_grouped,
)
from repro.models import (
    DelayedSShaped,
    GammaSRM,
    GoelOkumoto,
    NHPPModel,
    RayleighSRM,
    WeibullSRM,
    make_model,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core (the paper's contribution)
    "VBConfig",
    "VBPosterior",
    "ReliabilityEstimate",
    "PredictiveCounts",
    "CornishFisherInterval",
    "estimate_reliability",
    "expansion_interval",
    "predict_failure_counts",
    "fit_vb1",
    "fit_vb2",
    "FleetResult",
    "fit_vb1_fleet",
    "fit_vb2_fleet",
    # bayesian baselines
    "EmpiricalPosterior",
    "FlatPrior",
    "GammaPrior",
    "GridPosterior",
    "JointPosterior",
    "ModelPrior",
    "NormalPosterior",
    "find_map",
    "fit_laplace",
    "fit_nint",
    "ReliabilityTracker",
    "ChainSettings",
    "gibbs_failure_time",
    "gibbs_grouped",
    # data
    "FailureTimeData",
    "GroupedData",
    "ntds_failure_times",
    "simulate_failure_times",
    "simulate_grouped",
    "system17_failure_times",
    "system17_grouped",
    # models
    "DelayedSShaped",
    "GammaSRM",
    "GoelOkumoto",
    "NHPPModel",
    "RayleighSRM",
    "WeibullSRM",
    "make_model",
]
