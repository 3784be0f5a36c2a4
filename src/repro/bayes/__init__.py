"""Bayesian inference layer: priors, posterior abstractions, and the
three conventional approximation baselines (NINT, Laplace, MCMC)."""

from repro.bayes.priors import GammaPrior, FlatPrior, ScaleInvariantPrior, ModelPrior
from repro.bayes.joint import JointPosterior
from repro.bayes.nint import fit_nint
from repro.bayes.laplace import fit_laplace, find_map
from repro.bayes.grid_posterior import GridPosterior
from repro.bayes.normal_posterior import NormalPosterior
from repro.bayes.sample_posterior import EmpiricalPosterior

__all__ = [
    "GammaPrior",
    "FlatPrior",
    "ScaleInvariantPrior",
    "ModelPrior",
    "JointPosterior",
    "fit_nint",
    "fit_laplace",
    "find_map",
    "GridPosterior",
    "NormalPosterior",
    "EmpiricalPosterior",
]
