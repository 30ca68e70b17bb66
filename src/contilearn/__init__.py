"""Iterated nonlinear feature synthesis for binary classification.

The pipeline alternates convex logistic fits with feature construction:
bootstrap replicates of the regularized maximum-likelihood problem are
weighted by their full-data likelihood, the principal directions of the
weighted solution cloud redefine the features, and symmetric products of
the redefined features extend the space. Every round keeps the previous
best model representable while the parameter dimension stays capped.
"""

from .algebra import (
    AlgebraFitReport,
    StructureConstants,
    associativity_residual,
    fit_structure_constants,
    multiply,
    power_series,
    reference_algebra,
)
from .data import Dataset, Standardization, fit_standardization, load_csv, load_inputs
from .engine import EngineConfig, EngineResult, IterationReport, accuracy, oob_score, run
from .ensemble import (
    SolutionSet,
    fit_distribution,
    sample_plans,
    solve_replicates,
    weights_from_loglik,
)
from .errors import ConfigError, DataError, ModelFormatError, NumericalError
from .featuremap import (
    Layer,
    RecursiveFeatureMap,
    calibrate_layer,
    embed_mean_solution,
    expand,
    expansion_size,
)
from .model import Prior, gradient, hessian, log_likelihood, log_prior, predict_prob, sigmoid, softplus
from .modelio import RunConfig, TrainedModel, load_model, load_run_config, save_model
from .solver import Solution, SolverConfig, maximize
from .spectral import eig_sym, select_components

__version__ = "0.1.0"

__all__ = [
    "AlgebraFitReport",
    "ConfigError",
    "DataError",
    "Dataset",
    "EngineConfig",
    "EngineResult",
    "IterationReport",
    "Layer",
    "ModelFormatError",
    "NumericalError",
    "Prior",
    "RecursiveFeatureMap",
    "RunConfig",
    "Solution",
    "SolutionSet",
    "SolverConfig",
    "Standardization",
    "StructureConstants",
    "TrainedModel",
    "accuracy",
    "associativity_residual",
    "calibrate_layer",
    "eig_sym",
    "embed_mean_solution",
    "expand",
    "expansion_size",
    "fit_distribution",
    "fit_standardization",
    "fit_structure_constants",
    "gradient",
    "hessian",
    "load_csv",
    "load_inputs",
    "load_model",
    "load_run_config",
    "log_likelihood",
    "log_prior",
    "maximize",
    "multiply",
    "oob_score",
    "power_series",
    "predict_prob",
    "reference_algebra",
    "run",
    "sample_plans",
    "save_model",
    "select_components",
    "sigmoid",
    "softplus",
    "solve_replicates",
    "weights_from_loglik",
]
