"""Decomposition analysis of group disparities in an outcome.

Three estimators attribute a group disparity to a mediator — regression
difference-in-coefficients, Kitagawa-Oaxaca-Blinder decomposition, and a
causal decomposition — plus partial-R-squared sensitivity
analysis for unmeasured mediator-outcome confounding, a linear-SEM
simulation harness with an analytic truth oracle, and a command line.
"""
from .cli import RenderedReport, main, render
from .decompose import (
    METHODS,
    CdaSettings,
    DecompositionResult,
    DicDetail,
    KobDetail,
    bootstrap,
    decompose_cda,
    decompose_dic,
    decompose_kob,
)
from .regress import EstimationError, OlsFit, fit_ols, partial_r2
from .sensitivity import (
    AdjustedResult,
    CovariateBenchmark,
    SensitivityGrid,
    SensitivityParams,
    adjust,
    benchmark,
    grid,
)
from .simulate import (
    ADJUSTED_METHOD,
    SCENARIOS,
    BaselineEquation,
    CellSummary,
    IntermediateEquation,
    MediatorEquation,
    MethodTruth,
    OutcomeEquation,
    ScenarioConfig,
    SemCoefficients,
    SimulationReport,
    TrueValues,
    baseline_pathway_contribution,
    compute_truths,
    config_from_json,
    default_coefficients,
    generate,
    implied_moments,
    intermediate_pathway_contribution,
    oracle_explained_bias,
    oracle_sensitivity_params,
    run_harness,
)
from .tabular import DataError, Dataset, RoleSpec, load_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DataError",
    "Dataset",
    "RoleSpec",
    "load_csv",
    "EstimationError",
    "OlsFit",
    "fit_ols",
    "partial_r2",
    "METHODS",
    "CdaSettings",
    "DecompositionResult",
    "DicDetail",
    "KobDetail",
    "bootstrap",
    "decompose_dic",
    "decompose_kob",
    "decompose_cda",
    "SensitivityParams",
    "AdjustedResult",
    "CovariateBenchmark",
    "SensitivityGrid",
    "adjust",
    "benchmark",
    "grid",
    "SCENARIOS",
    "ADJUSTED_METHOD",
    "BaselineEquation",
    "IntermediateEquation",
    "MediatorEquation",
    "OutcomeEquation",
    "SemCoefficients",
    "ScenarioConfig",
    "MethodTruth",
    "TrueValues",
    "CellSummary",
    "SimulationReport",
    "default_coefficients",
    "config_from_json",
    "generate",
    "implied_moments",
    "compute_truths",
    "baseline_pathway_contribution",
    "intermediate_pathway_contribution",
    "oracle_sensitivity_params",
    "oracle_explained_bias",
    "run_harness",
    "RenderedReport",
    "render",
    "main",
]
