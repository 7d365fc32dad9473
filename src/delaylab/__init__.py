"""delaylab: delay embeddings, local-averaging predictability estimates and
information-dimension estimators for low-dimensional dynamical systems."""

from .dimension import (
    ball_mass_dimension,
    box_counting_idim,
    DimensionEstimate,
    sample_model_measure,
)
from .dynamics import (
    DivergenceError,
    SystemConfig,
    trajectory,
    visit_statistics,
)
from .embedding import delay_map, delay_series, PairedVectors
from .csvio import emit_csv
from .experiments import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    RunSummary,
)
from .observables import evaluate, monomial_basis, Observable, perturb
from .predictability import chi_sigma, predictability_report, SigmaEstimate

__version__ = "0.1.0"

# the documented API; the README's "API" section lists the same names
__all__ = [
    "SystemConfig", "trajectory", "DivergenceError", "visit_statistics",
    "Observable", "monomial_basis", "perturb", "evaluate",
    "PairedVectors", "delay_series", "delay_map",
    "chi_sigma", "predictability_report", "SigmaEstimate",
    "sample_model_measure", "ball_mass_dimension", "box_counting_idim", "DimensionEstimate",
    "ExperimentConfig", "parse_config", "run_experiment", "RunSummary", "emit_csv",
]
