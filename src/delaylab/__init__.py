"""delaylab: delay embeddings, local-averaging predictability estimates and
information-dimension estimators for low-dimensional dynamical systems."""

from .dimension import (
    ball_mass_dimension,
    box_counting_idim,
    DimensionEstimate,
    EmpiricalMeasure,
    sample_model_measure,
)
from .dynamics import (
    DivergenceError,
    SystemConfig,
    trajectory,
    VisitRecord,
    visit_statistics,
)
from .embedding import DelaySeries, delay_map, delay_series, export_csv, PairedVectors
from .csvio import emit_csv
from .experiments import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    RunSummary,
)
from .observables import evaluate, monomial_basis, Observable, perturb
from .predictability import (
    chi_sigma,
    neighbor_indices,
    predict_next,
    predictability_report,
    sigma_profile,
    SigmaEstimate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
