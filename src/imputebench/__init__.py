"""Mixed-type missing-data imputation methods and a benchmark harness."""

from .bench import (
    ExperimentConfig,
    MetricsReport,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    predict_cv,
    run_imputation_experiment,
    run_post_imputation,
)
from .imputers import ImputationResult, Imputer
from .missingness import MissSpec, assign_folds, inject_mcar
from .registry import METHOD_NAMES, make_imputer
from .tabular import (
    FRAMINGHAM_SCHEMA,
    Column,
    ColumnKind,
    MixedTable,
    Schema,
    complete_subset,
    denormalize,
    fit_normalizer,
    load_csv,
    normalize,
)

__version__ = "0.1.0"
