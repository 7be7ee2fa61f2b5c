"""Mixed-type missing-data imputation methods and a benchmark harness."""

import ctypes

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
from .missingness import assign_folds, inject_mcar
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


def _keep_freed_blocks() -> bool:
    """Have glibc's malloc reuse freed kernel temporaries; False off glibc.

    The kernels' per-block temporaries (0.5-8 MiB) sit above glibc's default
    128 KiB mmap threshold, or are trimmed off the heap top when freed, so
    every block mapped and zero-faulted fresh pages. Blocks up to 32 MiB now
    come from the heap, and the heap top is kept until 64 MiB are free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD from glibc's malloc.h
    return bool(mallopt(-3, 32 * 2**20)) and bool(mallopt(-1, 64 * 2**20))


_FREED_BLOCKS_KEPT = _keep_freed_blocks()
