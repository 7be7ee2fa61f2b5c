import re

import numpy as np
import pytest

from imputebench import forest as rf
from imputebench.bench import ExperimentConfig, SyntheticSpec, generate_synthetic, predict_cv
from imputebench.imputers import column_stats, knn_fill
from imputebench.missingness import assign_folds, inject_mcar
from imputebench.nn import LayerSpec
from imputebench.registry import METHOD_NAMES, make_imputer
from imputebench.resample import smote
from imputebench.seeding import derive_seed

from conftest import make_rng, mixed_schema, random_table

SCHEMA = mixed_schema(2, 1)
LABELLED = mixed_schema(2, 1, label="c0")
FOREST_X = np.arange(8.0).reshape(4, 2)
FOREST_Y = np.array([0.0, 1.0, 0.0, 1.0])


def _imbalanced():
    X = make_rng(4).uniform(0, 1, size=(20, 2))
    return X, np.array([0.0] * 14 + [1.0] * 6)


def _labelled_table():
    spec = SyntheticSpec(LABELLED, np.eye(3), prevalence={"c0": 0.3})
    return generate_synthetic(spec, 60, 1)


def _fit(method, seed):
    settings = {"epochs": 1} if method in ("naa", "inaa", "gain", "igain") else {}
    make_imputer(method, SCHEMA, seed, **settings).fit(random_table(SCHEMA, 20, 3, 0.2))


def _knn(k):
    train = random_table(SCHEMA, 6, 5).values
    knn_fill(train, random_table(SCHEMA, 2, 6, 0.3).values, k, SCHEMA, column_stats(train, SCHEMA))


# each seeded entry point, called with the given seed
SEEDED = {
    "generate_synthetic": lambda s: generate_synthetic(SyntheticSpec(SCHEMA, np.eye(3)), 10, s),
    "inject_mcar": lambda s: inject_mcar(random_table(SCHEMA, 10, 1), 0.2, s),
    "assign_folds": lambda s: assign_folds(20, 2, s),
    "fit_forest": lambda s: rf.fit_forest(FOREST_X, FOREST_Y, rf.TreeConfig(), 2, s),
    "smote": lambda s: smote(*_imbalanced(), s),
    "predict_cv": lambda s: predict_cv(
        _labelled_table(), s, ExperimentConfig(methods=["simple"], folds=2, forest_trees=2)
    ),
    **{f"make_imputer {m}": (lambda s, m=m: _fit(m, s)) for m in METHOD_NAMES},
}
# each count, as (the setting its error names, a call with the given value)
COUNTS = {
    "fit_forest n_trees": ("n_trees", lambda n: rf.fit_forest(FOREST_X, FOREST_Y, rf.TreeConfig(), n)),
    "knn_fill k": ("k", _knn),
    "LayerSpec width": ("layer width", LayerSpec),
    "assign_folds n_rows": ("n_rows", lambda n: assign_folds(n, 2, 0)),
    "assign_folds k": ("k", lambda k: assign_folds(20, k, 0)),
}
CASES = [
    pytest.param("seed", call, bad, id=f"{entry} seed={bad!r}")
    for entry, call in SEEDED.items()
    for bad in (2.5, "2", True, np.int64(2))
] + [
    pytest.param(name, call, bad, id=f"{entry}={bad!r}")
    for entry, (name, call) in COUNTS.items()
    for bad in (2.5, True)
]


@pytest.mark.parametrize("setting, call, bad", CASES)
def test_a_non_int_seed_or_count_is_a_named_error(setting, call, bad):
    # a float, string, bool or numpy integer would otherwise pass as
    # int(value) or fail deep inside numpy; make_imputer puts the method's
    # name before its class's message
    message = f"(^|: ){setting} must be .*an int \\(not a bool\\), got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize(
    "path, expected",
    [
        ((0, "folds", 0), 1626040586409005439),
        ((2**70, "forest", 3), 17465666558845502150),
        ((-5, "mcar", 1, 0.3), 10864471375156377277),
        ((7,), 10271071260543353465),
    ],
)
def test_derive_seed_values_are_pinned(path, expected):
    assert derive_seed(*path) == expected

