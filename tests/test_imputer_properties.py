"""Property test: every method imputes a random mixed table by the contract, or names the fault.

The hypothesis twin of the contract tests in test_imputers.py. Cases cover
schemas without numerical or without categorical columns, constant
columns, single-row targets, fully missing target rows, fewer training
rows than KNN's k, and a column observed in fewer than k training rows.
"""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from imputebench.registry import METHOD_NAMES, make_imputer  # noqa: E402
from imputebench.tabular import MixedTable  # noqa: E402

from conftest import make_rng, mixed_schema  # noqa: E402

# the fewest epochs, trees and sweeps that still run every step of a method
TINY = {
    "knn": {"k": 5},
    "missforest": {"n_trees": 2, "max_iter": 2},
    **{name: {"epochs": 2} for name in ("naa", "inaa", "gain", "igain")},
}
# a named error identifies the column or the row it is about
NAMED = re.compile(r"column '[^']+'|row \d+")


@st.composite
def cases(draw):
    """(schema, training table, target table, imputer seed) of one random case."""
    n_num = draw(st.integers(0, 3))
    n_cat = draw(st.integers(0 if n_num else 1, 3))
    schema = mixed_schema(n_num, n_cat)
    n_cols = schema.n_cols
    n_train = draw(st.integers(2, 12))
    n_rows = n_train + draw(st.integers(1, 6))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.empty((n_rows, n_cols))
    values[:, :n_num] = rng.uniform(-5.0, 20.0, (n_rows, n_num))
    values[:, n_num:] = rng.integers(0, 2, (n_rows, n_cat))
    constant = np.array(draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)))
    values[:, constant] = values[0, constant]
    holes = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    train_holes = holes[:n_train]  # a view: edits reach `holes`
    for j in np.flatnonzero(train_holes.all(axis=0)):
        train_holes[rng.integers(n_train), j] = False
    sparse = draw(st.none() | st.integers(0, n_cols - 1))
    if sparse is not None:  # observed in 1-4 training rows, below k = 5
        observed = min(draw(st.integers(1, 4)), n_train)
        train_holes[:, sparse] = True
        train_holes[rng.choice(n_train, observed, replace=False), sparse] = False
    if draw(st.booleans()):
        holes[rng.integers(n_train, n_rows)] = True  # a fully missing target row
    values[holes] = np.nan
    train = MixedTable(schema, values[:n_train])
    target = MixedTable(schema, values[n_train:])
    return schema, train, target, draw(st.integers(0, 2**31 - 1))


@pytest.mark.parametrize("name", METHOD_NAMES)
@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_random_case_imputes_by_contract_or_names_the_fault(name, case):
    schema, train, target, seed = case
    imputer = make_imputer(name, schema, seed, **TINY.get(name, {}))
    try:
        result = imputer.fit(train).impute(target)
    except ValueError as exc:
        assert NAMED.search(str(exc)), f"{name} raised an unnamed error: {exc}"
        return
    values = result.table.values
    assert not np.isnan(values).any()
    observed = ~np.isnan(target.values)
    assert np.array_equal(values[observed], target.values[observed])
    cat = schema.categorical_indices
    assert np.array_equal(values[:, cat], (result.scores[:, cat] >= 0.5).astype(float))
    num = schema.numerical_indices
    lo = np.nanmin(train.values[:, num], axis=0)
    hi = np.nanmax(train.values[:, num], axis=0)
    filled = np.where(observed[:, num], np.nan, values[:, num])
    assert not (filled < lo - 1e-9).any() and not (filled > hi + 1e-9).any()
