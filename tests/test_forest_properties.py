"""Property test: level-wise trees equal the recursive reference on random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from imputebench import forest as rf  # noqa: E402

from conftest import make_rng  # noqa: E402
from forest_reference import assert_matches_reference, assert_same_forest, reference_forest  # noqa: E402


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.integers(1, 5),
    task=st.sampled_from([rf.REGRESSION, rf.CLASSIFICATION]),
    max_depth=st.sampled_from([None, 1, 2, 3, 6]),
    grid=st.sampled_from([0, 1, 4]),
    loc=st.sampled_from([0.0, 250.0]),
    scale=st.sampled_from([1.0, 1e-4, 30.0]),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_matches_reference(n, p, task, max_depth, grid, loc, scale, constant, seed):
    rng = make_rng(seed)
    X = rng.normal(size=(n, p))
    if grid:
        # coarse values make many tied x values and equal-gain splits
        X = np.round(X * grid) / grid
    if constant:
        X[:, rng.integers(0, p)] = 0.5
    if task == rf.REGRESSION:
        y = loc + scale * rng.normal(size=n)
        if grid:
            y = np.round(y * grid) / grid
    else:
        y = rng.integers(0, 2, size=n).astype(float)
    assert_matches_reference(X, y, rf.TreeConfig(task=task, max_depth=max_depth))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 40),
    n_trees=st.integers(1, 6),
    task=st.sampled_from([rf.REGRESSION, rf.CLASSIFICATION]),
    block=st.sampled_from([1, 200, 1 << 30]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_matches_reference_for_any_block(n, n_trees, task, block, seed):
    rng = make_rng(seed)
    X = np.round(rng.normal(size=(n, 3)) * 2) / 2
    y = rng.normal(250.0, 30.0, size=n) if task == rf.REGRESSION else rng.integers(0, 2, n) * 1.0
    config = rf.TreeConfig(task=task, max_depth=5)
    saved = rf._FOREST_BLOCK
    rf._FOREST_BLOCK = block
    try:
        model = rf.fit_forest(X, y, config, n_trees=n_trees, seed=seed)
    finally:
        rf._FOREST_BLOCK = saved
    assert_same_forest(model, reference_forest(X, y, config, n_trees, seed))
