"""Property test: level-wise trees equal the recursive reference on random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from imputebench import forest as rf  # noqa: E402

from conftest import make_rng  # noqa: E402
from forest_reference import (  # noqa: E402
    assert_matches_reference,
    assert_same_forest,
    reference_forest,
    trees,
)
from test_forest_kernel import _assert_roots_partition  # noqa: E402


def _two_valued_columns(X, count, rng):
    """Make the first ``count`` columns of X two-valued, {0, 1} or {-1.5, 4.0} in turn."""
    for j in range(min(count, X.shape[1])):
        low, high = ((0.0, 1.0), (-1.5, 4.0))[j % 2]
        X[:, j] = np.where(rng.random(X.shape[0]) < rng.random(), low, high)


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
    two_valued=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_matches_reference(
    n, p, task, max_depth, grid, loc, scale, constant, two_valued, seed
):
    rng = make_rng(seed)
    X = rng.normal(size=(n, p))
    if grid:
        # coarse values make many tied x values and equal-gain splits
        X = np.round(X * grid) / grid
    _two_valued_columns(X, two_valued, rng)
    if constant:
        X[:, rng.integers(0, p)] = 0.5
    if task == rf.REGRESSION:
        y = loc + scale * rng.normal(size=n)
        if grid:
            y = np.round(y * grid) / grid
    else:
        y = rng.integers(0, 2, size=n).astype(float)
    assert_matches_reference(X, y, rf.TreeConfig(task=task, max_depth=max_depth))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    n_trees=st.integers(1, 6),
    task=st.sampled_from([rf.REGRESSION, rf.CLASSIFICATION]),
    # each node tries sqrt(features): the one feature of 1, 1 of 3 and 2 of 5
    width=st.sampled_from([1, 3, 5]),
    block=st.sampled_from([1, 200, 1 << 30]),
    two_valued=st.integers(0, 3),
    copied=st.sampled_from([0, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_matches_reference_for_any_block(
    n, n_trees, task, width, block, two_valued, copied, seed
):
    rng = make_rng(seed)
    X = np.round(rng.normal(size=(n, width)) * 2) / 2
    _two_valued_columns(X, two_valued, rng)
    y = rng.normal(250.0, 30.0, size=n) if task == rf.REGRESSION else rng.integers(0, 2, n) * 1.0
    if copied:
        # every row a copy of one of a few: distinct rows that tie on every
        # column, next to the bootstrap's repeated draws of one row
        pick = rng.integers(0, min(copied, n), size=n)
        X, y = X[pick], y[pick]
    config = rf.TreeConfig(task=task, max_depth=5)
    saved = rf._FOREST_BLOCK
    rf._FOREST_BLOCK = block
    try:
        model = rf.fit_forest(X, y, config, n_trees=n_trees, seed=seed)
    finally:
        rf._FOREST_BLOCK = saved
    assert_same_forest(model, reference_forest(X, y, config, n_trees, seed))


def _preorder(tree, root):
    """The bytes of tree ``root``'s feature, threshold, value and inner-node flag, in preorder."""
    order, stack = [], [root]
    while stack:
        i = stack.pop()
        order.append(i)
        if tree.left[i] >= 0:
            stack += [tree.right[i], tree.left[i]]
    return [a[order].tobytes() for a in (tree.feature, tree.threshold, tree.value, tree.left >= 0)]


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=2, max_size=5),
    n_trees=st.integers(1, 4),
    task=st.sampled_from([rf.REGRESSION, rf.CLASSIFICATION]),
    # each node tries sqrt(features): 1 of 3 and 2 of 5
    width=st.sampled_from([3, 5]),
    # a few trees a block, so blocks straddle forests, up to one block for all
    block=st.one_of(st.integers(1, 300), st.just(1 << 30)),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_pass_equals_each_forest_alone(sizes, n_trees, task, width, block, seed):
    rng = make_rng(seed)
    problems = []
    for n in sizes:
        X = np.round(rng.normal(size=(n, width)) * 2) / 2
        y = rng.normal(250.0, 30.0, size=n) if task == rf.REGRESSION else rng.integers(0, 2, n) * 1.0
        problems.append((X, y, int(rng.integers(0, 2**32))))
    # column 0 is two-valued in the first problem's rows alone, so a
    # classification pass scores it from counts there but sorts it over the
    # stack, where the second problem gives it a third value
    _two_valued_columns(problems[0][0], 1, rng)
    problems[1][0][0, 0] = 0.25
    problems[-1][0][:, 2] = 0.5  # a constant column
    config = rf.TreeConfig(task=task, max_depth=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rf, "_FOREST_BLOCK", block)
        shared = rf.fit_forests(problems, config, n_trees)
    probe = np.round(rng.normal(size=(20, width)) * 2) / 2
    assert len(shared) == len(problems)
    # a block that forests share is one `Tree`, its nodes split among their roots
    _assert_roots_partition([pair for model in shared for pair in trees(model)])
    for model, (X, y, problem_seed) in zip(shared, problems):
        alone = rf.fit_forest(X, y, config, n_trees, problem_seed)
        assert model.n_trees == n_trees
        for got, expected in zip(trees(model), trees(alone), strict=True):
            assert _preorder(*got) == _preorder(*expected)
        for rows in (X, probe):
            expected = rf.predict_forest(alone, rows)
            assert rf.predict_forest(model, rows).tobytes() == expected.tobytes()
