"""The level-wise forest engine against the recursive reference grower."""

import numpy as np
import pytest

from imputebench import forest as rf

from conftest import make_rng
from forest_reference import (
    assert_matches_reference,
    assert_same_forest,
    reference_forest,
    reference_predict,
)

TASKS = (rf.REGRESSION, rf.CLASSIFICATION)


def _data(task, n, p, seed, grid=0, scale=1.0, loc=0.0):
    rng = make_rng(seed)
    X = rng.normal(size=(n, p))
    if grid:
        X = np.round(X * grid) / grid  # many tied x values
    if task == rf.REGRESSION:
        y = loc + scale * rng.normal(size=n)
    else:
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(float)
    return X, y


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("max_depth", [None, 1, 2, 5])
@pytest.mark.parametrize("grid", [0, 2])
def test_trees_match_reference(task, max_depth, grid):
    for seed in range(4):
        X, y = _data(task, 70, 4, seed, grid=grid)
        assert_matches_reference(X, y, rf.TreeConfig(task=task, max_depth=max_depth))


@pytest.mark.parametrize("loc", [250.0, -1e4])
def test_raw_scale_regression_targets_match_reference(loc):
    # large means make the prefix-sum variances cancel; gains near the
    # _MIN_GAIN margin then depend on every rounding step
    for seed in range(6):
        X, y = _data(rf.REGRESSION, 90, 3, seed, grid=3, scale=30.0, loc=loc)
        if seed % 2:
            y = np.round(y)
        assert_matches_reference(X, y, rf.TreeConfig(max_depth=None))


@pytest.mark.parametrize("task", TASKS)
def test_constant_columns_and_constant_target(task):
    X, y = _data(task, 40, 3, 5)
    X[:, 1] = 2.5
    assert_matches_reference(X, y, rf.TreeConfig(task=task))
    X[:, :] = 1.0
    tree = assert_matches_reference(X, y, rf.TreeConfig(task=task))
    assert tree.left.size == 1
    tree = assert_matches_reference(X, np.full(40, 0.0), rf.TreeConfig(task=task))
    assert tree.left.size == 1 and tree.value[0] == 0.0


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_rows(task, n):
    X = np.array([[0.3, 1.0], [0.7, 1.0]])[:n]
    y = np.array([1.0, 0.0])[:n]
    tree = assert_matches_reference(X, y, rf.TreeConfig(task=task))
    assert tree.left.size == (1 if n == 1 else 3)


def test_midpoint_rounded_onto_a_value_makes_a_leaf():
    b = 1.0
    a = np.nextafter(b, 0.0)
    assert 0.5 * (a + b) == b  # the midpoint rounds onto b: no row goes right
    X = np.array([[a], [b], [a], [b]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    tree = assert_matches_reference(X, y, rf.TreeConfig(task=rf.CLASSIFICATION))
    assert tree.left.size == 1


@pytest.mark.parametrize("task", TASKS)
def test_equal_gains_keep_the_first_feature(task):
    X, y = _data(task, 60, 1, 13)
    # three columns in the same order give bit-equal gains at every node
    X = np.c_[np.zeros(60), X[:, 0], 3.0 * X[:, 0] + 1.0, X[:, 0]]
    tree = assert_matches_reference(X, y, rf.TreeConfig(task=task))
    assert tree.left.size > 1
    assert set(tree.feature[tree.left >= 0]) == {1}


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_trees_and_predictions_match_reference(task, bootstrap):
    X, y = _data(task, 60, 3, 7, grid=4)
    config = rf.TreeConfig(task=task, max_depth=6)
    model = rf.fit_forest(X, y, config, n_trees=9, seed=3, bootstrap=bootstrap)
    reference = reference_forest(X, y, config, 9, 3, bootstrap)
    assert_same_forest(model, reference)
    probe = make_rng(8).normal(size=(25, 3))
    expected = np.zeros(25)
    for node in reference:
        expected += reference_predict(node, probe)
    expected /= 9
    np.testing.assert_allclose(rf.predict_forest(model, probe), expected, rtol=1e-12, atol=0)
    for root, node in zip(model.roots, reference):
        leaves = rf._leaves(model.tree, [root], probe)
        np.testing.assert_allclose(
            model.tree.value[leaves], reference_predict(node, probe), rtol=1e-12, atol=0
        )


def _walk(tree, root):
    """Node ids of the tree at ``root``, depth first, left subtree first."""
    ids, stack = [], [root]
    while stack:
        i = stack.pop()
        ids.append(i)
        if tree.left[i] >= 0:
            stack += [tree.right[i], tree.left[i]]
    return np.array(ids)


def _same_forest(a, b):
    """Tree by tree, the same splits, values and shape; block layouts may differ."""
    assert a.n_trees == b.n_trees
    for r, s in zip(a.roots, b.roots):
        i, j = _walk(a.tree, r), _walk(b.tree, s)
        assert i.size == j.size
        assert np.array_equal(a.tree.left[i] < 0, b.tree.left[j] < 0)
        for field in ("feature", "threshold", "value"):
            assert np.array_equal(getattr(a.tree, field)[i], getattr(b.tree, field)[j]), field


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("rule", ["all", "sqrt", 2])
def test_block_size_does_not_change_the_forest(task, rule, monkeypatch):
    X, y = _data(task, 50, 5, 9, grid=2)
    probe = make_rng(10).normal(size=(30, 5))
    config = rf.TreeConfig(task=task, n_features_per_split=rule)
    fits, preds = [], []
    for block in (1, 1 << 30):  # one tree per block, then every tree in one block
        monkeypatch.setattr(rf, "_FOREST_BLOCK", block)
        fits.append(rf.fit_forest(X, y, config, n_trees=11, seed=4))
        preds.append(rf.predict_forest(fits[-1], probe))
    _same_forest(*fits)
    assert np.array_equal(*preds)


@pytest.mark.parametrize("block", [1, 1 << 30])  # one tree per block, one block
@pytest.mark.parametrize("task", TASKS)
def test_every_node_belongs_to_exactly_one_root(task, block, monkeypatch):
    X, y = _data(task, 45, 3, 14, grid=2)
    monkeypatch.setattr(rf, "_FOREST_BLOCK", block)
    model = rf.fit_forest(X, y, rf.TreeConfig(task=task, max_depth=6), n_trees=7, seed=5)
    assert model.roots.size == model.n_trees == 7
    walks = [_walk(model.tree, r) for r in model.roots]
    assert sum(w.size for w in walks) == model.tree.left.size
    assert np.array_equal(np.sort(np.concatenate(walks)), np.arange(model.tree.left.size))


def test_node_stats_equal_numpy_mean_and_var():
    rng = make_rng(11)
    counts = np.sort(rng.integers(1, 300, size=60))
    starts = np.cumsum(counts) - counts
    yv = rng.normal(250.0, 30.0, size=counts.sum())
    value, parent = rf._node_stats(yv, starts, counts, rf.REGRESSION)
    for i, (s, c) in enumerate(zip(starts, counts)):
        assert value[i] == np.mean(yv[s : s + c])
        assert parent[i] == np.var(yv[s : s + c])


def test_tree_arrays_are_level_ordered():
    X, y = _data(rf.REGRESSION, 80, 3, 12)
    tree = rf.fit_tree(X, y, rf.TreeConfig(max_depth=4))
    inner = np.flatnonzero(tree.left >= 0)
    assert np.all(tree.left[inner] > inner) and np.all(tree.right[inner] > inner)
    children = np.sort(np.r_[tree.left[inner], tree.right[inner]])
    assert np.array_equal(children, np.arange(1, tree.left.size))
    assert np.all(tree.feature[tree.left < 0] == -1)
    # every node of depth d comes before every node of depth d + 1
    depth = np.zeros(tree.left.size, dtype=int)
    for i in inner:
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    assert np.all(np.diff(depth) >= 0)
