import dataclasses
import inspect

import numpy as np
import pytest

from imputebench import forest as rf
from imputebench import seeding, split

from conftest import make_rng
from forest_reference import lone_tree, trees


def brute_force_best_split(X, y, task):
    """Exhaustive search over all (feature, midpoint-threshold) splits."""
    def impurity(v):
        if task == rf.REGRESSION:
            return np.var(v)
        p = np.mean(v)
        return 2 * p * (1 - p)

    n = y.size
    parent = impurity(y)
    best = (0.0, None, None)
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        for a, b in zip(uniq[:-1], uniq[1:]):
            thr = (a + b) / 2
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            gain = parent - (left.size * impurity(left) + right.size * impurity(right)) / n
            if gain > best[0] + 1e-12:
                best = (gain, j, thr)
    return best


def is_leaf(tree, i):
    return tree.left[i] == -1


def test_constant_target_single_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([4.0, 4.0, 4.0])
    tree = lone_tree(X, y, rf.TreeConfig(task=rf.REGRESSION))
    assert is_leaf(tree, 0)
    assert tree.value[0] == 4.0


def test_perfectly_separable_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = lone_tree(X, y, rf.TreeConfig(task=rf.CLASSIFICATION))
    assert not is_leaf(tree, 0)
    assert 2.0 < tree.threshold[0] < 3.0
    left, right = tree.left[0], tree.right[0]
    assert is_leaf(tree, left) and tree.value[left] == 0.0
    assert is_leaf(tree, right) and tree.value[right] == 1.0


def test_depth2_structure_matches_brute_force():
    rng = make_rng(3)
    X = rng.uniform(0, 1, size=(8, 2))
    y = rng.uniform(0, 1, size=8)
    tree = lone_tree(X, y, rf.TreeConfig(task=rf.REGRESSION, max_depth=2))
    _, j, thr = brute_force_best_split(X, y, rf.REGRESSION)
    assert tree.feature[0] == j
    assert tree.threshold[0] == pytest.approx(thr)
    left = X[:, j] <= thr
    for node, rows in ((tree.left[0], left), (tree.right[0], ~left)):
        if is_leaf(tree, node):
            continue
        _, jj, tt = brute_force_best_split(X[rows], y[rows], rf.REGRESSION)
        assert tree.feature[node] == jj
        assert tree.threshold[node] == pytest.approx(tt)


def test_splits_never_increase_impurity():
    rng = make_rng(9)
    for task in (rf.REGRESSION, rf.CLASSIFICATION):
        X = rng.uniform(0, 1, size=(60, 3))
        y = (
            rng.uniform(0, 1, 60)
            if task == rf.REGRESSION
            else rng.integers(0, 2, 60).astype(float)
        )
        tree = lone_tree(X, y, rf.TreeConfig(task=task, max_depth=4))

        def walk(node, rows):
            if is_leaf(tree, node):
                return
            def imp(v):
                if task == rf.REGRESSION:
                    return np.var(v)
                p = np.mean(v)
                return 2 * p * (1 - p)
            yv = y[rows]
            left = rows[X[rows, tree.feature[node]] <= tree.threshold[node]]
            right = rows[X[rows, tree.feature[node]] > tree.threshold[node]]
            child = (left.size * imp(y[left]) + right.size * imp(y[right])) / rows.size
            assert child <= imp(yv) + 1e-12
            walk(tree.left[node], left)
            walk(tree.right[node], right)

        walk(0, np.arange(60))


def test_errors():
    with pytest.raises(ValueError):
        lone_tree(np.empty((0, 2)), np.empty(0), rf.TreeConfig())
    with pytest.raises(ValueError, match="X has a missing entry at row 0, column 0"):
        lone_tree(np.array([[np.nan]]), np.array([1.0]), rf.TreeConfig())
    with pytest.raises(ValueError, match="X has an infinite entry at row 1, column 1"):
        lone_tree(np.array([[0.0, 1.0], [2.0, -np.inf]]), np.zeros(2), rf.TreeConfig())
    X = np.array([[1.0], [2.0]])
    for task in (rf.REGRESSION, rf.CLASSIFICATION):
        with pytest.raises(ValueError, match="y must be finite; row 1 is nan"):
            lone_tree(X, np.array([0.0, np.nan]), rf.TreeConfig(task=task))
        with pytest.raises(ValueError, match="y must be finite; row 0 is inf"):
            lone_tree(X, np.array([np.inf, 1.0]), rf.TreeConfig(task=task))
    # a label of 2 would score Gini impurities of a non-binary target
    with pytest.raises(ValueError, match=r"classification y must be 0 or 1; row 1 is 2\.0"):
        lone_tree(X, np.array([1.0, 2.0]), rf.TreeConfig(task=rf.CLASSIFICATION))
    with pytest.raises(ValueError, match=r"classification y must be 0 or 1; row 0 is 0\.5"):
        lone_tree(X, np.array([0.5, 1.0]), rf.TreeConfig(task=rf.CLASSIFICATION))
    assert lone_tree(X, np.array([1.0, 2.0]), rf.TreeConfig()).left.size == 3
    with pytest.raises(ValueError):
        rf.fit_forest(X, np.array([0.0, 1.0]), rf.TreeConfig(), n_trees=0)
    model = rf.fit_forest(X, np.array([0.0, 1.0]), rf.TreeConfig(), n_trees=2)
    with pytest.raises(ValueError):
        rf.predict_forest(model, np.ones((3, 2)))
    # a non-finite row would go right at every node and score like a real one
    X = np.arange(4.0)[:, None]
    model = rf.fit_forest(X, np.array([0.0, 0.0, 1.0, 1.0]), rf.TreeConfig(task=rf.CLASSIFICATION))
    with pytest.raises(ValueError, match="X has a missing entry at row 0, column 0"):
        rf.predict_forest(model, np.array([[np.nan], [np.inf], [-np.inf]]))
    with pytest.raises(ValueError, match="X has an infinite entry at row 1, column 0"):
        rf.predict_forest(model, np.array([[0.5], [-np.inf]]))
    # a shared pass names the problem its rows count in
    good = (X, np.zeros(4), 1)
    with pytest.raises(ValueError, match="^problem 1: X has a missing entry at row 2, column 0$"):
        rf.fit_forests([good, (np.array([[0.0], [1.0], [np.nan]]), np.zeros(3), 2)], rf.TreeConfig())
    with pytest.raises(ValueError, match="^problem 2: X has 2 columns, problem 0's 1$"):
        rf.fit_forests([good, good, (np.ones((3, 2)), np.zeros(3), 3)], rf.TreeConfig())
    with pytest.raises(ValueError, match="^X has a missing entry at row 0, column 0$"):
        rf.fit_forests([(np.array([[np.nan]]), np.zeros(1), 1)], rf.TreeConfig())
    assert rf.fit_forests([], rf.TreeConfig()) == []


def test_forest_determinism():
    rng = make_rng(6)
    X = rng.uniform(0, 1, size=(50, 3))
    y = rng.integers(0, 2, 50).astype(float)
    probe = rng.uniform(0, 1, size=(20, 3))
    config = rf.TreeConfig(task=rf.CLASSIFICATION)
    a = rf.predict_forest(rf.fit_forest(X, y, config, 20, seed=7), probe)
    b = rf.predict_forest(rf.fit_forest(X, y, config, 20, seed=7), probe)
    assert np.array_equal(a, b)


def test_linearly_separable_accuracy():
    rng = make_rng(8)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    model = rf.fit_forest(X, y, rf.TreeConfig(task=rf.CLASSIFICATION), n_trees=100, seed=1)
    preds = (rf.predict_forest(model, X) >= 0.5).astype(float)
    assert np.mean(preds == y) >= 0.95


def test_prediction_is_mean_of_trees():
    rng = make_rng(10)
    X = rng.uniform(0, 1, size=(40, 2))
    y = rng.uniform(0, 1, 40)
    model = rf.fit_forest(X, y, rf.TreeConfig(max_depth=3), n_trees=3, seed=2)
    probe = rng.uniform(0, 1, size=(15, 2))
    per_tree = [tree.value[rf._leaves(tree, [r], probe)] for tree, r in trees(model)]
    manual = np.mean(per_tree, axis=0)
    assert np.max(np.abs(rf.predict_forest(model, probe) - manual)) < 1e-12


def test_prediction_ranges():
    rng = make_rng(12)
    X = rng.uniform(0, 1, size=(50, 2))
    y = rng.uniform(3.0, 9.0, 50)
    model = rf.fit_forest(X, y, rf.TreeConfig(max_depth=4), n_trees=10, seed=3)
    preds = rf.predict_forest(model, rng.uniform(-2, 3, size=(30, 2)))
    assert preds.min() >= y.min() and preds.max() <= y.max()
    yc = rng.integers(0, 2, 50).astype(float)
    cls = rf.fit_forest(X, yc, rf.TreeConfig(task=rf.CLASSIFICATION), 10, seed=4)
    scores = rf.predict_forest(cls, X)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_depth": 0}, "max_depth must be >= 1 or None"),
        ({"max_depth": -1}, "max_depth must be >= 1 or None"),
        # a task is spelled as its constant is, in lower case
        ({"task": "Regression"}, "^unknown task 'Regression'$"),
        ({"task": "ranking"}, "unknown task"),
        ({"task": None}, "^unknown task None$"),
        ({"task": ""}, "^unknown task ''$"),
        # a split criterion is no task
        ({"task": "gini"}, "^unknown task 'gini'$"),
        # no depth limit is None, not an infinite float or a string
        ({"max_depth": float("inf")}, "^max_depth must be >= 1 or None, and an int; got inf$"),
        ({"max_depth": "None"}, "^max_depth must be >= 1 or None, and an int; got 'None'$"),
        ({"max_depth": False}, "^max_depth must be >= 1 or None, and an int; got False$"),
        ({"max_depth": -3}, "^max_depth must be >= 1 or None, and an int; got -3$"),
        # a depth counts levels: 2.5 would grow like 3 and True like 1
        ({"max_depth": 2.5}, r"^max_depth must be >= 1 or None, and an int; got 2\.5$"),
        ({"max_depth": True}, "^max_depth must be >= 1 or None, and an int; got True$"),
        ({"max_depth": 3.0}, r"^max_depth must be >= 1 or None, and an int; got 3\.0$"),
        ({"max_depth": "3"}, "^max_depth must be >= 1 or None, and an int; got '3'$"),
    ],
)
def test_tree_config_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        rf.TreeConfig(**kwargs)


def test_every_forest_bootstraps_and_tries_sqrt_features():
    # Breiman's forest has no switch: no candidate rule and no bootstrap flag
    assert [f.name for f in dataclasses.fields(rf.TreeConfig)] == ["task", "max_depth"]
    params = inspect.signature(rf.fit_forest).parameters.values()
    assert [p.name for p in params] == ["X", "y", "config", "n_trees", "seed"]
    assert [p.default for p in params][3:] == [100, 0]
    assert list(inspect.signature(rf.fit_forests).parameters) == ["problems", "config", "n_trees"]
    with pytest.raises(TypeError, match="n_features_per_split"):
        rf.TreeConfig(n_features_per_split="all")
    with pytest.raises(TypeError, match="bootstrap"):
        rf.fit_forest(np.ones((2, 1)), np.zeros(2), rf.TreeConfig(), bootstrap=False)


@pytest.mark.parametrize("task", [rf.REGRESSION, rf.CLASSIFICATION])
def test_a_forest_on_no_feature_predicts_its_bootstrap_means(task):
    # no feature leaves no candidate: every tree is one leaf, its sample's mean
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    if task == rf.REGRESSION:
        y = y * 3.5 + np.arange(7.0)
    model = rf.fit_forest(np.empty((7, 0)), y, rf.TreeConfig(task=task), n_trees=6, seed=11)
    draws = (seeding.make_rng(seeding.derive_seed(11, "forest", t), "bootstrap") for t in range(6))
    means = [y[rng.integers(0, 7, 7)].mean() for rng in draws]
    assert len(set(means)) > 1  # the trees grew on different samples
    assert all(tree.left.size == roots.size for tree, roots in model.blocks)
    np.testing.assert_allclose(
        rf.predict_forest(model, np.empty((3, 0))), np.full(3, np.mean(means)), rtol=1e-12
    )


@pytest.mark.parametrize("splits", [False, True])
@pytest.mark.parametrize("task", [rf.CLASSIFICATION, rf.REGRESSION])
def test_fit_predict_forest_equals_predicting_the_fitted_forest(monkeypatch, task, splits):
    # 100 trees on 1,100 rows x 14 columns (3 candidates a split) pack as five
    # blocks of 19 trees and one of 5; the split side grows the last three in
    # a forked child, which returns their outputs on the eval rows
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: splits and n_items >= 2)
    rng = make_rng(30)
    X = np.c_[rng.normal(size=(1100, 8)), rng.integers(0, 2, size=(1100, 6))]
    y = X[:, 0] + X[:, 8] + rng.normal(size=1100)
    if task == rf.CLASSIFICATION:  # unbounded, as predict_cv grows them
        y, config = (y > 1.0).astype(float), rf.TreeConfig(task)
    else:
        config = rf.TreeConfig(task, max_depth=8)
    model = rf.fit_forest(X, y, config, n_trees=100, seed=4)
    assert [roots.size for _, roots in model.blocks] == [19] * 5 + [5]
    for n_eval in (0, 1, 200):
        X_eval = rng.normal(size=(n_eval, 14))
        got = rf.fit_predict_forest(X, y, X_eval, config, n_trees=100, seed=4)
        assert got.shape == (n_eval,)
        assert got.tobytes() == rf.predict_forest(model, X_eval).tobytes(), n_eval


@pytest.mark.parametrize(
    "X_eval, message",
    [
        (np.ones((3, 2)), r"^expected 1 features, got shape \(3, 2\)$"),
        (np.ones(3), r"^expected 1 features, got shape \(3,\)$"),
        (np.array([[0.5], [np.nan]]), "^X has a missing entry at row 1, column 0$"),
        (np.array([[-np.inf]]), "^X has an infinite entry at row 0, column 0$"),
    ],
)
def test_fit_predict_forest_checks_eval_rows_before_any_tree_grows(monkeypatch, X_eval, message):
    X, y = np.arange(4.0)[:, None], np.array([0.0, 0.0, 1.0, 1.0])
    model = rf.fit_forest(X, y, rf.TreeConfig(task=rf.CLASSIFICATION), n_trees=2)
    with pytest.raises(ValueError, match=message):
        rf.predict_forest(model, X_eval)
    monkeypatch.setattr(rf, "_grow", None)
    with pytest.raises(ValueError, match=message):
        rf.fit_predict_forest(X, y, X_eval, rf.TreeConfig(task=rf.CLASSIFICATION), n_trees=2)
