import numpy as np
import pytest

from imputebench import forest as rf

from conftest import make_rng


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
    tree = rf.fit_tree(X, y, rf.TreeConfig(task=rf.REGRESSION))
    assert is_leaf(tree, 0)
    assert tree.value[0] == 4.0


def test_perfectly_separable_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = rf.fit_tree(X, y, rf.TreeConfig(task=rf.CLASSIFICATION))
    assert not is_leaf(tree, 0)
    assert 2.0 < tree.threshold[0] < 3.0
    left, right = tree.left[0], tree.right[0]
    assert is_leaf(tree, left) and tree.value[left] == 0.0
    assert is_leaf(tree, right) and tree.value[right] == 1.0


def test_depth2_structure_matches_brute_force():
    rng = make_rng(3)
    X = rng.uniform(0, 1, size=(8, 2))
    y = rng.uniform(0, 1, size=8)
    tree = rf.fit_tree(X, y, rf.TreeConfig(task=rf.REGRESSION, max_depth=2))
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
        tree = rf.fit_tree(X, y, rf.TreeConfig(task=task, max_depth=4))

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
        rf.fit_tree(np.empty((0, 2)), np.empty(0), rf.TreeConfig())
    with pytest.raises(ValueError):
        rf.fit_tree(np.array([[np.nan]]), np.array([1.0]), rf.TreeConfig())
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError):
        rf.fit_forest(X, np.array([0.0, 1.0]), rf.TreeConfig(), n_trees=0)
    model = rf.fit_forest(X, np.array([0.0, 1.0]), rf.TreeConfig(), n_trees=2)
    with pytest.raises(ValueError):
        rf.predict_forest(model, np.ones((3, 2)))


def test_single_tree_forest_without_bootstrap_equals_tree():
    rng = make_rng(4)
    X = rng.uniform(0, 1, size=(30, 2))
    y = rng.uniform(0, 1, 30)
    config = rf.TreeConfig(task=rf.REGRESSION, max_depth=3)
    model = rf.fit_forest(X, y, config, n_trees=1, seed=5, bootstrap=False)
    from imputebench.seeding import derive_seed

    tree = rf.fit_tree(X, y, config, derive_seed(5, "forest", 0))
    probe = rng.uniform(0, 1, size=(10, 2))
    assert np.array_equal(rf.predict_forest(model, probe), rf.predict_tree(tree, probe))


def test_forest_determinism():
    rng = make_rng(6)
    X = rng.uniform(0, 1, size=(50, 3))
    y = rng.integers(0, 2, 50).astype(float)
    probe = rng.uniform(0, 1, size=(20, 3))
    config = rf.TreeConfig(task=rf.CLASSIFICATION, n_features_per_split="sqrt")
    a = rf.predict_forest(rf.fit_forest(X, y, config, 20, seed=7), probe)
    b = rf.predict_forest(rf.fit_forest(X, y, config, 20, seed=7), probe)
    assert np.array_equal(a, b)


def test_linearly_separable_accuracy():
    rng = make_rng(8)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    config = rf.TreeConfig(task=rf.CLASSIFICATION, n_features_per_split="sqrt")
    model = rf.fit_forest(X, y, config, n_trees=100, seed=1)
    preds = (rf.predict_forest(model, X) >= 0.5).astype(float)
    assert np.mean(preds == y) >= 0.95


def test_prediction_is_mean_of_trees():
    rng = make_rng(10)
    X = rng.uniform(0, 1, size=(40, 2))
    y = rng.uniform(0, 1, 40)
    model = rf.fit_forest(X, y, rf.TreeConfig(max_depth=3), n_trees=3, seed=2)
    probe = rng.uniform(0, 1, size=(15, 2))
    per_tree = [model.tree.value[rf._leaves(model.tree, [r], probe)] for r in model.roots]
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
        ({"n_features_per_split": "bogus"}, "n_features_per_split must be 'all', 'sqrt'"),
        ({"task": "ranking"}, "unknown task"),
    ],
)
def test_tree_config_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        rf.TreeConfig(**kwargs)
