"""CART decision trees and random forests, written from scratch on numpy.

Regression trees split on variance reduction, classification trees on Gini
impurity decrease; both consider only midpoints between consecutive sorted
unique feature values. Forests add seeded bootstrap sampling and per-node
feature subsampling. Classification leaves store the positive-class
fraction, so forest predictions are probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_seed, make_rng

__all__ = ["TreeConfig", "ForestModel", "fit_tree", "fit_forest", "predict_forest"]

REGRESSION = "regression"
CLASSIFICATION = "classification"

_MIN_GAIN = 1e-12
_MIN_SAMPLES_SPLIT = 2


@dataclass(frozen=True)
class TreeConfig:
    """CART growth limits and the per-node feature subsampling rule."""

    task: str = REGRESSION
    max_depth: int | None = None
    n_features_per_split: int | str = "all"  # "all", "sqrt", or a count

    def __post_init__(self):
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")

    def features_per_split(self, n_features: int) -> int:
        rule = self.n_features_per_split
        if rule == "all":
            return n_features
        if rule == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        m = int(rule)
        if not 1 <= m <= n_features:
            raise ValueError(f"n_features_per_split {m} outside [1, {n_features}]")
        return m


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class ForestModel:
    trees: list
    config: TreeConfig
    n_trees: int
    seed: int
    n_features: int


def _impurity(y: np.ndarray, task: str) -> float:
    if task == REGRESSION:
        return float(np.var(y))
    p = float(np.mean(y))
    return 2.0 * p * (1.0 - p)


def _best_split_for_feature(x: np.ndarray, y: np.ndarray, task: str):
    """Best (gain, threshold) splitting on one feature, or None.

    Uses prefix sums over the sorted column so every midpoint threshold is
    evaluated in O(n) after the sort. Gain is the impurity decrease
    weighted by child sizes, with the parent term left out (it is constant
    across features, so comparisons are unaffected); the caller re-adds it.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = xs.size
    boundaries = np.flatnonzero(xs[1:] > xs[:-1]) + 1  # left-child sizes
    if boundaries.size == 0:
        return None
    n_left = boundaries.astype(float)
    n_right = n - n_left
    csum = np.cumsum(ys)
    sum_left = csum[boundaries - 1]
    sum_right = csum[-1] - sum_left
    if task == REGRESSION:
        csq = np.cumsum(ys**2)
        sq_left = csq[boundaries - 1]
        sq_right = csq[-1] - sq_left
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        child = (n_left * var_left + n_right * var_right) / n
    else:
        p_left = sum_left / n_left
        p_right = sum_right / n_right
        child = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
    best = int(np.argmin(child))
    b = boundaries[best]
    threshold = 0.5 * (xs[b - 1] + xs[b])
    return float(child[best]), threshold


def _grow(X, y, config: TreeConfig, rng, depth: int) -> _Node:
    leaf_value = float(np.mean(y))
    n = y.size
    if (
        n < _MIN_SAMPLES_SPLIT
        or (config.max_depth is not None and depth >= config.max_depth)
        or np.all(y == y[0])
    ):
        return _Node(value=leaf_value)
    parent = _impurity(y, config.task)
    m = config.features_per_split(X.shape[1])
    if m < X.shape[1]:
        candidates = np.sort(rng.choice(X.shape[1], size=m, replace=False))
    else:
        candidates = np.arange(X.shape[1])
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for j in candidates:
        found = _best_split_for_feature(X[:, j], y, config.task)
        if found is None:
            continue
        child_impurity, threshold = found
        gain = parent - child_impurity
        if gain > best_gain + _MIN_GAIN or (best_feature == -1 and gain > _MIN_GAIN):
            best_gain, best_feature, best_threshold = gain, int(j), threshold
    if best_feature == -1:
        return _Node(value=leaf_value)
    go_left = X[:, best_feature] <= best_threshold
    if go_left.all() or not go_left.any():
        # adjacent values so close the midpoint rounded onto one of them
        return _Node(value=leaf_value)
    node = _Node(feature=best_feature, threshold=best_threshold, value=leaf_value)
    node.left = _grow(X[go_left], y[go_left], config, rng, depth + 1)
    node.right = _grow(X[~go_left], y[~go_left], config, rng, depth + 1)
    return node


def fit_tree(X, y, config: TreeConfig, seed: int = 0) -> _Node:
    """Greedy CART over a seeded random feature subset at each node."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-D matrix")
    if np.isnan(X).any():
        raise ValueError("X must not contain missing entries")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    return _grow(X, y, config, make_rng(seed, "tree"), depth=0)


def predict_tree(node: _Node, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, rows = stack.pop()
        if rows.size == 0:
            continue
        if nd.is_leaf:
            out[rows] = nd.value
            continue
        go_left = X[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[go_left]))
        stack.append((nd.right, rows[~go_left]))
    return out


def fit_forest(
    X,
    y,
    config: TreeConfig,
    n_trees: int = 100,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Bagged CART ensemble with pre-split per-tree seeds."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    trees = []
    n = X.shape[0]
    for t in range(n_trees):
        tree_seed = derive_seed(seed, "forest", t)
        if bootstrap:
            rows = make_rng(tree_seed, "bootstrap").integers(0, n, size=n)
            trees.append(fit_tree(X[rows], y[rows], config, tree_seed))
        else:
            trees.append(fit_tree(X, y, config, tree_seed))
    return ForestModel(trees, config, n_trees, seed, X.shape[1])


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Mean of tree outputs: regression value or positive-class probability."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += predict_tree(tree, X)
    return acc / model.n_trees
