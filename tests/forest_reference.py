"""Recursive CART grower: the reference the level-wise `forest` engine must match.

This is the node-by-node grower the flat engine replaced: one stable argsort
per candidate feature at every node, children grown left subtree first.
Under ``n_features_per_split="all"`` it draws no random numbers, so its trees
must equal the engine's: same features, thresholds and child layout, leaf
values within 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from imputebench import forest as rf
from imputebench.seeding import derive_seed, make_rng


@dataclass
class Node:
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _impurity(y, task):
    if task == rf.REGRESSION:
        return float(np.var(y))
    p = float(np.mean(y))
    return 2.0 * p * (1.0 - p)


def _best_split_for_feature(x, y, task):
    """Best (child impurity, threshold) splitting on one feature, or None."""
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
    if task == rf.REGRESSION:
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
    return float(child[best]), 0.5 * (xs[b - 1] + xs[b])


def _grow(X, y, config, depth):
    leaf_value = float(np.mean(y))
    if (
        y.size < rf._MIN_SAMPLES_SPLIT
        or (config.max_depth is not None and depth >= config.max_depth)
        or np.all(y == y[0])
    ):
        return Node(value=leaf_value)
    parent = _impurity(y, config.task)
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for j in range(X.shape[1]):
        found = _best_split_for_feature(X[:, j], y, config.task)
        if found is None:
            continue
        child_impurity, threshold = found
        gain = parent - child_impurity
        if gain > best_gain + rf._MIN_GAIN or (best_feature == -1 and gain > rf._MIN_GAIN):
            best_gain, best_feature, best_threshold = gain, j, threshold
    if best_feature == -1:
        return Node(value=leaf_value)
    go_left = X[:, best_feature] <= best_threshold
    if go_left.all() or not go_left.any():
        return Node(value=leaf_value)
    node = Node(feature=best_feature, threshold=best_threshold, value=leaf_value)
    node.left = _grow(X[go_left], y[go_left], config, depth + 1)
    node.right = _grow(X[~go_left], y[~go_left], config, depth + 1)
    return node


def reference_tree(X, y, config) -> Node:
    """The recursive grower's tree over every feature at every node."""
    assert config.n_features_per_split == "all"
    return _grow(np.asarray(X, dtype=float), np.asarray(y, dtype=float), config, 0)


def reference_forest(X, y, config, n_trees, seed, bootstrap=True) -> list:
    """The reference trees on each tree's bootstrap sample, as `fit_forest` draws it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    trees = []
    for t in range(n_trees):
        rows = np.arange(X.shape[0])
        if bootstrap:
            tree_seed = derive_seed(seed, "forest", t)
            rows = make_rng(tree_seed, "bootstrap").integers(0, X.shape[0], size=X.shape[0])
        trees.append(reference_tree(X[rows], y[rows], config))
    return trees


def reference_predict(node: Node, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        nd = node
        while not nd.is_leaf:
            nd = nd.left if x[nd.feature] <= nd.threshold else nd.right
        out[i] = nd.value
    return out


def assert_same_tree(tree: rf.Tree, node: Node, i: int = 0) -> int:
    """Flat `tree` from index i has `node`'s layout; returns the nodes compared."""
    value = tree.value[i]
    assert abs(value - node.value) <= 1e-12 * max(abs(node.value), 1e-300), (i, value, node.value)
    if node.is_leaf:
        assert tree.left[i] == -1 and tree.right[i] == -1 and tree.feature[i] == -1, i
        return 1
    assert tree.left[i] >= 0 and tree.right[i] >= 0, i
    assert tree.feature[i] == node.feature, (i, tree.feature[i], node.feature)
    assert tree.threshold[i] == node.threshold, (i, tree.threshold[i], node.threshold)
    return (
        1
        + assert_same_tree(tree, node.left, tree.left[i])
        + assert_same_tree(tree, node.right, tree.right[i])
    )


def assert_same_forest(model: rf.ForestModel, nodes: list) -> None:
    """Tree t of `model`, walked from ``roots[t]``, has ``nodes[t]``'s layout.

    The walks' node counts add up to the forest's node count.
    """
    assert model.roots.size == model.n_trees == len(nodes)
    compared = [
        assert_same_tree(model.tree, node, root)
        for root, node in zip(model.roots, nodes, strict=True)
    ]
    assert sum(compared) == model.tree.left.size


def assert_matches_reference(X, y, config, seed=0) -> rf.Tree:
    """`fit_tree` equals the recursive grower node for node; returns the tree."""
    tree = rf.fit_tree(X, y, config, seed)
    assert assert_same_tree(tree, reference_tree(X, y, config)) == tree.left.size
    return tree
