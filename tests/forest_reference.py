"""Recursive CART grower: the reference the level-wise `forest` engine must match.

This is the node-by-node grower the flat engine replaced: one stable argsort
per candidate feature at every node, children grown left subtree first.
Without a generator it tries every feature and draws no random numbers, so
its trees must equal the engine's grown on every row over every feature
(`lone_tree`): same features, thresholds and child layout, leaf values
within 1e-12 relative. With one it tries sqrt(features) per split, as every
forest does, grows breadth first instead and draws each level's subsets in
the order the engine documents, so the trees must again be the engine's.
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


def _splittable(y, config, depth) -> bool:
    return not (
        y.size < rf._MIN_SAMPLES_SPLIT
        or (config.max_depth is not None and depth >= config.max_depth)
        or np.all(y == y[0])
    )


def _split(X, y, config, features):
    """(feature, threshold, go_left) of the best split over ``features`` in order, or None."""
    parent = _impurity(y, config.task)
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for j in features:
        found = _best_split_for_feature(X[:, j], y, config.task)
        if found is None:
            continue
        child_impurity, threshold = found
        gain = parent - child_impurity
        if gain > best_gain + rf._MIN_GAIN or (best_feature == -1 and gain > rf._MIN_GAIN):
            best_gain, best_feature, best_threshold = gain, j, threshold
    if best_feature == -1:
        return None
    go_left = X[:, best_feature] <= best_threshold
    if go_left.all() or not go_left.any():
        return None
    return best_feature, best_threshold, go_left


def _grow(X, y, config, depth):
    node = Node(value=float(np.mean(y)))
    found = _split(X, y, config, range(X.shape[1])) if _splittable(y, config, depth) else None
    if found is not None:
        node.feature, node.threshold, go_left = found
        node.left = _grow(X[go_left], y[go_left], config, depth + 1)
        node.right = _grow(X[~go_left], y[~go_left], config, depth + 1)
    return node


def _grow_by_levels(X, y, config, rng) -> Node:
    """The tree whose splits try sqrt(features) candidates, grown breadth first.

    Each level holds its nodes by ascending sample count, ties in their
    parents' order, left child first. One ``rng.random`` call draws a key row
    per splittable node of the level, in that order; a node's candidates are
    the features of its m smallest keys, in feature order.
    """
    m = min(X.shape[1], max(1, int(np.sqrt(X.shape[1]))))
    root = Node()
    level, depth = [(root, np.arange(y.size))], 0
    while level:
        open_ = [_splittable(y[rows], config, depth) for _, rows in level]
        keys = iter(rng.random((sum(open_), X.shape[1])) if any(open_) else ())
        children = []
        for (node, rows), is_open in zip(level, open_):
            node.value = float(np.mean(y[rows]))
            if not is_open:
                continue
            features = np.sort(np.argsort(next(keys))[:m])
            found = _split(X[rows], y[rows], config, features)
            if found is None:
                continue
            node.feature, node.threshold, go_left = found
            node.left, node.right = Node(), Node()
            children += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
        level = sorted(children, key=lambda child: child[1].size)
        depth += 1
    return root


def reference_tree(X, y, config, rng=None) -> Node:
    """The recursive grower's tree over every feature at every node.

    With ``rng``, the breadth-first tree whose sqrt(features) subsets it draws.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if rng is None:
        return _grow(X, y, config, 0)
    return _grow_by_levels(X, y, config, rng)


def reference_forest(X, y, config, n_trees, seed) -> list:
    """The reference trees on each tree's bootstrap sample, as `fit_forest` draws it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    trees = []
    for t in range(n_trees):
        tree_seed = derive_seed(seed, "forest", t)
        rows = make_rng(tree_seed, "bootstrap").integers(0, X.shape[0], size=X.shape[0])
        trees.append(reference_tree(X[rows], y[rows], config, make_rng(tree_seed, "tree")))
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


def trees(model: rf.ForestModel):
    """Each tree of `model` in tree order, as ``(its block's Tree, its root there)``."""
    for tree, roots in model.blocks:
        for root in roots:
            yield tree, root


def assert_same_forest(model: rf.ForestModel, nodes: list) -> None:
    """Tree t of `model`, walked from its root, has ``nodes[t]``'s layout.

    The walks' node counts add up to the forest's node count, so a fit of
    one problem holds no node that none of its trees reaches.
    """
    pairs = list(trees(model))
    assert len(pairs) == model.n_trees == len(nodes)
    compared = [assert_same_tree(tree, node, root) for (tree, root), node in zip(pairs, nodes)]
    grown = {id(tree): tree.left.size for tree, _ in pairs}
    assert sum(compared) == sum(grown.values())


def lone_tree(X, y, config) -> rf.Tree:
    """One tree the engine grows on every row (weight 1 each) over every feature, rooted at 0."""
    X, y = rf._check_xy(X, y, config.task)
    n, n_features = X.shape
    weights = np.ones(n) if config.task == rf.CLASSIFICATION else None
    rngs = [make_rng(0, "tree")]  # with every feature a candidate, its draws pick them all
    ranks = rf._dense_ranks(X)
    return rf._grow(X, ranks, y, np.arange(n), weights, np.array([n]), rngs, config, n_features)


def assert_matches_reference(X, y, config) -> rf.Tree:
    """A lone tree equals the recursive grower node for node; returns the tree."""
    tree = lone_tree(X, y, config)
    assert assert_same_tree(tree, reference_tree(X, y, config)) == tree.left.size
    return tree
