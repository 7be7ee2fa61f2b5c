"""CART decision trees and random forests, written from scratch on numpy.

Regression trees split on variance reduction, classification trees on Gini
impurity decrease; both consider only midpoints between consecutive sorted
unique feature values. Forests add seeded bootstrap sampling and per-node
feature subsampling. Classification leaves store the positive-class
fraction, so forest predictions are probabilities.

A tree is a set of parallel arrays in level order (`Tree`); a forest is one
such set holding every tree's nodes, with a root per tree. Trees grow
level by level, a block of trees at a time, in the exact-greedy presorted
scheme of XGBoost (Chen & Guestrin 2016) with exact CART midpoints: at each
depth one stable sort by (open node, candidate slot, x) lays out every
candidate column of every open node in the block, prefix sums that restart
at 0 per (node, slot) segment score every midpoint, and each node keeps the
first feature with the best gain. The prefix sums, node means and node
variances are the same float operations a per-node search makes
(sequential `np.cumsum`, `np.mean`, `np.var`), so under
``n_features_per_split="all"`` the trees equal those of a recursive grower.
Under a subset rule each tree's own generator draws the subsets of its open
nodes once per level, so a tree does not depend on the block it grew in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed, make_rng

__all__ = [
    "TreeConfig",
    "Tree",
    "ForestModel",
    "fit_tree",
    "fit_forest",
    "predict_tree",
    "predict_forest",
]

REGRESSION = "regression"
CLASSIFICATION = "classification"

_MIN_GAIN = 1e-12
_MIN_SAMPLES_SPLIT = 2
# Most (tree, open sample, candidate feature) elements one level of a block
# of trees lays out (8 bytes each per temporary); it also bounds the
# (tree, row) pairs predict moves at once.
_FOREST_BLOCK = 1 << 16


@dataclass(frozen=True)
class TreeConfig:
    """CART growth limits and the per-node feature subsampling rule."""

    task: str = REGRESSION
    max_depth: int | None = None
    n_features_per_split: int | str = "all"  # "all", "sqrt", or a count

    def __post_init__(self):
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        rule = self.n_features_per_split
        if isinstance(rule, str) and rule not in ("all", "sqrt"):
            raise ValueError(
                f"n_features_per_split must be 'all', 'sqrt' or a count, got {rule!r}"
            )

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
class Tree:
    """Fitted nodes as parallel arrays in level order; a lone tree's root is node 0.

    ``left[i] == -1`` marks a leaf, whose ``feature`` is -1. A row at an
    inner node goes to ``left[i]`` when ``x[feature[i]] <= threshold[i]``
    and to ``right[i]`` otherwise. ``value[i]`` is the mean target of the
    node's training rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class ForestModel:
    """A fitted forest: every tree's nodes in one `Tree`, tree t rooted at ``roots[t]``."""

    tree: Tree
    roots: np.ndarray
    n_features: int

    @property
    def n_trees(self) -> int:
        return self.roots.size


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-D matrix")
    if np.isnan(X).any():
        raise ValueError("X must not contain missing entries")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    return X, y


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among the column's distinct values.

    The smallest unsigned type that holds them, so sorts on up to 2**16
    distinct values take numpy's radix sort.
    """
    ranks = np.empty(X.shape, dtype=np.min_scalar_type(max(X.shape[0] - 1, 0)))
    for j in range(X.shape[1]):
        ranks[:, j] = np.unique(X[:, j], return_inverse=True)[1]
    return ranks


def _sorted_places(ranks, samples):
    """place[g, j]: where sample g falls in its tree's samples sorted by feature j.

    Ties keep sample order, as a stable argsort of the tree's column does.
    """
    n = samples.shape[1]
    place = np.empty((samples.size, ranks.shape[1]), dtype=np.int64)
    for t, rows in enumerate(samples):
        order = np.argsort(ranks[rows].T, axis=1, kind="stable")
        np.put_along_axis(place[t * n : (t + 1) * n].T, order, np.arange(n)[None, :], axis=1)
    return place


def _size_groups(lengths):
    """(length, first, stop) of each run of equal values in sorted ``lengths``."""
    sizes, first = np.unique(lengths, return_index=True)
    return zip(sizes, first, np.r_[first[1:], lengths.size])


def _node_stats(yv, starts, counts, task):
    """Per node: mean target and impurity, equal to np.mean / np.var of its rows.

    Nodes come in ascending size. The nodes of one size are the rows of one
    matrix, reduced row-wise with the operations np.mean and np.var make, so
    each row gets the pairwise summation a 1-D call on that node alone gets.
    """
    value = np.empty(counts.size)
    parent = np.empty(counts.size)
    for size, a, b in _size_groups(counts):
        rows = yv[starts[a] : starts[a] + (b - a) * size].reshape(b - a, size)
        mean = np.add.reduce(rows, axis=1, keepdims=True) / size
        value[a:b] = mean[:, 0]
        if task == REGRESSION:
            dev = rows - mean
            dev *= dev
            parent[a:b] = np.add.reduce(dev, axis=1) / size
    if task == CLASSIFICATION:
        parent = 2.0 * value * (1.0 - value)
    return value, parent


def _segment_cumsum(values, starts, lengths):
    """np.cumsum along the last axis of every segment on its own.

    Segments come in ascending length; those of one length are the rows of
    one matrix, so each prefix restarts at 0 and is the sequential sum a 1-D
    np.cumsum of that segment alone gives.
    """
    out = np.empty_like(values)
    for size, a, b in _size_groups(lengths):
        lo, hi = starts[a], starts[a] + (b - a) * size
        block = values[:, lo:hi].reshape(values.shape[0], b - a, size)
        out[:, lo:hi] = np.cumsum(block, axis=2).reshape(values.shape[0], -1)
    return out


def _draw_candidates(node_tree, rngs, m, n_features):
    """Sorted candidate features per open node, (nodes, m); nodes grouped by tree.

    With a subset rule each tree's generator draws the subsets of all its
    open nodes of the level at once, in their level order.
    """
    if m == n_features:
        return np.broadcast_to(np.arange(n_features), (node_tree.size, m))
    keys = np.empty((node_tree.size, n_features))
    first = np.flatnonzero(np.r_[True, node_tree[1:] != node_tree[:-1]])
    for lo, hi in zip(first, np.r_[first[1:], node_tree.size]):
        keys[lo:hi] = rngs[node_tree[lo]].random((hi - lo, n_features))
    return np.sort(np.argsort(keys, axis=1)[:, :m], axis=1)


def _best_splits(X, place, rows, ys, members, starts, counts, parent, cand, task):
    """(feature, threshold) of each open node's best split; feature -1 if none.

    Nodes come in ascending size. ``members[starts[i]:starts[i] + counts[i]]``
    are node i's samples; sample g is row ``rows[g]`` of X with target
    ``ys[g]``. Segment s of node i = s // m holds those samples sorted by
    feature ``cand[i, s % m]``, ties in sample order, as the per-node stable
    argsort would.
    """
    k, m = cand.shape
    n_features = X.shape[1]
    seg_len = np.repeat(counts, m)
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(k * m), seg_len)
    offset = np.arange(seg.size) - seg_start[seg]
    g = members[np.repeat(starts, m)[seg] + offset]
    feat = cand.ravel()[seg]
    # (segment, place) keys are unique: place < samples per tree <= len(place)
    g = g[np.argsort(seg * len(place) + place.ravel()[g * n_features + feat])]
    xs = X.ravel()[rows[g] * n_features + feat]
    ysorted = ys[g]
    stacked = ysorted[None] if task == CLASSIFICATION else np.stack([ysorted, ysorted**2])
    csum = _segment_cumsum(stacked, seg_start, seg_len)
    # boundary b splits its segment into n_left = offset[b] samples and the rest
    b = 1 + np.flatnonzero((xs[1:] > xs[:-1]) & (offset[1:] > 0))
    bseg = seg[b]
    end = (seg_start + seg_len - 1)[bseg]
    n = seg_len[bseg].astype(float)
    n_left = offset[b].astype(float)
    n_right = n - n_left
    sum_left = csum[0, b - 1]
    sum_right = csum[0, end] - sum_left
    if task == REGRESSION:
        sq_left = csum[1, b - 1]
        sq_right = csum[1, end] - sq_left
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
    # first minimum per segment; a NaN minimum matches nothing, like a NaN gain
    seg_child = np.full(k * m, np.nan)
    seg_threshold = np.zeros(k * m)
    if b.size:
        first = np.flatnonzero(np.r_[True, bseg[1:] != bseg[:-1]])
        lowest = np.minimum.reduceat(child, first)
        hit = np.flatnonzero(child == np.repeat(lowest, np.diff(np.r_[first, b.size])))
        hit = hit[np.r_[True, bseg[hit[1:]] != bseg[hit[:-1]]]]
        seg_child[bseg[hit]] = child[hit]
        seg_threshold[bseg[hit]] = 0.5 * (xs[b[hit] - 1] + xs[b[hit]])
    gain = parent[:, None] - seg_child.reshape(k, m)
    threshold = seg_threshold.reshape(k, m)
    best_gain = np.zeros(k)
    best_feature = np.full(k, -1)
    best_threshold = np.zeros(k)
    for s in range(m):  # candidates in feature order: the first best wins
        take = (gain[:, s] > best_gain + _MIN_GAIN) | (
            (best_feature == -1) & (gain[:, s] > _MIN_GAIN)
        )
        best_gain = np.where(take, gain[:, s], best_gain)
        best_feature = np.where(take, cand[:, s], best_feature)
        best_threshold = np.where(take, threshold[:, s], best_threshold)
    return best_feature, best_threshold


def _grow(X, ranks, y, samples, rngs, config: TreeConfig, first_id: int) -> Tree:
    """Grow one tree per row of ``samples`` (row indices into X), level by level.

    ``ranks`` are `_dense_ranks(X)`; ``rngs[t]`` draws tree t's feature
    subsets. Returns the block's nodes as one `Tree` whose ids count from
    ``first_id`` level by level, so tree t's root is ``first_id + t``.
    Within a level, nodes are laid out by ascending size (ties in their
    parents' order, left child first), so nodes and segments of equal size
    are contiguous.
    """
    n_trees, n = samples.shape
    n_features = X.shape[1]
    m = min(config.features_per_split(n_features), n_features)
    rows = samples.ravel()  # sample g belongs to tree g // n
    ys = y[rows]
    place = _sorted_places(ranks, samples) if m else None
    node_tree = np.arange(n_trees)
    counts = np.full(n_trees, n)
    members = np.arange(rows.size)  # open samples, grouped by node, in sample order
    levels = []
    depth = 0
    while counts.size:
        starts = np.cumsum(counts) - counts
        yv = ys[members]
        value, parent = _node_stats(yv, starts, counts, config.task)
        feature = np.full(counts.size, -1)
        threshold = np.zeros(counts.size)
        if m and (config.max_depth is None or depth < config.max_depth):
            i = np.flatnonzero(
                (counts >= _MIN_SAMPLES_SPLIT)
                & (np.minimum.reduceat(yv, starts) != np.maximum.reduceat(yv, starts))
            )
            if i.size:
                by_tree = np.argsort(node_tree[i], kind="stable")
                cand = np.empty((i.size, m), dtype=np.int64)
                cand[by_tree] = _draw_candidates(node_tree[i[by_tree]], rngs, m, n_features)
                feature[i], threshold[i] = _best_splits(
                    X, place, rows, ys, members, starts[i], counts[i], parent[i], cand,
                    config.task,
                )
        owner = np.repeat(np.arange(counts.size), counts)
        on = feature[owner] >= 0
        g, owner = members[on], owner[on]
        go_left = X[rows[g], feature[owner]] <= threshold[owner]
        n_left = np.bincount(owner, weights=go_left, minlength=counts.size)
        # adjacent values so close the midpoint rounded onto one of them
        feature[(n_left == 0) | (n_left == counts)] = -1
        threshold[feature < 0] = 0.0
        split = feature >= 0
        keep = split[owner]
        # children in parent order, left first, then laid out by size
        child = 2 * (np.cumsum(split) - 1)[owner[keep]] + ~go_left[keep]
        child_counts = np.bincount(child, minlength=2 * split.sum())
        layout = np.argsort(child_counts, kind="stable")
        slot = np.empty_like(layout)
        slot[layout] = np.arange(layout.size)
        next_id = first_id + counts.size
        left = np.full(counts.size, -1)
        right = np.full(counts.size, -1)
        left[split] = next_id + slot[0::2]
        right[split] = next_id + slot[1::2]
        levels.append((feature, threshold, left, right, value))
        members = g[keep][np.argsort(slot[child], kind="stable")]
        node_tree = np.repeat(node_tree[split], 2)[layout]
        counts = child_counts[layout]
        first_id = next_id  # id of the next level's first node
        depth += 1
    return Tree(*map(np.concatenate, zip(*levels)))


def fit_tree(X, y, config: TreeConfig, seed: int = 0) -> Tree:
    """Greedy CART over a seeded random feature subset at each node."""
    X, y = _check_xy(X, y)
    samples = np.arange(X.shape[0])[None, :]
    return _grow(X, _dense_ranks(X), y, samples, [make_rng(seed, "tree")], config, 0)


def _leaves(tree: Tree, roots, X: np.ndarray) -> np.ndarray:
    """Leaf reached by each (root, row) pair, root-major; all move one level per step."""
    n = X.shape[0]
    node = np.repeat(roots, n)
    moving = np.flatnonzero(tree.left[node] >= 0)
    while moving.size:
        at = node[moving]
        go_left = X[moving % n, tree.feature[at]] <= tree.threshold[at]
        at = np.where(go_left, tree.left[at], tree.right[at])
        node[moving] = at
        moving = moving[tree.left[at] >= 0]
    return node


def predict_tree(tree: Tree, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return tree.value[_leaves(tree, np.zeros(1, dtype=np.int64), X)]


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
    X, y = _check_xy(X, y)
    n, n_features = X.shape
    ranks = _dense_ranks(X)
    per_block = max(1, _FOREST_BLOCK // (n * max(1, config.features_per_split(n_features))))
    blocks, roots, n_nodes = [], [], 0
    for lo in range(0, n_trees, per_block):
        seeds = [derive_seed(seed, "forest", t) for t in range(lo, min(lo + per_block, n_trees))]
        samples = np.array(
            [
                make_rng(s, "bootstrap").integers(0, n, size=n) if bootstrap else np.arange(n)
                for s in seeds
            ]
        )
        rngs = [make_rng(s, "tree") for s in seeds]
        blocks.append(_grow(X, ranks, y, samples, rngs, config, n_nodes))
        roots.append(n_nodes + np.arange(len(seeds)))
        n_nodes += blocks[-1].left.size
    tree = Tree(*(np.concatenate(a) for a in zip(*(vars(b).values() for b in blocks))))
    return ForestModel(tree, np.concatenate(roots), n_features)


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Mean of tree outputs: regression value or positive-class probability."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    acc = np.zeros(X.shape[0])
    per_block = max(1, _FOREST_BLOCK // max(1, X.shape[0]))
    for lo in range(0, model.n_trees, per_block):
        roots = model.roots[lo : lo + per_block]
        for out in model.tree.value[_leaves(model.tree, roots, X)].reshape(roots.size, -1):
            acc += out
    return acc / model.n_trees
