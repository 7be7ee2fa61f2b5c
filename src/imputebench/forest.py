"""CART decision trees and random forests, written from scratch on numpy.

Regression trees split on variance reduction, classification trees on Gini
impurity decrease; both consider only midpoints between consecutive sorted
unique feature values. Forests are Breiman's (2001): every tree grows on a
seeded bootstrap sample, and every split tries sqrt(features) candidate
features. Classification leaves store the positive-class fraction, so forest
predictions are probabilities.

A tree is a set of parallel arrays in level order (`Tree`); a forest keeps
the blocks its trees grew in, each one such set with a root per tree. Trees
grow level by level, a block of trees at a time, in the exact-greedy presorted
scheme of XGBoost (Chen & Guestrin 2016) with exact CART midpoints: at each
depth one sort by (open node, candidate slot, the column's dense value
rank, sample order) lays out every candidate column of every open node in
the block, prefix sums that restart at 0 per (node, slot) segment score
every midpoint, and each node keeps the first feature with the best gain.
For regression the prefix sums, node means and node variances are the same
float operations a per-node search makes (sequential `np.cumsum`,
`np.mean`, `np.var`) over the bootstrap sample with its duplicates, in draw
order, so `_grow` with every feature a candidate grows the trees of a
recursive grower.
Classification targets are 0 or 1, so every partial sum is an integer below
2**53 and exact in any order. A classification tree therefore grows on the
distinct rows of its bootstrap draw, each weighted by its number of draws
(about 63 % of n rows), and every count and sum is a weighted one that
equals the duplicated sample's: node means take one `reduceat` and prefix
sums one running sum per level minus each segment's start. A column with at
most two distinct values is not sorted at all. Its one midpoint is scored
from per-node counts of high samples and of positives on each side, SPRINT's
count matrix (Shafer, Agrawal & Mehta 1996), which are the sums at the
sorted segment's one boundary. Regression keeps the duplicates: a weight
would round its sequential and pairwise sums differently. Each tree's own
generator draws the candidate features of its open nodes once per level, so
a tree does not depend on the block it grew in. A block may hold
trees of several forests (`fit_forests`), which amortises the per-level
numpy calls over the trees of many small forests. `fit_predict_forest`
never assembles its forest: each block's trees predict the evaluation rows
in the process that grew them and are dropped, and the outputs add up in
tree order as `predict_forest` adds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import _check_int, derive_seed, make_rng
from .split import map_blocks

__all__ = [
    "TreeConfig",
    "Tree",
    "ForestModel",
    "fit_forest",
    "fit_forests",
    "predict_forest",
    "fit_predict_forest",
]

REGRESSION = "regression"
CLASSIFICATION = "classification"

_MIN_GAIN = 1e-12
_MIN_SAMPLES_SPLIT = 2
# Most (tree, open sample, candidate feature) elements one level of a block
# of trees lays out (8 bytes each per temporary); it also bounds the
# (tree, row) pairs predict moves at once.
_FOREST_BLOCK = 1 << 16
# Fewest tree blocks a fit splits with a forked child (`split.map_blocks`).
# A 100-tree fit on 800 rows under sqrt features has 4 blocks; the 16-tree
# MissForest forests of a 150-row table have one.
_FOREST_SPLIT_BLOCKS = 2


@dataclass(frozen=True)
class TreeConfig:
    """The task a tree fits and its depth limit."""

    task: str = REGRESSION
    max_depth: int | None = None

    def __post_init__(self):
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        depth = self.max_depth
        # bool is an int subclass; 2.5 would grow like 3 and True like 1
        if depth is not None and (type(depth) is not int or depth < 1):
            raise ValueError(f"max_depth must be >= 1 or None, and an int; got {depth!r}")


@dataclass
class Tree:
    """Fitted nodes of one or more trees as parallel arrays, each tree in level order.

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
    """A fitted forest: a ``(tree, roots)`` pair per tree block, in tree order: the
    block's `Tree` as grown (ids from 0, its tree i rooted at i) and this forest's roots."""

    blocks: list
    n_features: int

    @property
    def n_trees(self) -> int:
        return sum(roots.size for _, roots in self.blocks)


def _check_finite(X):
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        kind = "a missing" if np.isnan(X[row, col]) else "an infinite"
        raise ValueError(f"X has {kind} entry at row {row}, column {col}")


def _check_xy(X, y, task):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    _check_finite(X)
    if not np.isfinite(y).all():
        row = np.flatnonzero(~np.isfinite(y))[0]
        raise ValueError(f"y must be finite; row {row} is {y[row]}")
    if task == CLASSIFICATION and not np.isin(y, (0.0, 1.0)).all():
        row = np.flatnonzero(~np.isin(y, (0.0, 1.0)))[0]
        raise ValueError(f"classification y must be 0 or 1; row {row} is {y[row]}")
    return X, y


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among the column's distinct values.

    One argsort of all columns at once; a rank rises wherever a sorted
    column's value changes, so equal values (0.0 and -0.0 too) share one,
    as under np.unique. The smallest unsigned type that holds them, which
    keeps the per-level rank gathers in `_best_splits` and `_counted_splits`
    small; int64 ranks made a full-size regression forest about 15 %
    slower. The sort keys built from the ranks are int64 either way.
    """
    dtype = np.min_scalar_type(max(X.shape[0] - 1, 0))
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    sorted_ranks = np.zeros(X.shape, dtype=dtype)
    np.cumsum(ordered[1:] != ordered[:-1], axis=0, dtype=dtype, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=0)
    return ranks


def _size_groups(lengths):
    """(length, first, stop) of each run of equal values in sorted ``lengths``."""
    sizes, first = np.unique(lengths, return_index=True)
    # Python ints keep the callers' per-group offsets and slicing cheap
    return zip(sizes.tolist(), first.tolist(), first[1:].tolist() + [lengths.size])


def _node_stats(yv, starts, sizes, task):
    """Per node: mean target and impurity, equal to np.mean / np.var of its samples.

    Node i's elements start at ``yv[starts[i]]``; ``sizes[i]`` counts its
    samples. A classification element is a distinct row standing for its
    weight's worth of samples and carries target times weight, so a node's
    elements sum to its samples' sum: an integer below 2**53, exact in any
    order, so one reduceat gives the sum np.mean of the samples divides. A
    regression element is one sample, so sizes count elements too. Nodes come
    in ascending size and the nodes of one size are the rows of one matrix,
    reduced row-wise with the operations np.mean and np.var make, so each
    row gets the pairwise summation a 1-D call on that node alone gets.
    """
    if task == CLASSIFICATION:
        value = np.add.reduceat(yv, starts) / sizes
        return value, 2.0 * value * (1.0 - value)
    value = np.empty(sizes.size)
    parent = np.empty(sizes.size)
    lo = 0  # regression nodes' elements lie back to back
    for size, a, b in _size_groups(sizes):
        rows = yv[lo : lo + (b - a) * size].reshape(b - a, size)
        lo += (b - a) * size
        mean = np.add.reduce(rows, axis=1, keepdims=True) / size
        value[a:b] = mean[:, 0]
        dev = rows - mean
        dev *= dev
        parent[a:b] = np.add.reduce(dev, axis=1) / size
    return value, parent


def _segment_cumsum(values, lengths):
    """np.cumsum along the last axis of every segment on its own, in place.

    Segments come in ascending length and lie back to back over ``values``'
    last axis; those of one length are the rows of one matrix, so each
    prefix restarts at 0 and is the sequential sum a 1-D np.cumsum of that
    segment alone gives.
    """
    lo = 0
    for size, a, b in _size_groups(lengths):
        block = values[:, lo : lo + (b - a) * size].reshape(values.shape[0], b - a, size)
        np.add.accumulate(block, axis=2, out=block)
        lo += (b - a) * size
    return values


def _draw_candidates(node_tree, rngs, m, n_features):
    """Sorted candidate features per open node, (nodes, m); nodes grouped by tree.

    Each tree's generator draws a key per feature for all its open nodes of
    the level at once, in their level order; a node's candidates are the
    features of its m smallest keys, so at m = n_features every feature, in
    order.
    """
    keys = np.empty((node_tree.size, n_features))
    first = np.flatnonzero(np.append(True, node_tree[1:] != node_tree[:-1]))
    for lo, hi in zip(first, np.append(first[1:], node_tree.size)):
        keys[lo:hi] = rngs[node_tree[lo]].random((hi - lo, n_features))
    return np.sort(np.argsort(keys, axis=1)[:, :m], axis=1)


def _gini_child(n, n_left, sum_left, sum_right):
    """Size-weighted Gini impurity of the two children of a split of n samples.

    Overwrites its three boundary sums: the terms are formed in place, in the
    operation order of ``(n_left * 2.0 * p_left * (1.0 - p_left) + n_right *
    2.0 * p_right * (1.0 - p_right)) / n``, so each value is that expression's.
    """
    n_right = n - n_left
    for size, p in ((n_left, sum_left), (n_right, sum_right)):
        p /= size
        size *= 2.0
        size *= p
        np.subtract(1.0, p, out=p)
        size *= p
    n_left += n_right
    n_left /= n
    return n_left


def _counted_splits(ranks, midpoint, rows, ys, weights, members, starts, counts, sizes, node, feat):
    """(child Gini impurity, threshold) of each two-valued (node, feature) pair's one split.

    Pair p is node ``node[p]`` on feature ``feat[p]``, a column with at most
    two distinct values. Its sorted segment would hold the node's
    low-value samples, then its high ones, so its one boundary splits off the
    low side. Sample and positive counts per side are the prefix sums at that
    boundary, exactly, since weighted 0/1 sums are integers. NaN where a side
    is empty.
    """
    length = counts[node]
    pair = np.repeat(np.arange(node.size), length)
    shift = np.repeat(starts[node] - (np.cumsum(length) - length), length)
    g = members[shift + np.arange(pair.size)]
    side = 2 * pair + ranks.ravel()[rows[g] * ranks.shape[1] + feat[pair]]
    n_side = np.bincount(side, weights=weights[g], minlength=2 * node.size).reshape(-1, 2)
    pos_side = np.bincount(side, weights=ys[g], minlength=2 * node.size).reshape(-1, 2)
    both = (n_side[:, 0] > 0) & (n_side[:, 1] > 0)
    child = np.full(node.size, np.nan)
    child[both] = _gini_child(
        sizes[node[both]], n_side[both, 0], pos_side[both, 0], pos_side[both, 1]
    )
    return child, np.where(both, midpoint[feat], 0.0)


def _best_splits(
    X, ranks, midpoint, rows, ys, weights, members, starts, counts, sizes, parent, cand, task
):
    """(feature, threshold) of each open node's best split; feature -1 if none.

    Nodes come in ascending size. ``members[starts[i]:starts[i] + counts[i]]``
    are node i's elements, ``sizes[i]`` samples in all; element g is row
    ``rows[g]`` of X with target ``ys[g]`` (see `_grow`). Segment s of node
    i = s // m holds those elements sorted by the dense rank of feature
    ``cand[i, s % m]``, ties in element order, as a per-node stable argsort
    would leave them. A candidate whose ``midpoint`` is not NaN is a
    two-valued classification column: `_counted_splits` scores it and its
    segment is left empty.
    """
    k, m = cand.shape
    n_features = X.shape[1]
    counted = ~np.isnan(midpoint[cand.ravel()])
    seg_len = np.where(counted, 0, np.repeat(counts, m))
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(k * m), seg_len)
    offset = np.arange(seg.size) - seg_start[seg]
    g = members[np.repeat(starts, m)[seg] + offset]
    rank = ranks.ravel()[rows[g] * n_features + cand.ravel()[seg]]
    # distinct (segment, value rank, element order) keys: segment s owns the
    # keys span * [start, start + len), so ties on value keep element order
    # under any sort kind. The span is a Python int: 255 + 1 wraps in a uint8.
    # The per-element temporaries are dropped once used: at a block's full
    # size they set the fit's peak memory.
    key = seg_start[seg] * (int(ranks.max()) + 1)
    key += rank * seg_len[seg]
    key += offset
    order = np.argsort(key)
    del key
    g, rank = g[order], rank[order]
    del order
    rises = rank[1:] > rank[:-1]
    del rank
    # boundary b splits its segment into the elements before it and the rest
    b = 1 + np.flatnonzero(rises & (offset[1:] > 0))
    bseg = seg[b]
    del rises, seg
    end = (seg_start + seg_len - 1)[bseg]
    # the element and boundary arrays go as soon as the split sums exist
    if task == REGRESSION:
        n = seg_len[bseg].astype(float)
        n_left = offset[b].astype(float)
        del offset
        csum = np.empty((2, g.size))
        np.take(ys, g, out=csum[0])
        np.multiply(csum[0], csum[0], out=csum[1])
        _segment_cumsum(csum, seg_len)
        sum_left, sq_left = csum[:, b - 1]
        total = csum[:, end]
        del csum, end
        n_right = n - n_left
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        var_right = (total[1] - sq_left) / n_right - ((total[0] - sum_left) / n_right) ** 2
        child = (n_left * var_left + n_right * var_right) / n
    else:
        # weighted 0/1 partial sums are integers below 2**53: one running sum
        # minus the segment's start is exactly the sum a restarting cumsum of
        # the node's samples gives. One buffer holds the weights' running sum,
        # then the targets'
        del offset
        begin = seg_start[bseg]
        run = np.zeros(g.size + 1)
        np.take(weights, g, out=run[1:])
        np.cumsum(run, out=run)
        n_left = run[b]
        n_left -= run[begin]
        np.take(ys, g, out=run[1:])
        np.cumsum(run, out=run)
        sum_left = run[b]
        sum_left -= run[begin]
        sum_right = run[end + 1]
        sum_right -= run[begin]
        sum_right -= sum_left
        del run, begin, end
        child = _gini_child(sizes[bseg // m], n_left, sum_left, sum_right)
    # first minimum per segment; a NaN minimum matches nothing, like a NaN gain
    seg_child = np.full(k * m, np.nan)
    seg_threshold = np.zeros(k * m)
    if b.size:
        first = np.flatnonzero(np.append(True, bseg[1:] != bseg[:-1]))
        lowest = np.minimum.reduceat(child, first)
        hit = np.flatnonzero(child == np.repeat(lowest, np.diff(np.append(first, b.size))))
        hit = hit[np.append(True, bseg[hit[1:]] != bseg[hit[:-1]])]
        seg_child[bseg[hit]] = child[hit]
        at, feat = b[hit], cand.ravel()[bseg[hit]]
        seg_threshold[bseg[hit]] = 0.5 * (X[rows[g[at - 1]], feat] + X[rows[g[at]], feat])
    # so the count path's temporaries do not stack on the sorted path's
    del g, b, bseg, child
    if counted.any():
        s = np.flatnonzero(counted)
        seg_child[s], seg_threshold[s] = _counted_splits(
            ranks, midpoint, rows, ys, weights, members, starts, counts, sizes, s // m,
            cand.ravel()[s],
        )
    gain = parent[:, None] - seg_child.reshape(k, m)
    threshold = seg_threshold.reshape(k, m)
    best_gain = np.zeros(k)
    best_feature = np.full(k, -1)
    best_threshold = np.zeros(k)
    # candidates in feature order: the first best wins. A node's best gain
    # is 0 until it has a best feature, so one test also admits its first
    for s in range(m):
        take = gain[:, s] > best_gain + _MIN_GAIN
        best_gain = np.where(take, gain[:, s], best_gain)
        best_feature = np.where(take, cand[:, s], best_feature)
        best_threshold = np.where(take, threshold[:, s], best_threshold)
    return best_feature, best_threshold


def _grow(X, ranks, y, rows, weights, counts, rngs, config: TreeConfig, m: int) -> Tree:
    """Grow one tree per entry of ``counts``, level by level.

    Element g is row ``rows[g]`` of X; tree t owns the ``counts[t]``
    elements after those of the trees before it. A regression element is one
    sample (``weights`` None), in draw order; a classification element is
    one distinct row of the tree's sample, ``weights[g]`` samples of it.
    ``ranks`` are `_dense_ranks(X)`; ``rngs[t]`` draws tree t's ``m``
    candidate features per split (none at ``m`` = 0, where every node is a
    leaf). Returns the block's nodes as one `Tree` whose ids count from 0
    level by level, so tree t's root is t.
    Within a level, nodes are laid out by ascending number of samples (ties
    in their parents' order, left child first), so nodes and segments of
    equal size are contiguous.
    """
    n_features = X.shape[1]
    classify = config.task == CLASSIFICATION
    # a classification element carries its samples' target sum
    ys = weights * y[rows] if classify else y[rows]
    # a classification column with at most two values has one midpoint,
    # scored from counts; NaN marks the columns scored from sorted segments
    midpoint = np.full(n_features, np.nan)
    if classify:
        two = ranks.max(axis=0) <= 1
        midpoint[two] = 0.5 * (X[:, two].min(axis=0) + X[:, two].max(axis=0))
    node_tree = np.arange(counts.size)
    members = np.arange(rows.size)  # open elements, grouped by node, in element order
    # elements per node slice members; samples per node (sizes) count for all else
    sizes = np.add.reduceat(weights, np.cumsum(counts) - counts) if classify else counts
    levels = []
    depth = first_id = 0
    while counts.size:
        starts = np.cumsum(counts) - counts
        yv = ys[members]
        value, parent = _node_stats(yv, starts, sizes, config.task)
        feature = np.full(counts.size, -1)
        threshold = np.zeros(counts.size)
        if m and (config.max_depth is None or depth < config.max_depth):
            if classify:  # a 0/1 node is pure exactly when its Gini impurity is 0
                mixed = parent > 0
            else:
                mixed = np.minimum.reduceat(yv, starts) != np.maximum.reduceat(yv, starts)
            i = np.flatnonzero((sizes >= _MIN_SAMPLES_SPLIT) & mixed)
            if i.size:
                by_tree = np.argsort(node_tree[i], kind="stable")
                cand = np.empty((i.size, m), dtype=np.int64)
                cand[by_tree] = _draw_candidates(node_tree[i[by_tree]], rngs, m, n_features)
                feature[i], threshold[i] = _best_splits(
                    X, ranks, midpoint, rows, ys, weights, members, starts[i],
                    counts[i], sizes[i], parent[i], cand, config.task,
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
        child_sizes = child_counts
        if classify:
            child_sizes = np.bincount(child, weights=weights[g[keep]], minlength=child_counts.size)
        layout = np.argsort(child_sizes, kind="stable")
        slot = np.empty_like(layout)
        slot[layout] = np.arange(layout.size)
        next_id = first_id + counts.size
        left = np.full(counts.size, -1)
        right = np.full(counts.size, -1)
        left[split] = next_id + slot[0::2]
        right[split] = next_id + slot[1::2]
        levels.append((feature, threshold, left, right, value))
        # slots in their smallest unsigned type: up to 2**16 children radix-sort
        by_slot = slot.astype(np.min_scalar_type(max(slot.size - 1, 0)))[child]
        members = g[keep][np.argsort(by_slot, kind="stable")]
        node_tree = np.repeat(node_tree[split], 2)[layout]
        counts = child_counts[layout]
        sizes = child_sizes[layout]
        first_id = next_id  # id of the next level's first node
        depth += 1
    return Tree(*map(np.concatenate, zip(*levels)))


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


def fit_forest(X, y, config: TreeConfig, n_trees: int = 100, seed: int = 0) -> ForestModel:
    """Bagged CART ensemble with pre-split per-tree seeds (`fit_forests` of one problem)."""
    return fit_forests([(X, y, seed)], config, n_trees)[0]


def _packed(problems, config: TreeConfig, n_trees: int):
    """(n_features, blocks, grow): the problems' (problem, tree) pairs packed into
    tree blocks, and the function that grows one block's trees as one `Tree`.

    The problems' X must have the same columns; they are stacked row-wise
    and ranked together, and ranks stay monotone within each problem's rows,
    so every segment sorts as it would alone. The trees of all problems, in
    ascending order of their problem's row count (each level's nodes must
    come in ascending size, the roots included), are packed into blocks of at
    most `_FOREST_BLOCK` laid-out elements, so a block may hold trees of
    several problems.
    """
    _check_int("n_trees", n_trees)
    if not problems:
        return 0, [], None
    checked = []
    for i, (X, y, _) in enumerate(problems):
        try:
            X, y = _check_xy(X, y, config.task)
            if checked and X.shape[1] != checked[0][0].shape[1]:
                raise ValueError(f"X has {X.shape[1]} columns, problem 0's {checked[0][0].shape[1]}")
        except ValueError as exc:  # name the problem: rows count from 0 in its own X
            if len(problems) == 1:
                raise
            raise ValueError(f"problem {i}: {exc}") from None
        checked.append((X, y))
    n_features = checked[0][0].shape[1]
    X = np.concatenate([X for X, _ in checked])
    y = np.concatenate([y for _, y in checked])
    n = np.array([y.size for _, y in checked])
    first_row = np.cumsum(n) - n
    ranks = _dense_ranks(X)
    # every split tries sqrt(features) candidates, at least 1; none of no feature
    m = min(n_features, max(1, int(np.sqrt(n_features))))
    cost = n * max(1, m)
    # (problem, tree) pairs by ascending row count, packed greedily into blocks
    blocks, load = [], _FOREST_BLOCK
    for p in np.argsort(n, kind="stable"):
        for t in range(n_trees):
            load += cost[p]
            if load > _FOREST_BLOCK:
                blocks.append([])
                load = cost[p]
            blocks[-1].append((p, t))

    def grow_block(block):
        seeds = [derive_seed(problems[p][2], "forest", t) for p, t in block]
        samples, drawn = [], []
        for (p, _), s in zip(block, seeds):
            rows = make_rng(s, "bootstrap").integers(0, n[p], size=n[p])
            if config.task == CLASSIFICATION:
                # the tree's distinct rows, weighted by their number of draws
                times = np.bincount(rows, minlength=n[p])
                rows = np.flatnonzero(times)
                drawn.append(times[rows])
            samples.append(first_row[p] + rows)
        weights = np.concatenate(drawn).astype(float) if drawn else None
        counts = np.array([rows.size for rows in samples])
        rngs = [make_rng(s, "tree") for s in seeds]
        return _grow(X, ranks, y, np.concatenate(samples), weights, counts, rngs, config, m)

    return n_features, blocks, grow_block


def fit_forests(problems, config: TreeConfig, n_trees: int = 100) -> list:
    """One forest per ``(X, y, seed)`` problem, equal to `fit_forest` of each on its own.

    The trees grow in `_packed`'s blocks, the later half of them maybe in a
    forked child (`split.map_blocks`); models that share a block hold the
    same `Tree`.
    """
    n_features, blocks, grow = _packed(problems, config, n_trees)
    models = [ForestModel([], n_features) for _ in problems]
    for block, tree in zip(blocks, map_blocks(grow, blocks, _FOREST_SPLIT_BLOCKS)):
        owner = np.array([p for p, _ in block])
        for p in {p for p, _ in block}:  # a problem's trees lie in ascending t
            models[p].blocks.append((tree, np.flatnonzero(owner == p)))
    return models


def _check_eval(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got shape {X.shape}")
    _check_finite(X)
    return X


def _tree_outputs(tree: Tree, roots, X: np.ndarray):
    """(trees, rows) output chunks of the trees rooted at ``roots`` on X, in root
    order; a chunk moves at most `_FOREST_BLOCK` (tree, row) pairs at once."""
    per_block = max(1, _FOREST_BLOCK // max(1, X.shape[0]))
    for lo in range(0, roots.size, per_block):
        chunk = roots[lo : lo + per_block]
        yield tree.value[_leaves(tree, chunk, X)].reshape(chunk.size, -1)


def _mean_output(chunks, n_rows: int, n_trees: int) -> np.ndarray:
    """Sum of the chunks' tree rows, added in tree order, over ``n_trees``."""
    acc = np.zeros(n_rows)
    for chunk in chunks:
        for out in chunk:
            acc += out
    return acc / n_trees


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Mean of tree outputs: regression value or positive-class probability."""
    X = _check_eval(X, model.n_features)
    chunks = (chunk for tree, roots in model.blocks for chunk in _tree_outputs(tree, roots, X))
    return _mean_output(chunks, X.shape[0], model.n_trees)


def fit_predict_forest(X, y, X_eval, config: TreeConfig, n_trees: int = 100, seed: int = 0):
    """`predict_forest(fit_forest(X, y, config, n_trees, seed), X_eval)`, bit for
    bit, without assembling the forest.

    Each tree block's trees predict ``X_eval`` in the process that grew them
    and are dropped, so a forked child returns a (trees, rows) array per
    block, not its `Tree`; the rows are added in tree order, as
    `predict_forest` adds them. ``X_eval`` is checked before any tree grows.
    """
    n_features, blocks, grow = _packed([(X, y, seed)], config, n_trees)
    X_eval = _check_eval(X_eval, n_features)

    def predict_block(block):
        return np.concatenate(list(_tree_outputs(grow(block), np.arange(len(block)), X_eval)))

    outputs = map_blocks(predict_block, blocks, _FOREST_SPLIT_BLOCKS)
    return _mean_output(outputs, X_eval.shape[0], n_trees)
