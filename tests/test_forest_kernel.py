"""The level-wise forest engine against the recursive reference grower."""

import tracemalloc

import numpy as np
import pytest

from imputebench import forest as rf
from imputebench import split

from conftest import make_rng
from forest_reference import (
    assert_matches_reference,
    assert_same_forest,
    lone_tree,
    reference_forest,
    reference_predict,
    trees,
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


def _two_valued_data(task, n, seed):
    """Continuous columns next to two-valued ones, {0, 1} and {-1.5, 4.0}."""
    rng = make_rng(seed)
    X = np.c_[
        rng.normal(size=n),
        rng.integers(0, 2, n).astype(float),
        np.where(rng.random(n) < 0.3, -1.5, 4.0),
        np.round(rng.normal(size=n) * 2) / 2,
        rng.integers(0, 2, n).astype(float),
    ]
    signal = X[:, 0] + X[:, 1] - 0.3 * X[:, 2] + rng.normal(size=n)
    return X, (signal if task == rf.REGRESSION else (signal > 0.0).astype(float))


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("max_depth", [None, 1, 3])
def test_two_valued_columns_match_reference(task, max_depth):
    for seed in range(4):
        X, y = _two_valued_data(task, 80, seed)
        assert_matches_reference(X, y, rf.TreeConfig(task=task, max_depth=max_depth))


# the id names the sqrt(features) draw: every feature (1 of 1), 2 of 5, or 3 of 9
DRAWS = pytest.mark.parametrize("width", [1, 5, 9], ids=["all", "2", "sqrt"])


@pytest.mark.parametrize(
    "task, width, signed_zero",
    [(rf.CLASSIFICATION, width, False) for width in (1, 5, 9)]
    + [(rf.REGRESSION, width, False) for width in (1, 5, 9)]
    + [(rf.REGRESSION, 5, True)],
    ids=[
        "all", "2", "sqrt",
        "regression-all", "regression-2", "regression-sqrt", "regression-signed-zero",
    ],
)
def test_counted_splits_equal_sorted_splits(task, width, signed_zero, monkeypatch):
    # doubled ranks keep every sort order but leave no column with ranks <= 1,
    # so every split is then scored from sorted segments
    X, y = _two_valued_data(task, 90, 21)
    if signed_zero:
        # half the targets -0.0 and the rest rounded, 0.0 and -0.0 among
        # them: a side's sequential sum may start at -0.0, a bincount's at 0.0
        y = np.where(make_rng(23).random(90) < 0.5, -0.0, np.round(y))
        assert np.signbit(y[y == 0.0]).any() and not np.signbit(y[y == 0.0]).all()
    # one column: the last, two-valued; nine: the five and four noise columns
    X = np.c_[X, make_rng(22).normal(size=(90, width - 5))] if width >= 5 else X[:, -width:]
    config = rf.TreeConfig(task=task)
    calls = []
    counted_splits = rf._counted_splits

    def counting(*args):
        calls.append(args)
        return counted_splits(*args)

    monkeypatch.setattr(rf, "_counted_splits", counting)
    counted = rf.fit_forest(X, y, config, n_trees=12, seed=6)
    assert calls
    calls.clear()
    dense_ranks = rf._dense_ranks
    monkeypatch.setattr(rf, "_dense_ranks", lambda X: 2 * dense_ranks(X).astype(np.int64))
    sorted_only = rf.fit_forest(X, y, config, n_trees=12, seed=6)
    assert not calls
    _same_forest(counted, sorted_only)


# sqrt(features) draws column 0 alone (every feature), or 1 of 3
@pytest.mark.parametrize("width", [1, 3], ids=["all", "sqrt"])
@pytest.mark.parametrize(
    "n, rank_type, task",
    [
        (256, np.uint8, rf.REGRESSION),
        (256, np.uint8, rf.CLASSIFICATION),
        (300, np.uint16, rf.REGRESSION),
        (300, np.uint16, rf.CLASSIFICATION),
    ],
    ids=["256-uint8-regression", "256-uint8", "300-uint16-regression", "300-uint16"],
)
def test_rank_keys_at_the_limit_of_the_rank_type(n, rank_type, task, width):
    # column 0 holds n distinct values, so its top rank is the rank type's
    # 255 at n = 256; the segment sort keys must not wrap in that type
    rng = make_rng(n)
    X = np.c_[rng.permutation(n) / 7.0, np.round(rng.normal(size=(n, 2)) * 2) / 2][:, :width]
    y = X[:, 0] + rng.normal(scale=9.0, size=n)
    if task == rf.CLASSIFICATION:
        y = (y > n / 14.0).astype(float)
    assert rf._dense_ranks(X).dtype == rank_type
    assert rf._dense_ranks(X).max() == n - 1
    config = rf.TreeConfig(task=task)
    model = rf.fit_forest(X, y, config, n_trees=3, seed=n)
    assert_same_forest(model, reference_forest(X, y, config, 3, n))


def test_dense_ranks_equal_numpy_unique():
    rng = make_rng(13)
    X = np.round(rng.normal(size=(300, 4)) * np.array([1.0, 4.0, 50.0, 0.0]))
    X[rng.random(X.shape) < 0.2] = -0.0  # ranks the same as 0.0
    ranks = rf._dense_ranks(X)
    assert ranks.dtype == np.uint16
    for j in range(X.shape[1]):
        assert np.array_equal(ranks[:, j], np.unique(X[:, j], return_inverse=True)[1])


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
@pytest.mark.parametrize("bounded", [True, False])  # depth 6, or unbounded as predict_cv's
def test_forest_trees_and_predictions_match_reference(task, bounded):
    X, y = _data(task, 60, 3, 7, grid=4)
    config = rf.TreeConfig(task=task, max_depth=6 if bounded else None)
    model = rf.fit_forest(X, y, config, n_trees=9, seed=3)
    reference = reference_forest(X, y, config, 9, 3)
    assert_same_forest(model, reference)
    probe = make_rng(8).normal(size=(25, 3))
    expected = np.zeros(25)
    for node in reference:
        expected += reference_predict(node, probe)
    expected /= 9
    np.testing.assert_allclose(rf.predict_forest(model, probe), expected, rtol=1e-12, atol=0)
    for (tree, root), node in zip(trees(model), reference, strict=True):
        leaves = rf._leaves(tree, [root], probe)
        np.testing.assert_allclose(
            tree.value[leaves], reference_predict(node, probe), rtol=1e-12, atol=0
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
    for (ta, r), (tb, s) in zip(trees(a), trees(b), strict=True):
        i, j = _walk(ta, r), _walk(tb, s)
        assert i.size == j.size
        assert np.array_equal(ta.left[i] < 0, tb.left[j] < 0)
        for field in ("feature", "threshold", "value"):
            assert np.array_equal(getattr(ta, field)[i], getattr(tb, field)[j]), field


@pytest.mark.parametrize("task", TASKS)
@DRAWS
def test_block_size_does_not_change_the_forest(task, width, monkeypatch):
    X, y = _data(task, 50, width, 9, grid=2)
    probe = make_rng(10).normal(size=(30, width))
    config = rf.TreeConfig(task=task)
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
    pairs = list(trees(model))
    assert len(pairs) == model.n_trees == 7
    _assert_roots_partition(pairs)


def _assert_roots_partition(pairs):
    """Each node of every block `Tree` in the ``(tree, root)`` pairs is reached from one root."""
    walks = {}
    for tree, root in pairs:
        walks.setdefault(id(tree), (tree, []))[1].append(_walk(tree, root))
    for tree, reached in walks.values():
        assert sum(w.size for w in reached) == tree.left.size
        assert np.array_equal(np.sort(np.concatenate(reached)), np.arange(tree.left.size))


@pytest.mark.parametrize("task", TASKS)
def test_a_fit_over_k_blocks_keeps_the_k_grown_trees(task, monkeypatch):
    X, y = _data(task, 40, 5, 15, grid=2)
    grown = []
    real_grow = rf._grow

    elements = []

    def counted_grow(*args):
        elements.append(args[3].size)  # the block's element rows
        grown.append(real_grow(*args))
        return grown[-1]

    monkeypatch.setattr(rf, "_grow", counted_grow)
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)  # no child grows
    # 40 rows x 2 candidates a tree, 3 trees a block: 11 trees in 4 blocks
    monkeypatch.setattr(rf, "_FOREST_BLOCK", 40 * 2 * 3)
    model = rf.fit_forest(X, y, rf.TreeConfig(task=task), n_trees=11, seed=6)
    assert len(grown) == len(model.blocks) == 4
    assert [roots.tolist() for _, roots in model.blocks] == [[0, 1, 2]] * 3 + [[0, 1]]
    assert all(tree is block for (tree, _), block in zip(model.blocks, grown))
    assert sum(tree.left.size for tree, _ in model.blocks) == sum(t.left.size for t in grown)
    # fitted nodes in narrow types: 5 features fit an int8, and every split
    # parts a node's elements, so fewer than twice the elements are nodes.
    # A regression block of 3 trees of 40 samples (120 elements) takes int16
    # ids; the last classification block, 2 trees' 48 distinct rows, int8
    for tree, n in zip(grown, elements):
        assert tree.feature.dtype == np.int8
        assert tree.left.dtype == tree.right.dtype == np.min_scalar_type(-2 * n - 1)
        assert tree.left.dtype.itemsize < 8 and tree.left.size < 2 * n


@pytest.mark.parametrize("task", TASKS)
def test_forests_of_a_shared_pass_share_each_block_tree(task, monkeypatch):
    sizes = ((30, 1), (40, 2), (25, 3))
    problems = [(*_data(task, n, 5, 20 + seed, grid=2), seed) for n, seed in sizes]
    # 240 elements a block: trees of 50, 60 and 80 elements, so blocks
    # straddle the 25- and 30-row and the 30- and 40-row forests
    monkeypatch.setattr(rf, "_FOREST_BLOCK", 240)
    models = rf.fit_forests(problems, rf.TreeConfig(task=task, max_depth=6), n_trees=5)
    holders = {}
    for i, model in enumerate(models):
        for tree, _ in model.blocks:
            holders.setdefault(id(tree), set()).add(i)
    assert sorted(map(len, holders.values()))[-2:] == [2, 2]
    _assert_roots_partition([pair for model in models for pair in trees(model)])


def test_a_level_frees_its_arrays_as_it_goes(monkeypatch):
    # the predict label model's size: 100 unbounded classification trees on
    # 1,100 rows of 8 continuous and 6 two-valued columns, grown serially.
    # With every array of a level's split search alive until the search
    # returned, this fit's traced peak was 5.80 MiB; freed as the search goes,
    # 4.68 MiB; with one running-sum buffer and the Gini terms formed in
    # place, 4.03 MiB (numpy 2.4, CPython 3.11). The bound lies midway
    # between the last two.
    rng = make_rng(30)
    X = np.c_[rng.normal(size=(1100, 8)), rng.integers(0, 2, size=(1100, 6))]
    y = (X[:, 0] + X[:, 8] + rng.normal(size=1100) > 1.0).astype(float)
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    tracemalloc.start()
    try:
        rf.fit_forest(X, y, rf.TreeConfig(task=rf.CLASSIFICATION), n_trees=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 4.35


def _gini_child_expression(n, n_left, sum_left, sum_right):
    # the one expression _gini_child evaluated before it formed its terms in place
    n_right = n - n_left
    p_left = sum_left / n_left
    p_right = sum_right / n_right
    return (
        n_left * 2.0 * p_left * (1.0 - p_left) + n_right * 2.0 * p_right * (1.0 - p_right)
    ) / n


@pytest.mark.parametrize("high", [2**12, 2**40])
def test_gini_child_equals_its_one_expression_bit_for_bit(high):
    # integer-valued sample and positive counts with 0 < n_left < n, as the
    # weighted 0/1 boundary sums of a classification split are
    rng = make_rng(high % 97)
    n = rng.integers(2, high, size=4000)
    n_left = rng.integers(1, n)
    sum_left = rng.integers(0, n_left + 1)
    sum_right = rng.integers(0, n - n_left + 1)
    n, n_left, sum_left, sum_right = (a.astype(float) for a in (n, n_left, sum_left, sum_right))
    expected = _gini_child_expression(n, n_left, sum_left, sum_right)
    got = rf._gini_child(n, n_left.copy(), sum_left.copy(), sum_right.copy())
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    # `_counted_splits`' call: fancy-indexed copies of its per-side count
    # tables, which the in-place terms leave as they were
    n_side = np.c_[n_left, n - n_left]
    pos_side = np.c_[sum_left, sum_right]
    tables = n_side.copy(), pos_side.copy()
    both = rng.random(n.size) < 0.7
    got = rf._gini_child(n[both], n_side[both, 0], pos_side[both, 0], pos_side[both, 1])
    assert np.array_equal(got.view(np.uint64), expected[both].view(np.uint64))
    assert np.array_equal(n_side, tables[0]) and np.array_equal(pos_side, tables[1])


def _variance_child_expression(n, n_left, sum_left, sq_left, sum_all, sq_all):
    # the one expression the regression split search evaluated before
    # _variance_child formed its terms in place, as tests/forest_reference.py does
    n_right = n - n_left
    var_left = sq_left / n_left - (sum_left / n_left) ** 2
    var_right = (sq_all - sq_left) / n_right - ((sum_all - sum_left) / n_right) ** 2
    return (n_left * var_left + n_right * var_right) / n


def test_variance_child_equals_its_one_expression_bit_for_bit():
    # boundary sums of raw-scale targets with 0 < n_left < n, whose variances
    # cancel: every rounding step shows in the result
    rng = make_rng(41)
    n = rng.integers(2, 5000, size=4000)
    n_left = rng.integers(1, n)
    y = rng.normal(250.0, 30.0, size=(4000, 2))
    sums = (n_left * y[:, 0], n_left * (y[:, 0] ** 2 + 900.0))
    totals = (sums[0] + (n - n_left) * y[:, 1], sums[1] + (n - n_left) * (y[:, 1] ** 2 + 900.0))
    args = (n.astype(float), n_left.astype(float), sums[0], sums[1], totals[0], totals[1])
    expected = _variance_child_expression(*args)
    got = rf._variance_child(*(a.copy() for a in args))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_node_stats_equal_numpy_mean_and_var():
    # a regression element is one sample: the sizes count elements
    rng = make_rng(11)
    sizes = np.sort(rng.integers(1, 300, size=60))
    starts = np.cumsum(sizes) - sizes
    yv = rng.normal(250.0, 30.0, size=sizes.sum())
    value, parent = rf._node_stats(yv, starts, sizes, rf.REGRESSION)
    for i, (s, c) in enumerate(zip(starts, sizes)):
        assert value[i] == np.mean(yv[s : s + c])
        assert parent[i] == np.var(yv[s : s + c])


def test_node_stats_classification_equal_numpy_mean():
    # distinct rows with draw counts as weights: the stats of the expanded sample
    rng = make_rng(12)
    counts = np.sort(rng.integers(1, 3000, size=60))
    starts = np.cumsum(counts) - counts
    y = rng.integers(0, 2, size=counts.sum()).astype(float)
    weights = rng.integers(1, 7, size=counts.sum()).astype(float)
    sizes = np.add.reduceat(weights, starts)
    value, parent = rf._node_stats(weights * y, starts, sizes, rf.CLASSIFICATION)
    for i, (s, c) in enumerate(zip(starts, counts)):
        p = np.mean(np.repeat(y[s : s + c], weights[s : s + c].astype(int)))
        assert value[i] == p
        assert parent[i] == 2.0 * p * (1.0 - p)


def test_tree_arrays_are_level_ordered():
    X, y = _data(rf.REGRESSION, 80, 3, 12)
    tree = lone_tree(X, y, rf.TreeConfig(max_depth=4))
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
