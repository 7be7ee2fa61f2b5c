"""Imputer contract plus the non-deep methods: Simple, KNN, MissForest.

Every imputer follows the same fit/impute protocol: fit on a (possibly
incomplete) training table, then impute a target table, returning hard
values plus per-categorical-cell probability scores. Observed cells are
never modified and results are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forest as rf
from .seeding import _check_int, derive_seed
from .split import map_blocks
from .tabular import (
    MixedTable,
    NormParams,
    Schema,
    denormalize,
    fit_normalizer,
    normalize,
)

__all__ = [
    "ImputationResult",
    "Imputer",
    "SimpleImputer",
    "KnnImputer",
    "MissForestImputer",
    "column_stats",
    "knn_fill",
]


@dataclass(frozen=True)
class ImputationResult:
    """Complete hard-valued table plus class-1 scores for categorical cells."""

    table: MixedTable
    scores: np.ndarray


class Imputer:
    """Abstract fit/impute interface shared by all seven methods."""

    name = "abstract"

    def __init__(self, schema: Schema, seed: int = 0):
        self.schema = schema
        self.seed = _check_int("seed", seed, None)

    def fit(self, train: MixedTable) -> "Imputer":
        raise NotImplementedError

    def impute(self, target: MixedTable) -> ImputationResult:
        raise NotImplementedError

    def _check_schema(self, table: MixedTable):
        if table.schema != self.schema:
            raise ValueError(f"{self.name}: table schema differs from fit schema")

    def _normalized_fold(self, train: MixedTable) -> np.ndarray:
        """`train` normalized; sets `params_` and its column means `norm_stats_`."""
        self._check_schema(train)
        self.params_ = fit_normalizer(train)
        norm = normalize(train.values, self.params_)
        self.norm_stats_ = column_stats(norm, self.schema)
        return norm


def _finish(
    target: MixedTable, filled: np.ndarray, cat_scores: np.ndarray, params: NormParams
) -> ImputationResult:
    """Assemble an ImputationResult from a filled value grid in data units.

    Categorical cells are re-thresholded from the score grid so hard value
    and score always agree (score >= 0.5 maps to 1); numerical cells are
    clipped to the fitted range. Observed cells are then restored from the
    target verbatim, so clipping never alters them. A cell the target misses
    must have a value and, if categorical, a score by then: a NaN there is
    a ValueError naming the first such cell.
    """
    observed = ~np.isnan(target.values)
    cat = target.schema.categorical_indices
    num = params.numerical_indices
    filled = filled.copy()
    filled[:, num] = np.clip(filled[:, num], params.col_min, params.col_max)
    filled[:, cat] = cat_scores[:, cat]
    holes = np.argwhere(np.isnan(filled) & ~observed)
    if holes.size:
        i, j = holes[0]
        raise ValueError(
            "model output is missing values at masked cells, first at target row "
            f"{i + 1}, column {target.schema.names[j]!r}"
        )
    filled[:, cat] = filled[:, cat] >= 0.5
    filled[observed] = target.values[observed]
    scores = np.full_like(filled, np.nan)
    scores[:, cat] = np.where(observed[:, cat], target.values[:, cat], cat_scores[:, cat])
    return ImputationResult(target.with_values(filled), scores)


def column_stats(values: np.ndarray, schema: Schema) -> np.ndarray:
    """Per-column observed mean; for a categorical column, its positive fraction.

    The mean is a categorical cell's constant class-1 score, and its hard
    fill is `mean >= 0.5`, the mode.
    """
    mean = np.empty(values.shape[1])
    for j in range(values.shape[1]):
        col = values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise ValueError(
                f"column {schema.columns[j].name!r} has no observed training cells"
            )
        mean[j] = observed.mean()
    return mean


class SimpleImputer(Imputer):
    """Column mean for numerical cells, column mode for categorical ones."""

    name = "simple"

    def fit(self, train: MixedTable) -> "SimpleImputer":
        self._check_schema(train)
        self.stats_ = column_stats(train.values, self.schema)
        self.params_ = fit_normalizer(train)
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        mean = np.broadcast_to(self.stats_, target.values.shape)
        return _finish(target, mean, mean, self.params_)


def _pairwise_partial_distances(train: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Euclidean distance over co-observed features, rescaled by coverage.

    The squared distance is scaled by (total features / co-observed count)
    so sparse rows are comparable with dense ones; rows sharing no
    observed feature get an infinite distance. `row` is one target row
    measured against every training row, or an array of target rows
    paired with the training rows one to one.
    """
    obs_row = ~np.isnan(row)
    obs_train = ~np.isnan(train)
    both = obs_train & obs_row
    diff = np.where(both, train - row, 0.0)
    count = both.sum(axis=1)
    n_features = train.shape[1]
    # a difference past about 1e154 squares to inf, and knn_fill skips an
    # infinite distance as it skips a pair that shares no observed feature
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d2 = (diff**2).sum(axis=1)
        scaled = np.where(count > 0, d2 * n_features / np.maximum(count, 1), np.inf)
    return np.sqrt(scaled)


# Elements in each (target rows x training rows) temporary of knn_fill:
# 2**16, 256 KiB per float32 bound array. Against 2**16 with the float32
# bounds, perfbench's bench-knn-9310 (7,448 training rows) took 14 % longer
# at 2**17 (median wall 1.00 against 0.88 s, slower in 8 of 10 alternating
# seeds) and bench-deep-1000 (800) moved -4 %, within its spread (lower in
# 4 of 10); peak RSS rose 1.4 and 2.1 MiB (2-CPU Xeon, one BLAS thread).
# With float64 bounds, 2**15 took 20 % longer on bench-knn-9310.
_KNN_BLOCK = 1 << 16
# Training rows shortlisted per target row, as a multiple of k. A hole whose
# column fewer than k of them observe gets an infinite threshold, so its row
# measures every training row; 1 hole in 508,500 did so over perfbench's
# bench-deep-1000 (seeds 1-3), none in bench-knn-9310 or the full-size
# 7,448-row fold calls
_SHORTLIST = 4
# Fewest target-row blocks a knn_fill call splits with a forked child
# (`split.map_blocks`). A 7,448 x 1,862 hold-out call has 233 blocks. The
# 800 x 800 self-imputation calls have about 10 and stay in one process:
# split, one took 26 against 13 ms and drew 970 against 27 minor faults
# (2-CPU Xeon, one BLAS thread).
_KNN_SPLIT_BLOCKS = 16
_U32 = float(np.finfo(np.float32).eps) / 2  # float32 unit roundoff, 2**-24
_TINY32 = float(np.finfo(np.float32).tiny)  # smallest normal float32, 2**-126


class _DistanceBounds:
    """Float32 lower and upper bounds on the partial distances of two tables.

    Built from the training and the target table, and called on a block of
    target rows, it returns float32 (lower, upper) over (rows x training
    rows). Every value is first multiplied by 2^e, the power of two that
    puts the largest magnitude in either table in [0.5, 1), so no float32
    square overflows; bounds compare only with bounds, so they stay in
    these units. A pair with a co-observed feature has its scaled squared
    distance, d2 * c / count as `_pairwise_partial_distances` computes it
    before the square root, times 4^e, within [lower, upper], and upper
    also bounds every pair whose distance equals this one's after the
    square root. A pair with no co-observed feature gets lower = NaN and
    upper = inf, so no comparison with a bound keeps it.

    One product gives the co-observed sum of squares as
    S = [O_r, r^2, r] . [t^2, O_t, -2 t], where O is the observed mask and
    r, t are the prescaled rows cast to float32 with missing cells set to
    0, so every term of a feature that is not co-observed is exactly zero.
    Let u = 2^-24, g_n = n u / (1 - n u), h = 2^-126, the smallest normal
    float32, x and y a feature's exact prescaled values (|x|, |y| < 1), and
    E the sum of x^2 and y^2 over each row's observed features, d2 <= 2 E:
    - the prescale is exact in float64 but for underflow below 2^-1074;
      a cast then errs by at most u |x| + h, and a float32 operation by u
      times its result plus h, flushed to zero or not; with |x|, |y| < 1
      the two casts and two squares per feature move the exact S by at
      most 6 u E + 13 c h;
    - the 3c-term product, in any order and with or without fused
      multiply-add, errs by at most g_3c sum |a_i b_i| + 6 c h, which is at
      most 3 g_3c E + 7 c h;
    - the float64 reference sums c rounded squares of rounded differences,
      so it errs by at most g_(c+2) d2 in float64, under u E, plus c
      spacings of 2^-1074 from its own underflow, 4^e times that here;
    - adding the slack rounds twice, under 7 u E; scaling by c / count
      rounds twice here and twice in float64 in the reference, and the
      square root maps values within a relative 2^-51 of each other to one
      float: under 5 u E together.
    So (3 g_3c + 19 u) E covers every relative term; 8 g_(3c+2) + 64 u is
    over twice that, which also covers computing E in float32. 32 c
    (h + 4^e 2^-1074) covers the absolute terms. This holds for every
    finite input with c < 2^20, which keeps g_(c+2) in float64 under u / 2
    and 3 c u far below 1. Where the largest magnitude is below about
    1e-180, past the 1e-154 at which the reference's own squares
    underflow, the last term passes the float32 range: upper is inf and
    every pair is measured.
    """

    def __init__(self, train: np.ndarray, target: np.ndarray):
        n_train, self.n_cols = train.shape
        c = self.n_cols
        top = max(np.fmax.reduce(np.abs(a), axis=None, initial=0.0) for a in (train, target))
        self.exponent = -int(np.frexp(top)[1])
        train0 = self._prescaled(train)
        # (3c x training rows), C-ordered: the product's fastest layout
        side = np.empty((3 * c, n_train), dtype=np.float32)
        np.square(train0.T, out=side[:c])
        side[c : 2 * c] = ~np.isnan(train.T)
        np.multiply(train0.T, -2, out=side[2 * c :])
        self.train_side = side
        n_terms = 3 * c + 2
        gamma = n_terms * _U32 / (1 - n_terms * _U32)
        self.slack_factor = np.float32(8 * gamma + 64 * _U32)
        self.train_slack = self.slack_factor * side[:c].sum(axis=0)
        with np.errstate(over="ignore"):
            self.train_slack += np.float32(
                32 * c * (_TINY32 + np.ldexp(1.0, 2 * self.exponent - 1074))
            )

    def _prescaled(self, values: np.ndarray) -> np.ndarray:
        """`values` times 2^e in float32, missing cells 0."""
        values0 = np.where(np.isnan(values), 0.0, values)
        return np.ldexp(values0, self.exponent).astype(np.float32)

    def __call__(self, rows: np.ndarray):
        c = self.n_cols
        observed = ~np.isnan(rows)
        rows0 = self._prescaled(rows)
        squares = rows0 * rows0
        rows_slack = (self.slack_factor * squares.sum(axis=1))[:, None]
        lower = np.hstack([observed, squares, rows0]) @ self.train_side
        scale = observed.astype(np.float32) @ self.train_side[c : 2 * c]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(c, scale, out=scale)
            upper = lower + rows_slack
            upper += self.train_slack
            upper *= scale
            lower -= rows_slack
            lower -= self.train_slack
            np.maximum(lower, 0.0, out=lower)
            lower *= scale
        return lower, upper


def _nearest_in_block(bounds, train_norm, obs_train, target_norm, holes, rows, k):
    """The k nearest candidates of every missing cell in `rows`.

    Returns (cell, train row) pairs, a cell being target row * columns +
    column, sorted by cell and then by (distance, training row index).
    """
    n_train, n_cols = train_norm.shape
    lower, upper = bounds(target_norm[rows])
    hole = holes[rows]
    # a cell's threshold: the k-th smallest upper bound among the training
    # rows that observe its column; -inf at observed cells keeps nothing
    thr = np.full(hole.shape, -np.inf, dtype=np.float32)
    if k > n_train:
        thr[hole] = np.inf
    else:
        # shortlist the m rows of smallest upper bound; every row left out
        # has an upper bound >= all m, so where at least k of them observe
        # a column, their k-th smallest is the column's, ties included, and
        # where fewer do it is inf, which keeps every candidate
        m = min(_SHORTLIST * k, n_train)
        short = np.argpartition(upper, m - 1, axis=1)[:, :m]
        # one row per hole: its row's shortlisted bounds, inf where its column is missing
        hr, hc = np.nonzero(hole)
        kth = np.where(
            obs_train[short[hr], hc[:, None]],
            np.take_along_axis(upper, short, axis=1)[hr],
            np.inf,
        )
        kth.partition(k - 1, axis=1)
        thr[hr, hc] = kth[:, k - 1]
    # one candidate filter per row; exact distances, once per pair; a pair
    # whose distance overflows float64 counts as sharing no feature. The
    # filter keeps few pairs, which a 1-D nonzero and divmod find about 10
    # times faster than a 2-D nonzero
    li, t = np.divmod(np.flatnonzero(lower <= thr.max(axis=1, keepdims=True)), n_train)
    dist = _pairwise_partial_distances(train_norm[t], target_norm[rows[li]])
    keep = obs_train[t] & (lower[li, t][:, None] <= thr[li]) & np.isfinite(dist)[:, None]
    pair, j = np.nonzero(keep)
    cell = rows[li[pair]] * n_cols + j
    t = t[pair]
    order = np.lexsort((t, dist[pair], cell))
    cell, t = cell[order], t[order]
    nearest = np.arange(cell.size) - np.searchsorted(cell, cell) < k
    return cell[nearest], t[nearest]


def knn_fill(
    train_norm: np.ndarray,
    target_norm: np.ndarray,
    k: int,
    schema: Schema,
    stats: np.ndarray,
):
    """Fill every missing target cell from its k nearest training rows.

    Distances use normalized values over the dimensions observed in both
    rows; for each missing feature only training rows that observe it are
    candidates, taken in (distance, index) order. Numerical cells get the
    neighbor mean, categorical cells the neighbor positive fraction as a
    score. Cells with no observing training row fall back to `stats`, the
    training column mean. A categorical cell is filled with score >= 0.5.
    Returns (filled grid, categorical score grid, fallback count).

    Target rows go in blocks. One matrix product per block bounds every
    (target, training) distance from below and above (`_DistanceBounds`).
    A missing cell's neighbors all have a lower bound within its threshold,
    the k-th smallest upper bound among the training rows observing its
    column. Each target row shortlists the `_SHORTLIST * k` training rows
    of smallest upper bound, which give every cell whose column at least k
    of them observe that threshold exactly; any other cell gets an infinite
    threshold. One filter per row, against its largest threshold,
    picks the pairs measured with `_pairwise_partial_distances`, and each
    cell keeps its observing candidates within its own threshold, so the
    neighbors, their order and their means are exactly those of a
    row-by-row search. With `_KNN_SPLIT_BLOCKS` blocks or more, a forked
    child may search the later half of them (`split.map_blocks`).
    """
    _check_int("k", k)
    if (
        train_norm.ndim != 2
        or target_norm.ndim != 2
        or train_norm.shape[1] != target_norm.shape[1]
    ):
        raise ValueError(
            f"knn_fill: train_norm has shape {train_norm.shape} and target_norm has "
            f"shape {target_norm.shape}; both must be 2-D with the same number of columns"
        )
    n_train, n_cols = train_norm.shape
    holes = np.isnan(target_norm)
    obs_train = ~np.isnan(train_norm)
    bounds = _DistanceBounds(train_norm, target_norm)
    rows_with_holes = np.flatnonzero(holes.any(axis=1))
    block = max(1, _KNN_BLOCK // max(n_train, 1))
    chosen = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))]
    chosen += map_blocks(
        lambda start: _nearest_in_block(
            bounds, train_norm, obs_train, target_norm, holes,
            rows_with_holes[start : start + block], k,
        ),
        range(0, rows_with_holes.size, block),
        _KNN_SPLIT_BLOCKS,
    )
    cell = np.concatenate([c for c, _ in chosen])
    vals = train_norm[np.concatenate([t for _, t in chosen]), cell % n_cols]
    cells, starts, sizes = np.unique(cell, return_index=True, return_counts=True)
    means = np.empty(cells.size)
    # ascending distinct sizes; a values-only np.unique would import numpy.ma
    for m in np.flatnonzero(np.bincount(sizes)):
        # equal-length rows reduce in the same order as a 1-D mean
        groups = np.flatnonzero(sizes == m)
        means[groups] = vals[starts[groups, None] + np.arange(m)].mean(axis=1)
    # every hole: its neighbor mean, or the column mean where it has none
    hole_cells = np.flatnonzero(holes)
    i, j = np.divmod(hole_cells, n_cols)
    value = stats[j]
    value[np.searchsorted(hole_cells, cells)] = means
    is_cat = schema.is_categorical[j]
    filled = target_norm.copy()
    cat_scores = target_norm.copy()
    filled[i, j] = np.where(is_cat, value >= 0.5, value)
    cat_scores[i[is_cat], j[is_cat]] = value[is_cat]
    return filled, cat_scores, hole_cells.size - cells.size


KNN_K = 5  # neighbours averaged per missing cell


class KnnImputer(Imputer):
    """k-nearest-neighbor imputation (k = KNN_K) on normalized data."""

    name = "knn"

    def fit(self, train: MixedTable) -> "KnnImputer":
        self.train_norm_ = self._normalized_fold(train)
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        target_norm = normalize(target.values, self.params_)
        filled, cat_scores, _ = knn_fill(
            self.train_norm_, target_norm, KNN_K, self.schema, self.norm_stats_
        )
        return _finish(target, denormalize(filled, self.params_), cat_scores, self.params_)


def _other_columns(values: np.ndarray, j: int) -> np.ndarray:
    """Every column index of ``values`` but j: the features of column j's forest."""
    return np.delete(np.arange(values.shape[1]), j)


# MissForest's trees: depth at most 12 (each split tries sqrt(features) candidates)
_REG_TREE, _CLS_TREE = (
    rf.TreeConfig(task=task, max_depth=12) for task in (rf.REGRESSION, rf.CLASSIFICATION)
)


class MissForestImputer(Imputer):
    """Iterative per-column random-forest imputation.

    Fit runs the classic sweep procedure on the training table: initialize
    missing cells from column statistics, then repeatedly re-fit a forest
    per incomplete column (ascending missing count) and re-predict its
    missing cells, stopping when the sweep-over-sweep change increases for
    every available variable type. A final forest per column, trained on
    the converged training iterate, is stored for imputing new tables
    (``forests_[j]``); these are independent, so the forests of each task
    grow in one shared `forest.fit_forests` pass. A table with no missing
    cell runs no sweep.
    """

    name = "missforest"

    def __init__(self, schema: Schema, seed: int = 0, n_trees: int = 50, max_iter: int = 10):
        super().__init__(schema, seed)
        self.n_trees = _check_int("n_trees", n_trees)
        self.max_iter = _check_int("max_iter", max_iter)

    def _column_problem(self, values: np.ndarray, observed: np.ndarray, j: int, tag):
        """(X, y, seed) of column j's forest: its observed rows, the other columns as X."""
        rows = np.flatnonzero(observed[:, j])
        X = values[np.ix_(rows, _other_columns(values, j))]
        return X, values[rows, j], derive_seed(self.seed, "missforest", tag, j)

    def _deltas(self, new, old, observed):
        num, cat = self.schema.numerical_indices, self.schema.categorical_indices
        d_num = d_cat = None
        sel = ~observed[:, num]
        if sel.any():
            new_num = new[:, num][sel]
            d_num = ((new_num - old[:, num][sel]) ** 2).sum() / max((new_num**2).sum(), 1e-300)
        sel = ~observed[:, cat]
        if sel.any():
            d_cat = (new[:, cat][sel] != old[:, cat][sel]).sum() / sel.sum()
        return d_num, d_cat

    def _iterate(self, target: MixedTable, forests, tag):
        """Sweep until the stop rule fires; returns (values, class-1 scores)."""
        observed = ~np.isnan(target.values)
        is_cat = self.schema.is_categorical
        # initial fill: the training means, modes for categoricals; constant scores to match
        fill = np.where(is_cat, self.stats_ >= 0.5, self.stats_)
        values = np.where(observed, target.values, fill)
        scores = np.where(~observed & is_cat, self.stats_, np.nan)
        missing_counts = (~observed).sum(axis=0)
        columns = [j for j in np.argsort(missing_counts, kind="stable") if missing_counts[j] > 0]
        if not columns:  # nothing to impute: no sweep can move the iterate
            return values, scores
        prev_d = (None, None)
        for it in range(self.max_iter):
            before, before_scores = values.copy(), scores.copy()
            for j in columns:
                missing_rows = np.flatnonzero(~observed[:, j])
                if forests is None:
                    X, y, seed = self._column_problem(values, observed, j, f"{tag}{it}")
                    config = _CLS_TREE if is_cat[j] else _REG_TREE
                    model = rf.fit_forest(X, y, config, self.n_trees, seed)
                else:
                    model = forests[j]
                pred = rf.predict_forest(
                    model, values[np.ix_(missing_rows, _other_columns(values, j))]
                )
                if is_cat[j]:
                    scores[missing_rows, j] = pred
                    pred = (pred >= 0.5).astype(float)
                values[missing_rows, j] = pred
            d = self._deltas(values, before, observed)
            # stop once every variable type with missing cells got worse
            available = [(new, old) for new, old in zip(d, prev_d) if new is not None]
            if available and all(old is not None and new > old for new, old in available):
                # divergence: keep the iterate from before this sweep
                return before, before_scores
            prev_d = d
        return values, scores

    def fit(self, train: MixedTable) -> "MissForestImputer":
        self._check_schema(train)
        self.stats_ = column_stats(train.values, self.schema)
        self.params_ = fit_normalizer(train)
        converged, _ = self._iterate(train, forests=None, tag="fit")
        # final forests for every column, trained on the converged iterate;
        # they are independent, so each task's grow in one shared pass
        observed = ~np.isnan(train.values)
        forests = {}
        for config, columns in (
            (_REG_TREE, self.schema.numerical_indices),
            (_CLS_TREE, self.schema.categorical_indices),
        ):
            problems = [self._column_problem(converged, observed, j, "final") for j in columns]
            forests.update(zip(columns, rf.fit_forests(problems, config, self.n_trees)))
        self.forests_ = {j: forests[j] for j in range(train.n_cols)}
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        values, scores = self._iterate(target, forests=self.forests_, tag="imp")
        return _finish(target, values, scores, self.params_)
