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
from .seeding import derive_seed
from .tabular import (
    MixedTable,
    NormParams,
    Schema,
    combine_imputed,
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
    "ColumnStats",
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
        self.seed = seed

    def fit(self, train: MixedTable) -> "Imputer":
        raise NotImplementedError

    def impute(self, target: MixedTable) -> ImputationResult:
        raise NotImplementedError

    def _check_schema(self, table: MixedTable):
        if table.schema != self.schema:
            raise ValueError(f"{self.name}: table schema differs from fit schema")


def _finish(
    target: MixedTable, filled: np.ndarray, cat_scores: np.ndarray, params: NormParams
) -> ImputationResult:
    """Assemble an ImputationResult from a filled value grid in data units.

    Categorical cells are re-thresholded from the score grid so hard value
    and score always agree (score >= 0.5 maps to 1); numerical cells are
    clipped to the fitted range. Observed cells are then restored from the
    target verbatim, so clipping never alters them.
    """
    mask = target.mask()
    cat = target.schema.categorical_indices
    num = params.numerical_indices
    filled = filled.copy()
    filled[:, cat] = cat_scores[:, cat] >= 0.5
    filled[:, num] = np.clip(filled[:, num], params.col_min, params.col_max)
    scores = np.full_like(filled, np.nan)
    scores[:, cat] = np.where(mask[:, cat] == 1, target.values[:, cat], cat_scores[:, cat])
    imputed = MixedTable(target.schema, filled)
    return ImputationResult(combine_imputed(target, mask, imputed), scores)


@dataclass(frozen=True)
class ColumnStats:
    """Training-column fallbacks: means, modes, and positive fractions."""

    mean: np.ndarray  # per column (categoricals included, as positive fraction)
    mode: np.ndarray  # fill value: the mode for categoricals, the mean otherwise


def column_stats(values: np.ndarray, schema: Schema) -> ColumnStats:
    mean = np.empty(values.shape[1])
    mode = np.empty(values.shape[1])
    cat = set(schema.categorical_indices.tolist())
    for j in range(values.shape[1]):
        col = values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise ValueError(
                f"column {schema.columns[j].name!r} has no observed training cells"
            )
        mean[j] = observed.mean()
        if j in cat:
            # positive fraction doubles as the (constant) class-1 score
            mode[j] = 1.0 if mean[j] >= 0.5 else 0.0
        else:
            mode[j] = mean[j]
    return ColumnStats(mean, mode)


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
        filled = np.broadcast_to(self.stats_.mean, target.values.shape).copy()
        cat_scores = np.broadcast_to(self.stats_.mean, target.values.shape).copy()
        return _finish(target, filled, cat_scores, self.params_)


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
    d2 = (diff**2).sum(axis=1)
    count = both.sum(axis=1)
    n_features = train.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(count > 0, d2 * n_features / np.maximum(count, 1), np.inf)
    return np.sqrt(scaled)


# Elements in each (target rows x training rows) temporary of knn_fill:
# 2**16 float64 values, 512 KiB per array. Blocks of 2**17 made the kernel
# about 15 % faster but raised the peak resident set of the KNN protocol
# runs by 4-6 % over the row-by-row loop, against about 3 % at 2**16.
_KNN_BLOCK = 1 << 16
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class _DistanceBounds:
    """Lower and upper bounds on the partial distances to one training set.

    Called on a block of target rows, it returns (lower, upper) over
    (rows x training rows). A pair with a co-observed feature has its
    scaled squared distance, d2 * c / count as `_pairwise_partial_distances`
    computes it before the square root, within [lower, upper], and upper
    also bounds every pair whose distance equals this one's after the
    square root. A pair with no co-observed feature gets lower = NaN and
    upper = inf, so no comparison with a bound keeps it.

    One product gives the co-observed sum of squares as
    S = [O_r, r0^2, r0] . [t0^2, O_t, -2 t0], where O is the observed mask
    and r0, t0 are the rows with missing cells set to 0, so every term of
    a feature that is not co-observed is exactly zero. With u the unit
    roundoff, g_n = n u / (1 - n u) and E = |r0|^2 + |t0|^2 >= d2 / 2:
    - rounding r0^2 and t0^2 moves the exact S by at most u E;
    - the 3c-term dot product, in any order and with or without fused
      multiply-add, errs by at most g_3c sum |a_i b_i| <= g_3c (2 + u) E;
    - the reference sums c rounded squares of rounded differences, all
      non-negative, so it errs by at most g_(c+2) d2 <= 2 g_(c+2) E.
    So |S - d2| <= 5 g_(3c+2) E, and 8 g_(3c+2) E also covers rounding E.
    Adding the slack rounds twice, under 5 u E; scaling by c / count
    rounds twice in the reference and twice here, under 8 u E; the square
    root maps values within a relative 4 u of each other to one float,
    under 8 u E: 64 u E covers all three. 16 c subnormal spacings cover
    underflow. Inputs are assumed finite, with squares that do not overflow.
    """

    def __init__(self, train: np.ndarray):
        n_train, self.n_cols = train.shape
        c = self.n_cols
        observed = ~np.isnan(train)
        train0 = np.where(observed, train, 0.0)
        side = np.empty((n_train, 3 * c))
        np.square(train0, out=side[:, :c])
        side[:, c : 2 * c] = observed
        np.multiply(train0, -2.0, out=side[:, 2 * c :])
        self.train_side = side.T
        n_terms = 3 * c + 2
        gamma = n_terms * _UNIT_ROUNDOFF / (1 - n_terms * _UNIT_ROUNDOFF)
        self.slack_factor = 8 * gamma + 64 * _UNIT_ROUNDOFF
        self.train_slack = self.slack_factor * side[:, :c].sum(axis=1)
        self.train_slack += 16 * c * np.finfo(float).smallest_subnormal

    def __call__(self, rows: np.ndarray):
        c = self.n_cols
        observed = ~np.isnan(rows)
        rows0 = np.where(observed, rows, 0.0)
        rows_slack = (self.slack_factor * (rows0**2).sum(axis=1))[:, None]
        lower = np.hstack([observed, rows0**2, rows0]) @ self.train_side
        scale = observed.astype(float) @ self.train_side[c : 2 * c]
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
    kept_local, kept_train, kept_cell = [], [], []
    for j in range(n_cols):
        local = np.flatnonzero(holes[rows, j])
        if local.size == 0:
            continue
        kth = np.inf
        if k <= n_train:
            upper_j = upper[local]
            np.copyto(upper_j, np.inf, where=~obs_train[:, j])
            upper_j.partition(k - 1, axis=1)
            kth = upper_j[:, k - 1 : k]
        li, t = np.nonzero((lower[local] <= kth) & obs_train[:, j])
        kept_local.append(local[li])
        kept_train.append(t)
        kept_cell.append(rows[local[li]] * n_cols + j)
    li = np.concatenate(kept_local)
    t = np.concatenate(kept_train)
    cell = np.concatenate(kept_cell)
    # exact distances, once per (target row, training row) pair
    pairs, back = np.unique(li * n_train + t, return_inverse=True)
    dist = _pairwise_partial_distances(
        train_norm[pairs % n_train], target_norm[rows[pairs // n_train]]
    )[back]
    order = np.lexsort((t, dist, cell))
    cell, t = cell[order], t[order]
    nearest = np.arange(cell.size) - np.searchsorted(cell, cell) < k
    return cell[nearest], t[nearest]


def knn_fill(
    train_norm: np.ndarray,
    target_norm: np.ndarray,
    k: int,
    schema: Schema,
    stats: ColumnStats,
):
    """Fill every missing target cell from its k nearest training rows.

    Distances use normalized values over the dimensions observed in both
    rows; for each missing feature only training rows that observe it are
    candidates, taken in (distance, index) order. Numerical cells get the
    neighbor mean, categorical cells the neighbor positive fraction as a
    score. Cells with no observing training row fall back to the training
    column statistic. Returns (filled grid, categorical score grid,
    fallback count).

    Target rows go in blocks. One matrix product per block bounds every
    (target, training) distance from below and above (`_DistanceBounds`).
    For each missing cell, only candidates whose lower bound is within the
    k-th smallest upper bound can be neighbors; only those pairs are
    measured with `_pairwise_partial_distances`, so the neighbors, their
    order and their means are exactly those of a row-by-row search.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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
    bounds = _DistanceBounds(train_norm)
    rows_with_holes = np.flatnonzero(holes.any(axis=1))
    block = max(1, _KNN_BLOCK // max(n_train, 1))
    chosen = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))]
    for start in range(0, rows_with_holes.size, block):
        rows = rows_with_holes[start : start + block]
        chosen.append(
            _nearest_in_block(bounds, train_norm, obs_train, target_norm, holes, rows, k)
        )
    cell = np.concatenate([c for c, _ in chosen])
    vals = train_norm[np.concatenate([t for _, t in chosen]), cell % n_cols]
    cells, starts, sizes = np.unique(cell, return_index=True, return_counts=True)
    means = np.empty(cells.size)
    for m in np.unique(sizes):
        # equal-length rows reduce in the same order as a 1-D mean
        groups = np.flatnonzero(sizes == m)
        means[groups] = vals[starts[groups, None] + np.arange(m)].mean(axis=1)
    is_cat = np.zeros(n_cols, dtype=bool)
    is_cat[schema.categorical_indices] = True
    filled = target_norm.copy()
    cat_scores = target_norm.copy()
    i, j = np.divmod(cells, n_cols)
    filled[i, j] = np.where(is_cat[j], (means >= 0.5).astype(float), means)
    cat_scores[i[is_cat[j]], j[is_cat[j]]] = means[is_cat[j]]
    unfilled = holes.copy()
    unfilled[i, j] = False
    i, j = np.nonzero(unfilled)
    filled[i, j] = stats.mode[j]
    cat_scores[i[is_cat[j]], j[is_cat[j]]] = stats.mean[j[is_cat[j]]]
    return filled, cat_scores, int(i.size)


class KnnImputer(Imputer):
    """k-nearest-neighbor imputation (k = 5 by default) on normalized data."""

    name = "knn"

    def __init__(self, schema: Schema, seed: int = 0, k: int = 5):
        super().__init__(schema, seed)
        self.k = k

    def fit(self, train: MixedTable) -> "KnnImputer":
        self._check_schema(train)
        self.params_ = fit_normalizer(train)
        self.train_norm_ = normalize(train, self.params_).values
        # fallback statistics in normalized units
        self.norm_stats_ = column_stats(self.train_norm_, self.schema)
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        target_norm = normalize(target, self.params_).values
        filled, cat_scores, _ = knn_fill(
            self.train_norm_, target_norm, self.k, self.schema, self.norm_stats_
        )
        filled_raw = denormalize(MixedTable(self.schema, filled), self.params_).values
        return _finish(target, filled_raw, cat_scores, self.params_)


class MissForestImputer(Imputer):
    """Iterative per-column random-forest imputation.

    Fit runs the classic sweep procedure on the training table: initialize
    missing cells from column statistics, then repeatedly re-fit a forest
    per incomplete column (ascending missing count) and re-predict its
    missing cells, stopping when the sweep-over-sweep change increases for
    every available variable type. A final forest per column, trained on
    the converged training iterate, is stored for imputing new tables.
    """

    name = "missforest"

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        n_trees: int = 50,
        max_depth: int | None = 12,
        max_iter: int = 10,
        n_features_per_split="sqrt",
    ):
        super().__init__(schema, seed)
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_trees = n_trees
        self.max_iter = max_iter
        self.reg_config, self.cls_config = (
            rf.TreeConfig(task=task, max_depth=max_depth, n_features_per_split=n_features_per_split)
            for task in (rf.REGRESSION, rf.CLASSIFICATION)
        )

    def _fit_column_forest(self, values: np.ndarray, observed_rows, j: int, tag):
        other = np.delete(np.arange(values.shape[1]), j)
        X = values[np.ix_(observed_rows, other)]
        y = values[observed_rows, j]
        seed = derive_seed(self.seed, "missforest", tag, j)
        config = self.cls_config if j in self.schema.categorical_indices else self.reg_config
        return rf.fit_forest(X, y, config, self.n_trees, seed), other

    def _deltas(self, new, old, observed):
        num = self.schema.numerical_indices
        cat = self.schema.categorical_indices
        d_num = d_cat = None
        if num.size and (~observed[:, num]).any():
            sel = ~observed[:, num]
            denom = (new[:, num][sel] ** 2).sum()
            d_num = ((new[:, num][sel] - old[:, num][sel]) ** 2).sum() / max(
                denom, 1e-300
            )
        if cat.size and (~observed[:, cat]).any():
            sel = ~observed[:, cat]
            d_cat = (new[:, cat][sel] != old[:, cat][sel]).sum() / sel.sum()
        return d_num, d_cat

    def _iterate(self, target: MixedTable, forests, tag):
        """Sweep until the stop rule fires; returns (values, class-1 scores)."""
        observed = ~np.isnan(target.values)
        is_cat = np.isin(np.arange(target.n_cols), self.schema.categorical_indices)
        # initial fill from training statistics; constant scores to match
        values = np.where(observed, target.values, self.stats_.mode)
        scores = np.where(~observed & is_cat, self.stats_.mean, np.nan)
        missing_counts = (~observed).sum(axis=0)
        columns = [j for j in np.argsort(missing_counts, kind="stable") if missing_counts[j] > 0]
        prev_d = (None, None)
        for it in range(self.max_iter):
            before, before_scores = values.copy(), scores.copy()
            for j in columns:
                missing_rows = np.flatnonzero(~observed[:, j])
                if forests is None:
                    model, other = self._fit_column_forest(
                        values, np.flatnonzero(observed[:, j]), j, f"{tag}{it}"
                    )
                else:
                    model, other = forests[j]
                pred = rf.predict_forest(model, values[np.ix_(missing_rows, other)])
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
        # final forests for every column, trained on the converged iterate
        observed = ~np.isnan(train.values)
        self.forests_ = {
            j: self._fit_column_forest(converged, np.flatnonzero(observed[:, j]), j, "final")
            for j in range(train.n_cols)
        }
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        values, scores = self._iterate(target, forests=self.forests_, tag="imp")
        return _finish(target, values, scores, self.params_)
