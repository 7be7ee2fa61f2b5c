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
    clip_to_fitted,
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
    filled = filled.copy()
    filled[:, cat] = cat_scores[:, cat] >= 0.5
    scores = np.full_like(filled, np.nan)
    scores[:, cat] = np.where(mask[:, cat] == 1, target.values[:, cat], cat_scores[:, cat])
    clipped = clip_to_fitted(MixedTable(target.schema, filled), params)
    return ImputationResult(combine_imputed(target, mask, clipped), scores)


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
    observed feature get an infinite distance.
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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cat = set(schema.categorical_indices.tolist())
    filled = target_norm.copy()
    cat_scores = target_norm.copy()
    fallbacks = 0
    obs_train = ~np.isnan(train_norm)
    for i in range(target_norm.shape[0]):
        row = target_norm[i]
        missing = np.flatnonzero(np.isnan(row))
        if missing.size == 0:
            continue
        dist = _pairwise_partial_distances(train_norm, row)
        order = np.lexsort((np.arange(dist.size), dist))
        for j in missing:
            candidates = order[obs_train[order, j] & np.isfinite(dist[order])]
            if candidates.size == 0:
                value = stats.mode[j]
                score = stats.mean[j]
                fallbacks += 1
            else:
                neighbors = candidates[:k]
                vals = train_norm[neighbors, j]
                if j in cat:
                    score = float(vals.mean())
                    value = 1.0 if score >= 0.5 else 0.0
                else:
                    value = float(vals.mean())
                    score = value
            filled[i, j] = value
            if j in cat:
                cat_scores[i, j] = score
    return filled, cat_scores, fallbacks


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
        filled, cat_scores, self.last_fallbacks_ = knn_fill(
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
        self.n_trees = n_trees
        self.max_iter = max_iter
        self.reg_config = rf.TreeConfig(
            task=rf.REGRESSION,
            max_depth=max_depth,
            n_features_per_split=n_features_per_split,
        )
        self.cls_config = rf.TreeConfig(
            task=rf.CLASSIFICATION,
            max_depth=max_depth,
            n_features_per_split=n_features_per_split,
        )

    def _config_for(self, j: int):
        return self.cls_config if j in self.schema.categorical_indices else self.reg_config

    def _fit_column_forest(self, values: np.ndarray, observed_rows, j: int, tag):
        other = np.delete(np.arange(values.shape[1]), j)
        X = values[np.ix_(observed_rows, other)]
        y = values[observed_rows, j]
        seed = derive_seed(self.seed, "missforest", tag, j)
        return rf.fit_forest(X, y, self._config_for(j), self.n_trees, seed), other

    def _sweep(self, values, observed, columns, forests=None, tag="fit"):
        """One pass over incomplete columns; returns (values, forests used)."""
        used = {}
        for j in columns:
            missing_rows = np.flatnonzero(~observed[:, j])
            if forests is None:
                model, other = self._fit_column_forest(
                    values, np.flatnonzero(observed[:, j]), j, tag
                )
            else:
                model, other = forests[j]
            used[j] = (model, other)
            pred = rf.predict_forest(model, values[np.ix_(missing_rows, other)])
            if self._config_for(j) is self.cls_config:
                self._scores[missing_rows, j] = pred
                pred = (pred >= 0.5).astype(float)
            values[missing_rows, j] = pred
        return values, used

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
        values = target.values.copy()
        observed = ~np.isnan(values)
        self._scores = np.full_like(values, np.nan)
        cat = self.schema.categorical_indices
        # initial fill from training statistics; constant scores to match
        for j in range(values.shape[1]):
            values[~observed[:, j], j] = self.stats_.mode[j]
            if j in cat:
                self._scores[~observed[:, j], j] = self.stats_.mean[j]
        missing_counts = (~observed).sum(axis=0)
        columns = [j for j in np.argsort(missing_counts, kind="stable") if missing_counts[j] > 0]
        if not columns:
            return values, self._scores
        prev_d = (None, None)
        for it in range(self.max_iter):
            before = values.copy()
            before_scores = self._scores.copy()
            values, _ = self._sweep(values, observed, columns, forests, f"{tag}{it}")
            d_num, d_cat = self._deltas(values, before, observed)
            num_up = prev_d[0] is not None and d_num is not None and d_num > prev_d[0]
            cat_up = prev_d[1] is not None and d_cat is not None and d_cat > prev_d[1]
            available = [x is not None for x in (d_num, d_cat)]
            increased = [
                up for up, avail in zip((num_up, cat_up), available) if avail
            ]
            if increased and all(increased):
                # divergence: keep the iterate from before this sweep
                return before, before_scores
            prev_d = (d_num, d_cat)
        return values, self._scores

    def fit(self, train: MixedTable) -> "MissForestImputer":
        self._check_schema(train)
        self.stats_ = column_stats(train.values, self.schema)
        self.params_ = fit_normalizer(train)
        converged, _ = self._iterate(train, forests=None, tag="fit")
        # final forests for every column, trained on the converged iterate
        observed = ~np.isnan(train.values)
        self.forests_ = {}
        for j in range(train.n_cols):
            rows = np.flatnonzero(observed[:, j])
            complete = converged.copy()
            complete[rows, j] = train.values[rows, j]
            self.forests_[j] = self._fit_column_forest(complete, rows, j, "final")
        return self

    def impute(self, target: MixedTable) -> ImputationResult:
        self._check_schema(target)
        values, scores = self._iterate(target, forests=self.forests_, tag="imp")
        return _finish(target, values, scores, self.params_)
