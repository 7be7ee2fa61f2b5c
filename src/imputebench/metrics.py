"""Scoring: normalized RMSE, rank-based AUROC with tie handling, and F1."""

from __future__ import annotations

import numpy as np

from .tabular import MixedTable, NormParams, normalize

__all__ = [
    "UndefinedMetricError",
    "normalized_rmse",
    "auroc",
    "categorical_auroc",
    "f1",
]


class UndefinedMetricError(ValueError):
    """The metric has no value on the given inputs (e.g. empty cell set)."""


def _refuse_nan(table, values, scored, schema, idx):
    """Raise a ValueError naming the first NaN among ``values[:, idx]``'s scored cells."""
    bad = scored & np.isnan(values[:, idx])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{table} has NaN at a scored cell: column {schema.columns[idx[j]].name!r}, "
            f"row {i + 1}"
        )


def normalized_rmse(
    truth: MixedTable, imputed: MixedTable, mask: np.ndarray, params: NormParams
) -> float:
    """RMSE over originally-missing numerical cells, in min-max units.

    Both tables are normalized with `params` first, so the score is
    comparable across columns with different physical ranges. A NaN at a
    scored cell is a ValueError, not an undefined metric.
    """
    mask = np.asarray(mask)
    t = normalize(truth.values, params)
    p = normalize(imputed.values, params)
    idx = truth.schema.numerical_indices
    sel = mask[:, idx] == 0
    if not sel.any():
        raise UndefinedMetricError("no missing numerical cells to score")
    _refuse_nan("truth", truth.values, sel, truth.schema, idx)
    _refuse_nan("imputed", imputed.values, sel, truth.schema, idx)
    diff = (t[:, idx] - p[:, idx])[sel]
    return float(np.sqrt(np.mean(diff**2)))


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC: P(score_pos > score_neg), ties half-credited."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("AUROC scores contain NaN")
    # per positive, (left + right) / 2 is the negatives below it plus half the ties
    neg, p = np.sort(scores[~pos]), scores[pos]
    u = (np.searchsorted(neg, p, "left") + np.searchsorted(neg, p, "right")).sum() / 2
    return float(u / (n_pos * n_neg))


def categorical_auroc(truth: MixedTable, scores: np.ndarray, mask: np.ndarray) -> float:
    """AUROC of imputation scores over missing categorical cells.

    The macro mean of per-column AUROCs, over the columns with both classes
    among their missing cells. A NaN label or score at a scored cell is a
    ValueError, not an undefined metric.
    """
    mask = np.asarray(mask)
    scores = np.asarray(scores, dtype=float)
    idx = truth.schema.categorical_indices
    scored = mask[:, idx] == 0
    _refuse_nan("truth", truth.values, scored, truth.schema, idx)
    _refuse_nan("scores", scores, scored, truth.schema, idx)
    per_column = []
    for j, rows in zip(idx, scored.T):
        if not rows.any():
            continue
        try:
            per_column.append(auroc(scores[rows, j], truth.values[rows, j]))
        except UndefinedMetricError:
            continue  # single-class column: excluded from the mean
    if not scored.any():
        raise UndefinedMetricError("no missing categorical cells to score")
    if not per_column:
        raise UndefinedMetricError("every categorical column is single-class among missing cells")
    return float(np.mean(per_column))


def f1(predictions, labels) -> float:
    """F1 of the positive class; undefined when there are no positives anywhere."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must be equal-length, nonempty")
    tp = float(np.sum((p == 1) & (y == 1)))
    fp = float(np.sum((p == 1) & (y == 0)))
    fn = float(np.sum((p == 0) & (y == 1)))
    denom = 2 * tp + fp + fn
    if denom == 0:
        raise UndefinedMetricError("F1 needs a positive label or prediction")
    return 2 * tp / denom
