"""SMOTE minority oversampling for imbalanced binary classification."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

__all__ = ["SmoteConfig", "smote"]

# (row, minority row) distance pairs computed per block of the neighbor search
_SMOTE_BLOCK = 2**16


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


def smote(X, y, config: SmoteConfig, categorical_indices=()):
    """Balance the classes 1:1 with minority rows interpolated between neighbors.

    Each synthetic sample lies on the segment between a seeded random
    minority row `a` and one of its k nearest minority neighbors;
    categorical coordinates are copied from `a` rather than interpolated.
    Original rows are preserved first, in order. Returns (X', y').
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("SMOTE needs both classes present")
    minority = classes[np.argmin(counts)]
    minority_rows = np.flatnonzero(y == minority)
    n_min = minority_rows.size
    n_maj = y.size - n_min
    n_needed = n_maj - n_min
    if n_needed <= 0:
        return X.copy(), y.copy()
    k = config.k_neighbors
    if n_min <= k:
        k = n_min - 1
        warnings.warn(
            f"minority count {n_min} <= k_neighbors; reducing k to {k}"
        )
        if k < 1:
            raise ValueError("need at least 2 minority samples for SMOTE")
    Xm = X[minority_rows]
    neighbor_ids = np.empty((n_min, k), dtype=np.intp)
    block = max(1, _SMOTE_BLOCK // n_min)
    for start in range(0, n_min, block):
        rows = np.arange(start, min(start + block, n_min))
        d2 = ((Xm[rows, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
        d2[rows - start, rows] = np.inf
        neighbor_ids[rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rng = make_rng(config.seed, "smote")
    cat = np.asarray(list(categorical_indices), dtype=int)
    synthetic = np.empty((n_needed, X.shape[1]))
    for s in range(n_needed):
        a = int(rng.integers(0, n_min))
        b = int(neighbor_ids[a, rng.integers(0, k)])
        u = rng.random()
        row = Xm[a] + u * (Xm[b] - Xm[a])
        if cat.size:
            row[cat] = Xm[a, cat]
        synthetic[s] = row
    X_out = np.vstack([X, synthetic])
    y_out = np.concatenate([y, np.full(n_needed, minority)])
    return X_out, y_out
