"""SMOTE minority oversampling for imbalanced binary classification."""

from __future__ import annotations

import warnings

import numpy as np

from .seeding import make_rng

__all__ = ["smote"]

# minority neighbours each synthetic row may interpolate towards
K_NEIGHBORS = 5
# (row, minority row, feature) differences computed per block of the neighbor search
_SMOTE_BLOCK = 2**16


def smote(X, y, seed: int, categorical_indices=()):
    """Balance the classes 1:1 with minority rows interpolated between neighbors.

    Each synthetic sample lies on the segment between a seeded random
    minority row `a` and one of its `K_NEIGHBORS` nearest minority
    neighbors; categorical coordinates are copied from `a` rather than
    interpolated.
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
    if n_min < 2:
        raise ValueError("need at least 2 minority samples for SMOTE")
    k = K_NEIGHBORS
    if n_min <= k:
        k = n_min - 1
        warnings.warn(f"minority count {n_min} <= k = {K_NEIGHBORS}; reducing k to {k}")
    Xm = X[minority_rows]
    neighbor_ids = np.empty((n_min, k), dtype=np.intp)
    block = max(1, _SMOTE_BLOCK // max(1, n_min * X.shape[1]))
    for start in range(0, n_min, block):
        rows = np.arange(start, min(start + block, n_min))
        d2 = ((Xm[rows, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
        d2[rows - start, rows] = np.inf
        neighbor_ids[rows] = _first_k(d2, k)
    rng = make_rng(seed, "smote")
    cat = np.asarray(list(categorical_indices), dtype=int)
    synthetic = np.empty((n_needed, X.shape[1]))
    for s in range(n_needed):
        a = int(rng.integers(0, n_min))
        b = int(neighbor_ids[a, rng.integers(0, k)])
        u = rng.random()
        row = Xm[a] + u * (Xm[b] - Xm[a])
        row[cat] = Xm[a, cat]
        synthetic[s] = row
    X_out = np.vstack([X, synthetic])
    y_out = np.concatenate([y, np.full(n_needed, minority)])
    return X_out, y_out


def _first_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's first k columns of a stable argsort of `d2`, without the full sort.

    A partition finds each row's k-th distance; only the entries not above it
    are then ordered by (row, distance, column). NaN distances are kept, and
    sort last as in argsort, so a row with fewer than k numbers still gets k.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    r, c = np.nonzero(~(d2 > kth))
    order = np.lexsort((c, d2[r, c], r))
    counts = np.bincount(r, minlength=d2.shape[0])
    starts = np.cumsum(counts) - counts
    return c[order[starts[:, None] + np.arange(k)]]
