"""Seeded MCAR corruption and cross-validation fold assignment."""

from __future__ import annotations

import numpy as np

from .seeding import make_rng
from .tabular import MixedTable

__all__ = ["drop_cells", "inject_mcar", "assign_folds"]


def drop_cells(values: np.ndarray, rate: float, rng: np.random.Generator, skip=()):
    """Copy of `values` with exactly round(rate * n_rows) cells per column set to NaN.

    Each column draws its rows uniformly without replacement from `rng`, in
    column order; column positions in `skip` are left untouched and draw
    nothing, so the stream depends only on the shape, rate and skip set.
    """
    n = values.shape[0]
    count = int(round(rate * n))
    out = values.copy()
    for j in range(values.shape[1]):
        if j not in skip:
            out[rng.choice(n, size=count, replace=False), j] = np.nan
    return out


def inject_mcar(table: MixedTable, rate: float, seed: int, exclude=()) -> MixedTable:
    """Remove exactly round(rate * n_rows) cells per column, uniformly.

    Columns are corrupted independently; columns named in `exclude` are
    left fully observed. The input must be complete and `rate` in (0, 1).
    Returns the corrupted table, whose `mask()` is the observation mask.
    Deterministic for a given (table shape, rate, seed).
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    holes = np.argwhere(np.isnan(table.values))
    if holes.size:
        i, j = holes[0]
        raise ValueError(
            f"inject_mcar requires a complete table; row {i + 1}, column "
            f"{table.schema.names[j]!r} is missing"
        )
    skip = {table.schema.index_of(name) for name in exclude}
    return table.with_values(drop_cells(table.values, rate, make_rng(seed, "mcar"), skip))


def assign_folds(n_rows: int, k: int, seed: int) -> np.ndarray:
    """Each row's fold in 0..k-1: a seeded uniform shuffle, then a round-robin split."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n_rows < k:
        raise ValueError(f"cannot split {n_rows} rows into {k} folds")
    rng = make_rng(seed, "folds")
    order = rng.permutation(n_rows)
    assignment = np.empty(n_rows, dtype=int)
    assignment[order] = np.arange(n_rows) % k
    return assignment
