"""Seeded MCAR corruption and cross-validation fold assignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng
from .tabular import MixedTable

__all__ = ["MissSpec", "FoldAssignment", "drop_cells", "inject_mcar", "assign_folds"]


@dataclass(frozen=True)
class MissSpec:
    """Univariate missing rate plus the seed that fixes the pattern."""

    rate: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")


@dataclass(frozen=True)
class FoldAssignment:
    assignment: np.ndarray

    def fold_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


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


def inject_mcar(
    table: MixedTable, spec: MissSpec, exclude=()
) -> tuple[MixedTable, np.ndarray]:
    """Remove exactly round(rate * n_rows) cells per column, uniformly.

    Columns are corrupted independently; columns named in `exclude` are
    left fully observed. The input must be complete. Returns the corrupted
    table and its observation mask (1 = observed). Deterministic for a
    given (table shape, spec).
    """
    if not table.is_complete:
        raise ValueError("inject_mcar requires a complete table")
    skip = {table.schema.index_of(name) for name in exclude}
    values = drop_cells(table.values, spec.rate, make_rng(spec.seed, "mcar"), skip)
    corrupted = table.with_values(values)
    return corrupted, corrupted.mask()


def assign_folds(n_rows: int, k: int, seed: int) -> FoldAssignment:
    """Seeded uniform shuffle followed by a round-robin split into k folds."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n_rows < k:
        raise ValueError(f"cannot split {n_rows} rows into {k} folds")
    rng = make_rng(seed, "folds")
    order = rng.permutation(n_rows)
    assignment = np.empty(n_rows, dtype=int)
    assignment[order] = np.arange(n_rows) % k
    return FoldAssignment(assignment)
