"""The blocked knn_fill against the row-by-row reference, bit for bit."""

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import imputebench
from imputebench import imputers, split
from imputebench.imputers import column_stats, knn_fill

from conftest import make_rng, mixed_schema
from knn_reference import assert_matches_rowwise


def _grid(schema, n_rows, rng, rate, scale=1.0, offset=0.0):
    """Normalized-looking values: numerical uniform, categorical 0/1, MCAR holes.

    Every column keeps at least one observed cell so column_stats is defined.
    """
    values = rng.random((n_rows, schema.n_cols)) * scale + offset
    cat = schema.categorical_indices
    values[:, cat] = rng.integers(0, 2, (n_rows, cat.size))
    holes = rng.random(values.shape) < rate
    holes[rng.integers(0, n_rows, schema.n_cols), np.arange(schema.n_cols)] = False
    values[holes] = np.nan
    return values


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ties_from_duplicated_rows(k):
    schema = mixed_schema(3, 2)
    rng = make_rng(11)
    base = _grid(schema, 15, rng, 0.0)
    train = np.vstack([base, base, base])
    target = base.copy()
    target[rng.random(target.shape) < 0.3] = np.nan
    assert_matches_rowwise(train, target, k, schema)


@pytest.mark.parametrize("extra", [0, 1, 7])
def test_k_at_or_above_n_train(extra):
    schema = mixed_schema(3, 2)
    rng = make_rng(12)
    train = _grid(schema, 9, rng, 0.3)
    target = _grid(schema, 12, rng, 0.4)
    assert_matches_rowwise(train, target, 9 + extra, schema)


def test_rows_sharing_no_feature_and_columns_without_candidates():
    schema = mixed_schema(4, 0)
    nan = np.nan
    # rows 0-2 observe only columns 0-1, rows 3-4 only columns 2-3
    train = np.array(
        [
            [0.1, 0.2, nan, nan],
            [0.4, 0.3, nan, nan],
            [0.9, 0.8, nan, nan],
            [nan, nan, 0.5, 0.6],
            [nan, nan, 0.7, 0.1],
        ]
    )
    target = np.array(
        [
            [0.2, 0.2, nan, nan],  # linked to rows 0-2 only; columns 2-3 fall back
            [nan, nan, nan, nan],  # linked to nothing: every cell falls back
            [nan, nan, 0.6, nan],  # linked to rows 3-4 only; columns 0-1 fall back
            [0.5, nan, 0.5, nan],  # linked to all rows
        ]
    )
    assert assert_matches_rowwise(train, target, 2, schema) == 8


@pytest.mark.parametrize("rate", [0.3, 0.6])
def test_self_imputation_same_array(rate):
    schema = mixed_schema(4, 3)
    values = _grid(schema, 60, make_rng(13), rate)
    assert_matches_rowwise(values, values, 5, schema)


@pytest.mark.parametrize(
    "scale, offset", [(1e3, -500.0), (1e-6, 0.0), (1.0, 1e4), (50.0, 25.0)]
)
def test_targets_far_outside_unit_range(scale, offset):
    schema = mixed_schema(4, 1)
    rng = make_rng(14)
    train = _grid(schema, 80, rng, 0.2)
    target = _grid(schema, 40, rng, 0.3, scale, offset)
    assert_matches_rowwise(train, target, 5, schema)


def test_mixed_column_magnitudes():
    schema = mixed_schema(5, 2)
    rng = make_rng(15)
    magnitudes = np.array([1e-8, 1e-3, 1.0, 1e3, 1e6, 1.0, 1.0])
    train = _grid(schema, 70, rng, 0.25) * magnitudes
    target = _grid(schema, 50, rng, 0.35) * magnitudes
    assert_matches_rowwise(train, target, 4, schema)


@pytest.mark.parametrize("n_num, n_cat", [(5, 0), (0, 5)])
def test_single_kind_schemas(n_num, n_cat):
    schema = mixed_schema(n_num, n_cat)
    rng = make_rng(16)
    train = _grid(schema, 50, rng, 0.3)
    target = _grid(schema, 30, rng, 0.4)
    assert_matches_rowwise(train, target, 5, schema)
    assert_matches_rowwise(train, train, 3, schema)


@pytest.mark.parametrize("block", [8, 64, 1000])
def test_n_train_on_both_sides_of_the_block(monkeypatch, block):
    # 40 training rows: 1 target row per block at 8 and 64 elements, 25 at 1000
    monkeypatch.setattr(imputers, "_KNN_BLOCK", block)
    schema = mixed_schema(3, 2)
    rng = make_rng(17)
    train = _grid(schema, 40, rng, 0.3)
    target = _grid(schema, 53, rng, 0.3)
    assert_matches_rowwise(train, target, 5, schema)


@pytest.mark.parametrize("shortlist", [1, 2, imputers._SHORTLIST])
@pytest.mark.parametrize("k", [1, 3])
def test_column_observed_only_outside_the_shortlist(monkeypatch, shortlist, k):
    # the 30 training rows nearest every target row miss column 2; only 10
    # far rows observe it, so each hole there gets an infinite threshold
    # while the other holes take theirs from the shortlist
    monkeypatch.setattr(imputers, "_SHORTLIST", shortlist)
    schema = mixed_schema(3, 1)
    rng = make_rng(20)
    near = _grid(schema, 30, rng, 0.1)
    near[:, 2] = np.nan
    far = _grid(schema, 10, rng, 0.0, 1.0, 5.0)
    train = np.vstack([near, far])
    target = _grid(schema, 12, rng, 0.0)
    target[:, 2] = np.nan
    target[rng.random(target.shape) < 0.2] = np.nan
    target[0, [0, 2]] = np.nan
    assert assert_matches_rowwise(train, target, k, schema) == 0


def test_n_train_above_the_real_block():
    schema = mixed_schema(2, 1)
    rng = make_rng(18)
    train = _grid(schema, imputers._KNN_BLOCK + 5, rng, 0.2)
    target = _grid(schema, 3, rng, 0.5)
    target[0] = np.nan
    assert_matches_rowwise(train, target, 5, schema)


def test_complete_target_is_returned_unchanged():
    schema = mixed_schema(2, 1)
    rng = make_rng(19)
    train = _grid(schema, 10, rng, 0.2)
    target = _grid(schema, 4, rng, 0.0)
    filled, scores, fallbacks = knn_fill(train, target, 3, schema, column_stats(train, schema))
    assert np.array_equal(filled, target) and np.array_equal(scores, target)
    assert fallbacks == 0


@pytest.mark.parametrize(
    "target_shape, k, message",
    [((4, 2), 2, r"\(5, 3\).*\(4, 2\)"), ((3,), 2, r"\(5, 3\).*\(3,\)"), ((4, 3), 0, "k must be")],
)
def test_bad_inputs_raise_named_errors(target_shape, k, message):
    schema = mixed_schema(3, 0)
    train = np.zeros((5, 3))
    with pytest.raises(ValueError, match=message):
        knn_fill(train, np.zeros(target_shape), k, schema, column_stats(train, schema))


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("grid", ["train_norm", "target_norm"])
def test_an_infinite_cell_is_a_named_error(grid, value):
    # NaN marks a missing cell; an infinite one has no distance to any row,
    # so it is named rather than filled from the column mean
    schema = mixed_schema(3, 1)
    rng = make_rng(43)
    train, target = _grid(schema, 12, rng, 0.0), _grid(schema, 5, rng, 0.0)
    target[2, 0] = np.nan
    stats = column_stats(train, schema)
    {"train_norm": train, "target_norm": target}[grid][2, 1] = value
    with pytest.raises(ValueError, match=f"^knn_fill: {grid} has an infinite entry at row 2, column 1$"):
        knn_fill(train, target, 3, schema, stats)


def _float32_extremes(rng, n_rows, scale):
    """Three numerical columns at `scale` beside a unit-range column observed in
    about 30 % of rows and a categorical column of zeros, with 30 % MCAR holes.

    At 1e20 the float32 squares pass the float32 range (about 3.4e38), and
    after the prescale the unit-range column's squares underflow. At 1e-22
    the squares fall below the smallest normal float32 (about 1.2e-38),
    where float32 rounding is absolute, and pairs that share no observed
    unit-range cell are ordered by differences that small. At 1e-25 the
    squares flush to zero. At 1e200 the float64 distances overflow too.
    """
    schema = mixed_schema(4, 1)
    values = rng.random((n_rows, 5)) * np.array([scale, scale, scale, 1.0, 0.0])
    values[rng.random(values.shape) < 0.3] = np.nan
    values[rng.random(n_rows) < 0.7, 3] = np.nan
    values[0] = [scale, scale, scale, 1.0, 0.0]
    return schema, values


@pytest.mark.parametrize("scale", [1e20, 1e-22, 1e-25])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_float32_extreme_magnitudes_holdout(scale, seed):
    schema, values = _float32_extremes(make_rng(seed), 90, scale)
    assert_matches_rowwise(values[:60], values[60:], 3, schema)


@pytest.mark.parametrize("scale", [1e20, 1e-22, 1e-25])
@pytest.mark.parametrize("seed", [24, 25, 26])
def test_float32_extreme_magnitudes_self_imputation(scale, seed):
    schema, values = _float32_extremes(make_rng(seed), 60, scale)
    assert_matches_rowwise(values, values, 3, schema)


@pytest.mark.parametrize("seed", [27, 28])
def test_pairs_whose_float64_distance_overflows_share_no_feature(seed):
    # the float32 bounds stay finite, but the reference skips every pair at
    # an infinite distance, as it skips pairs that share no observed feature
    schema, values = _float32_extremes(make_rng(seed), 90, 1e200)
    assert assert_matches_rowwise(values[:60], values[60:], 3, schema) > 0
    assert_matches_rowwise(values, values, 3, schema)


@pytest.mark.skipif(
    not imputebench._FREED_BLOCKS_KEPT, reason="the C library has no mallopt"
)
def test_repeated_self_imputation_reuses_freed_blocks():
    # the bench-deep-1000 call shape: 800 x 800 self-imputation, 14 columns,
    # 20 % missing; with glibc's default thresholds each call mapped and
    # zero-faulted its block temporaries afresh (about 2,000 minor faults)
    schema = mixed_schema(8, 6)
    values = _grid(schema, 800, make_rng(41), 0.2)
    stats = column_stats(values, schema)
    knn_fill(values, values, 5, schema, stats)
    calls = 5
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        knn_fill(values, values, 5, schema, stats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 200


def test_a_block_holds_one_bound_matrix_at_a_time(monkeypatch):
    # the deep methods' refill shape: 800 x 800 self-imputation, 15 columns,
    # 20 % missing, k 15, serial, ten blocks of 81 rows. With both bound
    # matrices, the shortlist's index matrix and the distance step's
    # temporaries alive together in each block, this call's traced peak was
    # 2.62 MiB; with upper freed at the thresholds and lower before the
    # distances, 2.21 MiB. The call now peaks at its pair lists, so this
    # test reads each block's own peak above what was alive when it began:
    # 1.24 MiB with both bound matrices kept to the block's end, 1.03 MiB
    # with upper freed at the thresholds (numpy 2.4, CPython 3.11). The
    # bound lies midway.
    schema = mixed_schema(8, 7)
    values = _grid(schema, 800, make_rng(46), 0.2)
    stats = column_stats(values, schema)
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    inner = imputers._nearest_in_block
    block_peaks = []

    def traced_block(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = inner(*args)
        block_peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(imputers, "_nearest_in_block", traced_block)
    tracemalloc.start()
    try:
        knn_fill(values, values, 15, schema, stats)
    finally:
        tracemalloc.stop()
    assert len(block_peaks) == 10
    assert max(block_peaks) / 2**20 < 1.14


def test_a_call_frees_its_pair_lists_before_its_means(monkeypatch):
    # the same serial k 15 call. The call peaks after its blocks: with the
    # block pair lists, the full shortlist index matrix and the gathered
    # training rows alive through np.unique it read 2.21 MiB; with the
    # lists freed before the gather but the training rows alive through
    # np.unique, 1.94 MiB; with each freed as soon as it is read, 1.67 MiB
    # (numpy 2.4, CPython 3.11). The bound lies between the last two.
    schema = mixed_schema(8, 7)
    values = _grid(schema, 800, make_rng(46), 0.2)
    stats = column_stats(values, schema)
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    tracemalloc.start()
    try:
        knn_fill(values, values, 15, schema, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 1.80


def test_a_fill_with_holes_does_not_import_numpy_ma():
    # on numpy 2.4 a values-only np.unique imports numpy.ma on first use, a
    # module no other part of a run needs; a fresh interpreter shows it
    code = """
import sys
import numpy as np
from imputebench.imputers import column_stats, knn_fill
from imputebench.tabular import Column, ColumnKind, Schema
schema = Schema([Column("x", ColumnKind.NUMERICAL), Column("c", ColumnKind.CATEGORICAL_BINARY)])
values = np.array([[0.1, 1.0], [0.4, np.nan], [np.nan, 0.0], [0.9, 1.0], [0.3, 0.0]])
assert "numpy.ma" not in sys.modules
filled, _, fallbacks = knn_fill(values, values, 2, schema, column_stats(values, schema))
assert not np.isnan(filled).any() and fallbacks == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
