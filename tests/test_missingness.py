import re

import numpy as np
import pytest

from imputebench.missingness import assign_folds, inject_mcar
from imputebench.tabular import MixedTable

from conftest import mixed_schema, random_table


def test_spec_validation():
    t = random_table(mixed_schema(), 10, seed=1)
    for rate in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"rate must be in \(0, 1\), got "):
            inject_mcar(t, rate, 1)


def test_exact_per_column_counts():
    t = random_table(mixed_schema(), 10, seed=1)
    corrupted = inject_mcar(t, 0.5, 42)
    mask = corrupted.mask()
    missing_per_col = np.isnan(corrupted.values).sum(axis=0)
    assert np.all(missing_per_col == 5)
    assert np.array_equal(mask == 0, np.isnan(corrupted.values))


@pytest.mark.parametrize("rate,n,expected", [(0.1, 9310, 931), (0.3, 100, 30)])
def test_count_arithmetic(rate, n, expected):
    t = random_table(mixed_schema(2, 0), n, seed=2)
    corrupted = inject_mcar(t, rate, 7)
    assert np.isnan(corrupted.values).sum(axis=0).tolist() == [expected, expected]


def test_determinism_and_seed_sensitivity():
    t = random_table(mixed_schema(), 50, seed=3)
    mask_a = inject_mcar(t, 0.2, 99).mask()
    mask_b = inject_mcar(t, 0.2, 99).mask()
    assert np.array_equal(mask_a, mask_b)
    differing = 0
    for seed in range(100):
        m1 = inject_mcar(t, 0.2, seed).mask()
        m2 = inject_mcar(t, 0.2, seed + 1000).mask()
        if not np.array_equal(m1, m2):
            differing += 1
    assert differing == 100


def test_requires_complete_table():
    schema = mixed_schema()
    values = random_table(schema, 20, seed=4).values.copy()
    values[[1, 5], [2, 0]] = np.nan  # the second row holds the first hole in row order
    named = f"requires a complete table; row 2, column {schema.names[2]!r} is missing"
    with pytest.raises(ValueError, match=re.escape(named)):
        inject_mcar(MixedTable(schema, values), 0.1, 0)


def test_exclude_column():
    schema = mixed_schema(2, 1, label="c0")
    t = random_table(schema, 30, seed=5)
    corrupted = inject_mcar(t, 0.3, 6, exclude=["c0"])
    mask = corrupted.mask()
    j = schema.index_of("c0")
    assert not np.isnan(corrupted.values[:, j]).any()
    assert mask[:, j].all()


def test_cross_column_independence():
    # empirical co-missingness of a column pair approximates rate^2
    t = random_table(mixed_schema(2, 0), 100, seed=8)
    rate = 0.3
    co = []
    for seed in range(200):
        mask = inject_mcar(t, rate, seed).mask()
        co.append(np.mean((mask[:, 0] == 0) & (mask[:, 1] == 0)))
    co = np.array(co)
    expected = rate * rate
    se = co.std(ddof=1) / np.sqrt(co.size)
    assert abs(co.mean() - expected) < 3 * se + 1e-9


def test_fold_sizes_even_and_remainder():
    a = assign_folds(10, 5, seed=1)
    assert np.bincount(a).tolist() == [2, 2, 2, 2, 2]
    b = assign_folds(11, 5, seed=1)
    assert sorted(np.bincount(b).tolist()) == [2, 2, 2, 2, 3]
    c = assign_folds(9310, 5, seed=1)
    assert np.bincount(c).tolist() == [1862] * 5


def test_fold_partition_and_determinism():
    a = assign_folds(37, 4, seed=11)
    b = assign_folds(37, 4, seed=11)
    assert np.array_equal(a, b)
    assert a.shape == (37,) and set(a.tolist()) == {0, 1, 2, 3}
    for f in range(4):
        test_rows, train_rows = np.flatnonzero(a == f), np.flatnonzero(a != f)
        assert set(test_rows) | set(train_rows) == set(range(37))
        assert not set(test_rows) & set(train_rows)


def test_fold_errors():
    with pytest.raises(ValueError):
        assign_folds(3, 5, seed=0)
    with pytest.raises(ValueError):
        assign_folds(10, 1, seed=0)
