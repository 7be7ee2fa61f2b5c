import numpy as np
import pytest

from imputebench.missingness import MissSpec, assign_folds, inject_mcar

from conftest import mixed_schema, random_table


def test_spec_validation():
    with pytest.raises(ValueError):
        MissSpec(0.0, 1)
    with pytest.raises(ValueError):
        MissSpec(1.0, 1)


def test_exact_per_column_counts():
    t = random_table(mixed_schema(), 10, seed=1)
    corrupted, mask = inject_mcar(t, MissSpec(0.5, 42))
    missing_per_col = np.isnan(corrupted.values).sum(axis=0)
    assert np.all(missing_per_col == 5)
    assert np.array_equal(mask == 0, np.isnan(corrupted.values))


@pytest.mark.parametrize("rate,n,expected", [(0.1, 9310, 931), (0.3, 100, 30)])
def test_count_arithmetic(rate, n, expected):
    t = random_table(mixed_schema(2, 0), n, seed=2)
    corrupted, _ = inject_mcar(t, MissSpec(rate, 7))
    assert np.isnan(corrupted.values).sum(axis=0).tolist() == [expected, expected]


def test_determinism_and_seed_sensitivity():
    t = random_table(mixed_schema(), 50, seed=3)
    _, mask_a = inject_mcar(t, MissSpec(0.2, 99))
    _, mask_b = inject_mcar(t, MissSpec(0.2, 99))
    assert np.array_equal(mask_a, mask_b)
    differing = 0
    for seed in range(100):
        _, m1 = inject_mcar(t, MissSpec(0.2, seed))
        _, m2 = inject_mcar(t, MissSpec(0.2, seed + 1000))
        if not np.array_equal(m1, m2):
            differing += 1
    assert differing == 100


def test_requires_complete_table():
    t = random_table(mixed_schema(), 20, seed=4, missing_rate=0.2)
    with pytest.raises(ValueError):
        inject_mcar(t, MissSpec(0.1, 0))


def test_exclude_column():
    schema = mixed_schema(2, 1, label="c0")
    t = random_table(schema, 30, seed=5)
    corrupted, mask = inject_mcar(t, MissSpec(0.3, 6), exclude=["c0"])
    j = schema.index_of("c0")
    assert not np.isnan(corrupted.values[:, j]).any()
    assert mask[:, j].all()


def test_cross_column_independence():
    # empirical co-missingness of a column pair approximates rate^2
    t = random_table(mixed_schema(2, 0), 100, seed=8)
    rate = 0.3
    co = []
    for seed in range(200):
        _, mask = inject_mcar(t, MissSpec(rate, seed))
        co.append(np.mean((mask[:, 0] == 0) & (mask[:, 1] == 0)))
    co = np.array(co)
    expected = rate * rate
    se = co.std(ddof=1) / np.sqrt(co.size)
    assert abs(co.mean() - expected) < 3 * se + 1e-9


def test_fold_sizes_even_and_remainder():
    a = assign_folds(10, 5, seed=1)
    sizes = [a.fold_rows(f).size for f in range(5)]
    assert sizes == [2, 2, 2, 2, 2]
    b = assign_folds(11, 5, seed=1)
    sizes = sorted(b.fold_rows(f).size for f in range(5))
    assert sizes == [2, 2, 2, 2, 3]
    c = assign_folds(9310, 5, seed=1)
    assert [c.fold_rows(f).size for f in range(5)] == [1862] * 5


def test_fold_partition_and_determinism():
    a = assign_folds(37, 4, seed=11)
    b = assign_folds(37, 4, seed=11)
    assert np.array_equal(a.assignment, b.assignment)
    covered = np.concatenate([a.fold_rows(f) for f in range(4)])
    assert sorted(covered.tolist()) == list(range(37))
    for f in range(4):
        assert set(a.fold_rows(f)) | set(a.train_rows(f)) == set(range(37))
        assert not set(a.fold_rows(f)) & set(a.train_rows(f))


def test_fold_errors():
    with pytest.raises(ValueError):
        assign_folds(3, 5, seed=0)
    with pytest.raises(ValueError):
        assign_folds(10, 1, seed=0)
