import numpy as np
import pytest

from imputebench import resample
from imputebench.resample import smote
from imputebench.seeding import make_rng as seeded_rng

from conftest import make_rng


def test_balanced_input_is_noop():
    rng = make_rng(1)
    X = rng.uniform(0, 1, size=(20, 3))
    y = np.array([0.0, 1.0] * 10)
    X2, y2 = smote(X, y, seed=0)
    assert np.array_equal(X2, X)
    assert np.array_equal(y2, y)
    assert X2 is not X  # defensive copy


def test_exact_synthetic_count():
    rng = make_rng(2)
    X = rng.uniform(0, 1, size=(125, 4))
    y = np.concatenate([np.zeros(100), np.ones(25)])
    X2, y2 = smote(X, y, seed=3)
    assert X2.shape == (200, 4)
    assert (y2 == 1).sum() == 100
    # originals preserved first, in order
    assert np.array_equal(X2[:125], X)
    assert np.array_equal(y2[:125], y)
    assert np.all(y2[125:] == 1.0)


def test_synthetic_rows_between_minority_pairs():
    rng = make_rng(4)
    Xmin = rng.uniform(0, 1, size=(30, 3))
    Xmaj = rng.uniform(0, 1, size=(60, 3))
    X = np.vstack([Xmaj, Xmin])
    y = np.concatenate([np.zeros(60), np.ones(30)])
    X2, y2 = smote(X, y, seed=7)
    synth = X2[90:]
    lo = Xmin.min(axis=0) - 1e-12
    hi = Xmin.max(axis=0) + 1e-12
    assert np.all(synth >= lo) and np.all(synth <= hi)
    # each synthetic coordinate is a convex combination of some minority pair
    for row in synth:
        found = False
        for a in range(30):
            diff = row - Xmin[a]
            for b in range(30):
                if b == a:
                    continue
                seg = Xmin[b] - Xmin[a]
                with np.errstate(divide="ignore", invalid="ignore"):
                    u = np.where(seg != 0, diff / seg, np.nan)
                uu = u[~np.isnan(u)]
                if uu.size and np.allclose(uu, uu[0], atol=1e-9) and 0 <= uu[0] <= 1:
                    found = True
                    break
            if found:
                break
        assert found


def test_categorical_coordinates_copied_from_base():
    rng = make_rng(5)
    n_min = 20
    Xmin = np.column_stack(
        [rng.uniform(0, 1, n_min), rng.integers(0, 2, n_min).astype(float)]
    )
    Xmaj = np.column_stack(
        [rng.uniform(0, 1, 50), rng.integers(0, 2, 50).astype(float)]
    )
    X = np.vstack([Xmaj, Xmin])
    y = np.concatenate([np.zeros(50), np.ones(n_min)])
    X2, _ = smote(X, y, seed=9, categorical_indices=[1])
    synth = X2[70:]
    assert set(np.unique(synth[:, 1])) <= {0.0, 1.0}


def test_determinism_and_seed_sensitivity():
    rng = make_rng(6)
    X = rng.uniform(0, 1, size=(60, 3))
    y = np.concatenate([np.zeros(45), np.ones(15)])
    a, _ = smote(X, y, seed=11)
    b, _ = smote(X, y, seed=11)
    c, _ = smote(X, y, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_k_reduction_warning():
    rng = make_rng(7)
    X = rng.uniform(0, 1, size=(23, 2))
    y = np.concatenate([np.zeros(20), np.ones(3)])
    with pytest.warns(UserWarning, match="reducing k"):
        X2, y2 = smote(X, y, seed=0)
    assert (y2 == 1).sum() == 20


def test_single_class_and_tiny_minority_errors():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="both classes"):
        smote(X, np.zeros(5), seed=0)
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="at least 2"):  # no k reduction warned first
        smote(X, y, seed=0)


def test_minority_is_detected_by_count_not_value():
    rng = make_rng(8)
    X = rng.uniform(0, 1, size=(30, 2))
    y = np.concatenate([np.ones(25), np.zeros(5)])  # class 0 is the minority
    with pytest.warns(UserWarning, match="reducing k"):
        _, y2 = smote(X, y, seed=2)
    assert (y2 == 0).sum() == 25


@pytest.mark.parametrize("rows_per_block", [1, 7])
def test_blocked_neighbor_search_matches_one_block(monkeypatch, rows_per_block):
    # integer coordinates repeat minority rows, so many distances tie and
    # the stable (distance, index) order decides the neighbor lists
    rng = make_rng(9)
    n_min = 40
    X = np.vstack(
        [rng.uniform(0, 1, size=(200, 3)), rng.integers(0, 3, size=(n_min, 3)).astype(float)]
    )
    X[-1] = X[-2]
    y = np.concatenate([np.zeros(200), np.ones(n_min)])
    # at this size the default block holds every minority row at once
    X_ref, y_ref = smote(X, y, seed=4, categorical_indices=[2])
    monkeypatch.setattr(resample, "_SMOTE_BLOCK", rows_per_block * n_min * X.shape[1])
    X_blk, y_blk = smote(X, y, seed=4, categorical_indices=[2])
    assert np.array_equal(X_blk, X_ref)
    assert np.array_equal(y_blk, y_ref)


def smote_reference(X, y, seed, k=resample.K_NEIGHBORS, categorical_indices=()):
    """The minority rows' full distance block, a stable argsort, its first k
    neighbors, then smote's draws replayed one synthetic row at a time."""
    minority = 1.0 if (y == 1).sum() < (y == 0).sum() else 0.0
    Xm = X[y == minority]
    n_min = Xm.shape[0]
    k = min(k, n_min - 1)
    d2 = ((Xm[:, None, :] - Xm[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    draw = seeded_rng(seed, "smote")
    cat = list(categorical_indices)
    n_needed = y.size - 2 * n_min
    synthetic = np.empty((n_needed, X.shape[1]))
    for s in range(n_needed):
        a = int(draw.integers(0, n_min))
        b = int(neighbors[a, draw.integers(0, k)])
        synthetic[s] = Xm[a] + draw.random() * (Xm[b] - Xm[a])
        synthetic[s, cat] = Xm[a, cat]
    return np.vstack([X, synthetic]), np.concatenate([y, np.full(n_needed, minority)])


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_tied_neighbors_follow_the_stable_index_order(k, monkeypatch):
    # duplicated minority rows on integer coordinates tie many distances
    rng = make_rng(10)
    base = rng.integers(0, 3, size=(12, 3)).astype(float)
    Xm = np.vstack([base, base[:5], base[:5], base[2:4]])
    X = np.vstack([rng.uniform(0, 1, size=(60, 3)), Xm])
    y = np.concatenate([np.zeros(60), np.ones(Xm.shape[0])])
    monkeypatch.setattr(resample, "K_NEIGHBORS", k)
    X2, y2 = smote(X, y, seed=5)
    X_ref, y_ref = smote_reference(X, y, seed=5, k=k)
    assert np.array_equal(X2, X_ref)
    assert np.array_equal(y2, y_ref)


@pytest.mark.parametrize(
    "n_min, n_features, decimals",
    [
        (60, 4, 1),  # rounded values: many tied distances
        (4, 3, None),  # minority count <= 5: k reduced to 3
        (5, 2, 0),  # k reduced to 4 among tied integer rows
        (50, 150, None),  # more than 128 features
        (300, 230, 1),  # n_min x features > _SMOTE_BLOCK: one-row blocks
    ],
)
@pytest.mark.parametrize("seed", [31, 32])
def test_smote_matches_the_full_block_stable_argsort(n_min, n_features, decimals, seed):
    rng = make_rng(seed)
    n_maj = 2 * n_min + int(rng.integers(1, 20))
    X = rng.normal(size=(n_maj + n_min, n_features))
    if decimals is not None:
        X = np.round(X, decimals)
    y = np.zeros(n_maj + n_min)
    y[rng.permutation(y.size)[:n_min]] = 1.0
    cat = rng.permutation(n_features)[: n_features // 4]
    X[:, cat] = X[:, cat] > 0
    if n_min <= resample.K_NEIGHBORS:
        with pytest.warns(UserWarning, match="reducing k"):
            X2, y2 = smote(X, y, seed=seed, categorical_indices=cat)
    else:
        X2, y2 = smote(X, y, seed=seed, categorical_indices=cat)
    X_ref, y_ref = smote_reference(X, y, seed, categorical_indices=cat)
    assert np.array_equal(X2, X_ref)
    assert np.array_equal(y2, y_ref)
