import numpy as np
import pytest

from imputebench import resample
from imputebench.resample import SmoteConfig, smote

from conftest import make_rng


def test_config_validation():
    with pytest.raises(ValueError):
        SmoteConfig(k_neighbors=0)


def test_balanced_input_is_noop():
    rng = make_rng(1)
    X = rng.uniform(0, 1, size=(20, 3))
    y = np.array([0.0, 1.0] * 10)
    X2, y2 = smote(X, y, SmoteConfig(seed=0))
    assert np.array_equal(X2, X)
    assert np.array_equal(y2, y)
    assert X2 is not X  # defensive copy


def test_exact_synthetic_count():
    rng = make_rng(2)
    X = rng.uniform(0, 1, size=(125, 4))
    y = np.concatenate([np.zeros(100), np.ones(25)])
    X2, y2 = smote(X, y, SmoteConfig(seed=3))
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
    X2, y2 = smote(X, y, SmoteConfig(seed=7))
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
    X2, _ = smote(X, y, SmoteConfig(seed=9), categorical_indices=[1])
    synth = X2[70:]
    assert set(np.unique(synth[:, 1])) <= {0.0, 1.0}


def test_determinism_and_seed_sensitivity():
    rng = make_rng(6)
    X = rng.uniform(0, 1, size=(60, 3))
    y = np.concatenate([np.zeros(45), np.ones(15)])
    a, _ = smote(X, y, SmoteConfig(seed=11))
    b, _ = smote(X, y, SmoteConfig(seed=11))
    c, _ = smote(X, y, SmoteConfig(seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_k_reduction_warning():
    rng = make_rng(7)
    X = rng.uniform(0, 1, size=(23, 2))
    y = np.concatenate([np.zeros(20), np.ones(3)])
    with pytest.warns(UserWarning, match="reducing k"):
        X2, y2 = smote(X, y, SmoteConfig(seed=0, k_neighbors=5))
    assert (y2 == 1).sum() == 20


def test_single_class_and_tiny_minority_errors():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="both classes"):
        smote(X, np.zeros(5), SmoteConfig())
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="at least 2"):
            smote(X, y, SmoteConfig())


def test_minority_is_detected_by_count_not_value():
    rng = make_rng(8)
    X = rng.uniform(0, 1, size=(30, 2))
    y = np.concatenate([np.ones(25), np.zeros(5)])  # class 0 is the minority
    with pytest.warns(UserWarning, match="reducing k"):
        _, y2 = smote(X, y, SmoteConfig(seed=2))
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
    config = SmoteConfig(seed=4, k_neighbors=5)
    # at this size the default block holds every minority row at once
    X_ref, y_ref = smote(X, y, config, categorical_indices=[2])
    monkeypatch.setattr(resample, "_SMOTE_BLOCK", rows_per_block * n_min)
    X_blk, y_blk = smote(X, y, config, categorical_indices=[2])
    assert np.array_equal(X_blk, X_ref)
    assert np.array_equal(y_blk, y_ref)
