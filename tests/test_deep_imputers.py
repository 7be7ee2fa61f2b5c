import numpy as np
import pytest

from imputebench.deep_imputers import (
    DaeConfig,
    DaeImputer,
    GainConfig,
    GainImputer,
    RotatingPreimputer,
    RotationSchedule,
    make_hint,
)
from imputebench.imputers import column_stats
from imputebench.missingness import MissSpec, inject_mcar
from imputebench.tabular import MixedTable

from conftest import make_rng, mixed_schema, random_table


def test_rotation_schedule_validation():
    with pytest.raises(ValueError):
        RotationSchedule(period=0)
    with pytest.raises(ValueError):
        RotationSchedule(k_min=5, k_max=5)
    assert RotationSchedule(k_min=3, k_max=15).median_k == 9


def test_rotating_k_without_repetition_and_reset():
    rot = RotatingPreimputer(RotationSchedule(period=1, k_min=3, k_max=4), seed=5)
    schema = mixed_schema(1, 0)
    mat = np.array([[0.1], [0.9], [np.nan]])
    stats = column_stats(mat, schema)
    for _ in range(6):
        rot.preimpute(mat, schema, stats)
    # interval [3, 4] exhausts every 2 draws; history resets each time
    ks = rot.used_ks
    assert rot.n_knn_calls == 6
    assert all(k in (3, 4) for k in ks)
    # draws come in no-repeat pairs
    history = []
    rot2 = RotatingPreimputer(RotationSchedule(period=1, k_min=3, k_max=4), seed=5)
    for _ in range(6):
        rot2.preimpute(mat, schema, stats)
        history.append(rot2.used_ks[-1])
    assert sorted(history[0:2]) == [3, 4]
    assert sorted(history[2:4]) == [3, 4]
    assert sorted(history[4:6]) == [3, 4]


def test_make_hint_entries_and_rate():
    rng = make_rng(3)
    mask = rng.integers(0, 2, size=(200, 10)).astype(float)
    h, b = make_hint(mask, 0.9, rng)
    assert np.array_equal(h[b], mask[b])
    assert np.all(h[~b] == 0.5)
    frac = b.mean()
    assert abs(frac - 0.9) < 0.03
    h1, b1 = make_hint(mask, 1.0, rng)
    assert b1.all() and np.array_equal(h1, mask)
    with pytest.raises(ValueError):
        make_hint(mask, 0.0, rng)


def test_dae_config_validation():
    bad = [
        (DaeConfig, {"variant": "foo"}),
        (DaeConfig, {"variant": "gain"}),
        (DaeConfig, {"corruption_rate": 0.0}),
        (DaeConfig, {"epochs": 0}),
        (DaeConfig, {"batch_size": 0}),
        (GainConfig, {"variant": "foo"}),
        (GainConfig, {"variant": "naa"}),
        (GainConfig, {"corruption_rate": 0.0}),
        (GainConfig, {"corruption_rate": 1.5}),
        (GainConfig, {"epochs": 0}),
        (GainConfig, {"batch_size": 0}),
        (GainConfig, {"hint_rate": 1.5}),
        (GainConfig, {"alpha": -1.0}),
    ]
    for config_type, kwargs in bad:
        with pytest.raises(ValueError):
            config_type(**kwargs)


@pytest.mark.parametrize("variant", ["naa", "inaa"])
def test_dae_training_is_deterministic(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=10)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=11), MissSpec(0.2, 2))

    def run():
        imp = DaeImputer(schema, seed=4, config=DaeConfig(variant=variant, epochs=12, batch_size=16))
        return imp.fit(train), imp.impute(corrupted)

    (a_imp, a), (b_imp, b) = run(), run()
    assert a_imp.loss_history_ == b_imp.loss_history_
    assert np.array_equal(a.table.values, b.table.values)


@pytest.mark.parametrize("variant", ["naa", "inaa"])
def test_dae_loss_decreases(variant):
    schema = mixed_schema(3, 1)
    train = random_table(schema, 60, seed=12)
    imp = DaeImputer(
        schema, seed=1, config=DaeConfig(variant=variant, epochs=40, batch_size=32, learning_rate=3e-3)
    )
    imp.fit(train)
    hist = imp.loss_history_
    assert np.mean(hist[-5:]) < np.mean(hist[:5])


def test_dae_hidden_widths():
    schema = mixed_schema(4, 2)  # 6 features
    naa = DaeImputer(schema, config=DaeConfig(variant="naa"))._build_network(6)
    inaa = DaeImputer(schema, config=DaeConfig(variant="inaa"))._build_network(6)
    assert naa.specs[0].width == 12
    assert inaa.specs[0].width == 3
    assert naa.specs[-1].width == inaa.specs[-1].width == 6


def test_gain_network_shapes():
    schema = mixed_schema(5, 3)  # 8 features
    gain = GainImputer(schema, config=GainConfig(variant="gain"))
    gen, disc = gain._build_networks(8)
    assert gen.input_width == 16 and disc.input_width == 16
    assert [s.width for s in gen.specs] == [8, 8, 8]
    assert all(not s.batch_norm for s in gen.specs)
    assert disc.specs[-1].activation == "sigmoid"

    igain = GainImputer(schema, config=GainConfig(variant="igain"))
    gen, disc = igain._build_networks(8)
    assert [s.width for s in gen.specs] == [8, 4, 2, 4, 8]
    assert all(s.batch_norm for s in gen.specs[:-1])
    assert not gen.specs[-1].batch_norm
    assert gen.specs[-1].activation == "linear"


@pytest.mark.parametrize("variant", ["gain", "igain"])
def test_gain_training_is_deterministic(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=20)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=21), MissSpec(0.2, 3))

    def run():
        imp = GainImputer(
            schema, seed=8, config=GainConfig(variant=variant, epochs=10, batch_size=16)
        )
        return imp.fit(train).impute(corrupted)

    a, b = run(), run()
    assert np.array_equal(a.table.values, b.table.values)


def test_gain_full_hint_rate_runs():
    # hint_rate 1 leaves no inference region: discriminator never updates,
    # generator trains on reconstruction only, and the method still imputes
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=22)
    corrupted, _ = inject_mcar(random_table(schema, 10, seed=23), MissSpec(0.2, 4))
    imp = GainImputer(
        schema, seed=2, config=GainConfig(variant="gain", epochs=6, batch_size=16, hint_rate=1.0)
    )
    result = imp.fit(train).impute(corrupted)
    assert not np.isnan(result.table.values).any()


@pytest.mark.parametrize("variant", ["naa", "inaa", "gain", "igain"])
def test_deep_zero_missing_target_is_identity(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=24)
    target = random_table(schema, 8, seed=25)
    if variant in ("naa", "inaa"):
        imp = DaeImputer(schema, seed=1, config=DaeConfig(variant=variant, epochs=4, batch_size=16))
    else:
        imp = GainImputer(schema, seed=1, config=GainConfig(variant=variant, epochs=4, batch_size=16))
    result = imp.fit(train).impute(target)
    assert np.array_equal(result.table.values, target.values)


def test_inaa_recovers_duplicated_feature():
    """Hold-out oracle: with x2 = x1, a trained DAE beats the column mean."""
    schema = mixed_schema(2, 0)
    rng = make_rng(30)
    x = rng.uniform(0.0, 10.0, 300)
    train = MixedTable(schema, np.column_stack([x, x]))
    xt = rng.uniform(1.0, 9.0, 40)
    target_vals = np.column_stack([xt, xt])
    target_vals[:, 1] = np.nan
    target = MixedTable(schema, target_vals)
    imp = DaeImputer(
        schema,
        seed=3,
        config=DaeConfig(variant="inaa", epochs=120, batch_size=64, learning_rate=3e-3),
    )
    result = imp.fit(train).impute(target)
    err = np.sqrt(np.mean((result.table.values[:, 1] - xt) ** 2))
    baseline = np.sqrt(np.mean((x.mean() - xt) ** 2))
    assert err < 0.5 * baseline


def test_gain_recovers_duplicated_feature():
    schema = mixed_schema(2, 0)
    rng = make_rng(31)
    x = rng.uniform(0.0, 10.0, 300)
    train = MixedTable(schema, np.column_stack([x, x]))
    xt = rng.uniform(1.0, 9.0, 40)
    target_vals = np.column_stack([xt, xt])
    target_vals[:, 1] = np.nan
    target = MixedTable(schema, target_vals)
    imp = GainImputer(
        schema,
        seed=3,
        config=GainConfig(variant="igain", epochs=300, batch_size=64, learning_rate=3e-3),
    )
    result = imp.fit(train).impute(target)
    err = np.sqrt(np.mean((result.table.values[:, 1] - xt) ** 2))
    baseline = np.sqrt(np.mean((x.mean() - xt) ** 2))
    assert err < 0.5 * baseline


def test_dae_seed_changes_result():
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=26)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=27), MissSpec(0.3, 5))
    cfg = DaeConfig(variant="inaa", epochs=10, batch_size=16)
    a = DaeImputer(schema, seed=1, config=cfg).fit(train).impute(corrupted)
    b = DaeImputer(schema, seed=2, config=cfg).fit(train).impute(corrupted)
    assert not np.array_equal(a.table.values, b.table.values)
