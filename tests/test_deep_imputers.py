import numpy as np
import pytest

import imputebench.deep_imputers as deep
from imputebench.deep_imputers import (
    DaeImputer,
    GainImputer,
    RotatingPreimputer,
    make_hint,
)
from imputebench.imputers import column_stats, knn_fill
from imputebench.missingness import MissSpec, inject_mcar
from imputebench.tabular import Column, MixedTable, Schema, fit_normalizer, normalize

from conftest import make_rng, mixed_schema, random_table


def test_rotating_k_without_repetition_and_reset():
    rot = RotatingPreimputer(seed=5)
    schema = mixed_schema(1, 0)
    mat = np.array([[0.1], [0.9], [np.nan]])
    stats = column_stats(mat, schema)
    rng = make_rng(5)
    ks = []
    for _ in range(26):
        rot.preimpute(mat, rng, schema, stats)
        ks.append(rot.used_ks[-1])
    assert rot.n_knn_calls == 26
    # each run of 13 draws uses every k in 3..15 once; the history then resets
    assert sorted(ks[:13]) == sorted(ks[13:]) == list(range(3, 16))


@pytest.mark.parametrize("variant", ["naa", "inaa", "gain", "igain"])
@pytest.mark.usefixtures("small_batches")
def test_knn_prefill_ks(variant, monkeypatch):
    ks = []

    def recording_knn_fill(train, target, k, *args):
        ks.append(k)
        return knn_fill(train, target, k, *args)

    monkeypatch.setattr(deep, "knn_fill", recording_knn_fill)
    monkeypatch.setattr(deep, "_completed_fold", None)
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=28, missing_rate=0.1)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=29), MissSpec(0.2, 6))
    imputer_type = DaeImputer if variant in ("naa", "inaa") else GainImputer
    imp = imputer_type(schema, seed=3, variant=variant, epochs=91).fit(train)
    # the incomplete training fold is completed with k = 5 first
    fold_k, *prefill_ks = ks
    assert fold_k == 5
    if variant == "naa":
        assert prefill_ks == [5]
    elif variant == "gain":
        assert prefill_ks == []
    else:  # a new k at epochs 0, 10, ..., 90
        assert len(set(prefill_ks)) == len(prefill_ks) == 10
        assert all(3 <= k <= 15 for k in prefill_ks)
    del ks[:]
    imp.impute(corrupted)
    assert ks == {"naa": [5], "inaa": [9], "gain": [], "igain": [9]}[variant]


def _fit(variant, train):
    imputer_type = DaeImputer if variant in ("naa", "inaa") else GainImputer
    return imputer_type(train.schema, seed=3, variant=variant, epochs=2).fit(train)


def _record_knn_inputs(monkeypatch):
    """(k, training matrix bytes) of every knn_fill call the deep module makes."""
    calls = []

    def recording_knn_fill(train, target, k, *args):
        calls.append((k, train.tobytes()))
        return knn_fill(train, target, k, *args)

    monkeypatch.setattr(deep, "knn_fill", recording_knn_fill)
    monkeypatch.setattr(deep, "_completed_fold", None)
    return calls


@pytest.mark.usefixtures("small_batches")
def test_deep_methods_share_one_fold_completion(monkeypatch):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=32, missing_rate=0.1)
    fold = normalize(train.values, fit_normalizer(train)).tobytes()
    calls = _record_knn_inputs(monkeypatch)
    fitted = [_fit(variant, train) for variant in ("naa", "inaa", "gain", "igain")]
    assert [k for k, data in calls if data == fold] == [5]
    assert not np.isnan(fitted[0].train_ref_).any()
    for imp in fitted:
        monkeypatch.setattr(deep, "_completed_fold", None)
        assert imp.train_ref_.tobytes() == _fit(imp.name, train).train_ref_.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        fitted[0].train_ref_[0, 0] = 0.5


@pytest.mark.usefixtures("small_batches")
def test_fold_completion_recomputed_for_another_fold_or_schema(monkeypatch):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=33, missing_rate=0.1)
    # move the last cell strictly inside column 1's range: one normalized cell changes
    values = train.values.copy()
    col = values[:, 1]
    row = np.flatnonzero((col > np.nanmin(col)) & (col < np.nanmax(col)))[-1]
    values[row, 1] = (col[row] + np.nanmin(col)) / 2
    renamed = Schema([Column(f"m{j}", c.kind) for j, c in enumerate(schema.columns)])
    calls = _record_knn_inputs(monkeypatch)
    # gain makes no knn_fill call in fit but the completion
    for table in (
        train,
        MixedTable(schema, values),  # one cell differs
        MixedTable(renamed, train.values),  # the same values under another schema
        train,  # the memo holds one fold: the first is computed again
    ):
        _fit("gain", table)
    assert [k for k, _ in calls] == [5, 5, 5, 5]
    assert calls[0][1] != calls[1][1]
    assert calls[0][1] == calls[2][1] == calls[3][1]


def test_make_hint_entries_and_rate(monkeypatch):
    rng = make_rng(3)
    mask = rng.integers(0, 2, size=(200, 10)).astype(float)
    monkeypatch.setattr(deep, "HINT_RATE", 0.9)
    h, b = make_hint(mask, rng)
    assert np.array_equal(h[b], mask[b])
    assert np.all(h[~b] == 0.5)
    frac = b.mean()
    assert abs(frac - 0.9) < 0.03
    monkeypatch.setattr(deep, "HINT_RATE", 1.0)
    h1, b1 = make_hint(mask, rng)
    assert b1.all() and np.array_equal(h1, mask)


def test_dae_config_validation():
    bad = [
        (DaeImputer, {"variant": "foo"}),
        (DaeImputer, {"variant": "gain"}),
        (DaeImputer, {"variant": "inaa", "epochs": 0}),
        (DaeImputer, {"variant": "naa", "epochs": 2.5}),
        (GainImputer, {"variant": "foo"}),
        (GainImputer, {"variant": "naa"}),
        (GainImputer, {"variant": "gain", "epochs": 0}),
        (GainImputer, {"variant": "igain", "epochs": True}),
    ]
    schema = mixed_schema(2, 1)
    for imputer_type, kwargs in bad:
        with pytest.raises(ValueError):
            imputer_type(schema, **kwargs)
    # epochs is the one setting; the fixed ones are module constants
    for imputer_type, kwargs in [
        (DaeImputer, {"variant": "naa", "hint_rate": 0.5}),
        (DaeImputer, {"variant": "inaa", "batch_size": 16}),
        (DaeImputer, {"variant": "inaa", "rotation": {"period": 5}}),
        (GainImputer, {"variant": "gain", "corruption_rate": 0.2}),
        (GainImputer, {"variant": "igain", "learning_rate": 1e-3}),
        (GainImputer, {"variant": "igain", "alpha": 10.0}),
    ]:
        with pytest.raises(TypeError):
            imputer_type(schema, **kwargs)
    assert DaeImputer(schema, variant="naa", epochs=3).epochs == 3


@pytest.mark.parametrize("variant", ["naa", "inaa"])
@pytest.mark.usefixtures("small_batches")
def test_dae_training_is_deterministic(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=10)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=11), MissSpec(0.2, 2))

    def run():
        imp = DaeImputer(schema, seed=4, variant=variant, epochs=12)
        return imp.fit(train), imp.impute(corrupted)

    (a_imp, a), (b_imp, b) = run(), run()
    assert a_imp.loss_history_ == b_imp.loss_history_
    assert np.array_equal(a.table.values, b.table.values)


@pytest.mark.parametrize("variant", ["naa", "inaa"])
def test_dae_loss_decreases(variant, monkeypatch):
    schema = mixed_schema(3, 1)
    train = random_table(schema, 60, seed=12)
    monkeypatch.setattr(deep, "BATCH_SIZE", 32)
    monkeypatch.setattr(deep, "LEARNING_RATE", 3e-3)
    imp = DaeImputer(schema, seed=1, variant=variant, epochs=40)
    imp.fit(train)
    hist = imp.loss_history_
    assert np.mean(hist[-5:]) < np.mean(hist[:5])


def test_dae_hidden_widths():
    schema = mixed_schema(4, 2)  # 6 features
    naa = DaeImputer(schema, variant="naa")._build_network(6)
    inaa = DaeImputer(schema, variant="inaa")._build_network(6)
    assert naa.specs[0].width == 12
    assert inaa.specs[0].width == 3
    assert naa.specs[-1].width == inaa.specs[-1].width == 6


def test_gain_network_shapes():
    schema = mixed_schema(5, 3)  # 8 features
    gain = GainImputer(schema, variant="gain")
    gen, disc = gain._build_networks(8)
    assert gen.input_width == 16 and disc.input_width == 16
    assert [s.width for s in gen.specs] == [8, 8, 8]
    assert all(not s.batch_norm for s in gen.specs)
    assert disc.specs[-1].activation == "sigmoid"

    igain = GainImputer(schema, variant="igain")
    gen, disc = igain._build_networks(8)
    assert [s.width for s in gen.specs] == [8, 4, 2, 4, 8]
    assert all(s.batch_norm for s in gen.specs[:-1])
    assert not gen.specs[-1].batch_norm
    assert gen.specs[-1].activation == "linear"


def test_every_layer_of_the_deep_networks():
    """(width, activation, batch norm) of every layer on an 8-column schema."""
    schema = mixed_schema(5, 3)

    def layers(net):
        return [(s.width, s.activation, s.batch_norm) for s in net.specs]

    relu, bn_relu = (8, "relu", False), (8, "relu", True)
    gen, disc = GainImputer(schema, variant="gain")._build_networks(8)
    assert gen.input_width == disc.input_width == 16
    assert layers(gen) == [relu, relu, (8, "linear", False)]
    assert layers(disc) == [relu, relu, (8, "sigmoid", False)]
    gen, disc = GainImputer(schema, variant="igain")._build_networks(8)
    assert gen.input_width == disc.input_width == 16
    hidden = [bn_relu, (4, "relu", True), (2, "relu", True), (4, "relu", True)]
    assert layers(gen) == hidden + [(8, "linear", False)]
    assert layers(disc) == hidden + [(8, "sigmoid", False)]
    for variant, width in (("naa", 16), ("inaa", 4)):
        net = DaeImputer(schema, variant=variant)._build_network(8)
        assert net.input_width == 8
        assert layers(net) == [(width, "relu", False), (8, "linear", False)]


@pytest.mark.parametrize("variant", ["gain", "igain"])
@pytest.mark.usefixtures("small_batches")
def test_gain_training_is_deterministic(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=20)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=21), MissSpec(0.2, 3))

    def run():
        imp = GainImputer(schema, seed=8, variant=variant, epochs=10)
        return imp.fit(train).impute(corrupted)

    a, b = run(), run()
    assert np.array_equal(a.table.values, b.table.values)


@pytest.mark.usefixtures("small_batches")
def test_gain_full_hint_rate_runs(monkeypatch):
    # hint_rate 1 leaves no inference region: discriminator never updates,
    # generator trains on reconstruction only, and the method still imputes
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=22)
    corrupted, _ = inject_mcar(random_table(schema, 10, seed=23), MissSpec(0.2, 4))
    monkeypatch.setattr(deep, "HINT_RATE", 1.0)
    imp = GainImputer(schema, seed=2, variant="gain", epochs=6)
    result = imp.fit(train).impute(corrupted)
    assert not np.isnan(result.table.values).any()


@pytest.mark.parametrize("variant", ["naa", "inaa", "gain", "igain"])
@pytest.mark.usefixtures("small_batches")
def test_deep_zero_missing_target_is_identity(variant):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=24)
    target = random_table(schema, 8, seed=25)
    imputer_type = DaeImputer if variant in ("naa", "inaa") else GainImputer
    imp = imputer_type(schema, seed=1, variant=variant, epochs=4)
    result = imp.fit(train).impute(target)
    assert np.array_equal(result.table.values, target.values)


def test_inaa_recovers_duplicated_feature(monkeypatch):
    """Hold-out oracle: with x2 = x1, a trained DAE beats the column mean."""
    schema = mixed_schema(2, 0)
    rng = make_rng(30)
    x = rng.uniform(0.0, 10.0, 300)
    train = MixedTable(schema, np.column_stack([x, x]))
    xt = rng.uniform(1.0, 9.0, 40)
    target_vals = np.column_stack([xt, xt])
    target_vals[:, 1] = np.nan
    target = MixedTable(schema, target_vals)
    monkeypatch.setattr(deep, "BATCH_SIZE", 64)
    monkeypatch.setattr(deep, "LEARNING_RATE", 3e-3)
    imp = DaeImputer(schema, seed=3, variant="inaa", epochs=120)
    result = imp.fit(train).impute(target)
    err = np.sqrt(np.mean((result.table.values[:, 1] - xt) ** 2))
    baseline = np.sqrt(np.mean((x.mean() - xt) ** 2))
    assert err < 0.5 * baseline


def test_gain_recovers_duplicated_feature(monkeypatch):
    schema = mixed_schema(2, 0)
    rng = make_rng(31)
    x = rng.uniform(0.0, 10.0, 300)
    train = MixedTable(schema, np.column_stack([x, x]))
    xt = rng.uniform(1.0, 9.0, 40)
    target_vals = np.column_stack([xt, xt])
    target_vals[:, 1] = np.nan
    target = MixedTable(schema, target_vals)
    monkeypatch.setattr(deep, "BATCH_SIZE", 64)
    monkeypatch.setattr(deep, "LEARNING_RATE", 3e-3)
    imp = GainImputer(schema, seed=3, variant="igain", epochs=300)
    result = imp.fit(train).impute(target)
    err = np.sqrt(np.mean((result.table.values[:, 1] - xt) ** 2))
    baseline = np.sqrt(np.mean((x.mean() - xt) ** 2))
    assert err < 0.5 * baseline


@pytest.mark.usefixtures("small_batches")
def test_dae_seed_changes_result():
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=26)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=27), MissSpec(0.3, 5))
    settings = {"variant": "inaa", "epochs": 10}
    a = DaeImputer(schema, seed=1, **settings).fit(train).impute(corrupted)
    b = DaeImputer(schema, seed=2, **settings).fit(train).impute(corrupted)
    assert not np.array_equal(a.table.values, b.table.values)
