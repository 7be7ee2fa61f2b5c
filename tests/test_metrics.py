import numpy as np
import pytest

from imputebench.metrics import (
    UndefinedMetricError,
    auroc,
    categorical_auroc,
    f1,
    normalized_rmse,
)
from imputebench.tabular import Column, ColumnKind, MixedTable, Schema, fit_normalizer, normalize

from conftest import make_rng, mixed_schema, random_table


def brute_force_auroc(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def test_rmse_identity_and_single_cell():
    schema = Schema([Column("x", ColumnKind.NUMERICAL)])
    truth = MixedTable(schema, np.array([[0.0], [10.0], [4.0]]))
    params = fit_normalizer(truth)
    mask = np.array([[1], [1], [0]])
    assert normalized_rmse(truth, truth, mask, params) == 0.0
    imputed = MixedTable(schema, np.array([[0.0], [10.0], [7.0]]))
    # normalized truth 0.4 vs imputed 0.7
    assert normalized_rmse(truth, imputed, mask, params) == pytest.approx(0.3)


def test_rmse_loop_oracle():
    rng = make_rng(0)
    schema = mixed_schema(3, 0)
    truth = random_table(schema, 20, seed=10)
    imputed = random_table(schema, 20, seed=11)
    mask = (rng.random(truth.values.shape) > 0.3).astype(int)
    params = fit_normalizer(truth)
    got = normalized_rmse(truth, imputed, mask, params)

    t = normalize(truth.values, params)
    p = normalize(imputed.values, params)
    acc, count = 0.0, 0
    for i in range(20):
        for j in range(3):
            if mask[i, j] == 0:
                acc += (t[i, j] - p[i, j]) ** 2
                count += 1
    assert got == pytest.approx(np.sqrt(acc / count), abs=1e-12)


def test_rmse_affine_invariance():
    schema = mixed_schema(2, 0)
    truth = random_table(schema, 30, seed=12)
    imputed = random_table(schema, 30, seed=13)
    mask = (make_rng(4).random(truth.values.shape) > 0.4).astype(int)
    base = normalized_rmse(truth, imputed, mask, fit_normalizer(truth))

    scaled_truth = truth.with_values(truth.values * 10.0 + 3.0)
    scaled_imp = imputed.with_values(imputed.values * 10.0 + 3.0)
    scaled = normalized_rmse(scaled_truth, scaled_imp, mask, fit_normalizer(scaled_truth))
    assert scaled == pytest.approx(base, abs=1e-9)


def test_rmse_undefined():
    schema = mixed_schema(1, 0)
    t = random_table(schema, 5, seed=1)
    with pytest.raises(UndefinedMetricError):
        normalized_rmse(t, t, np.ones_like(t.values, dtype=int), fit_normalizer(t))


def test_auroc_basics():
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [1, 1])


def test_auroc_nan_score_is_a_named_error():
    with pytest.raises(ValueError, match="NaN") as info:
        auroc([0.9, np.nan, 0.2], [1, 0, 0])
    assert not isinstance(info.value, UndefinedMetricError)


def test_auroc_matches_pairwise_oracle():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auroc(scores, labels) == pytest.approx(brute_force_auroc(scores, labels), abs=1e-12)


def test_auroc_random_oracle_and_invariances():
    rng = make_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid to force ties
        expect = brute_force_auroc(scores, labels)
        assert auroc(scores, labels) == pytest.approx(expect, abs=1e-12)
        # strictly increasing transforms leave AUROC unchanged
        assert auroc(3.0 * scores + 1.0, labels) == pytest.approx(expect, abs=1e-12)
        assert auroc(scores**3, labels) == pytest.approx(expect, abs=1e-12)
        # tie-free complement identity
        tf = rng.permutation(n).astype(float)
        assert auroc(tf, labels) + auroc(tf, 1 - labels) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "metric, table, column",
    [
        ("nRMSE", "truth", "n1"),
        ("nRMSE", "imputed", "n1"),
        ("AUROC", "truth", "c1"),
        ("AUROC", "scores", "c1"),
    ],
)
def test_a_nan_at_a_scored_cell_is_a_named_error(metric, table, column):
    # a NaN is not an undefined metric: it names its table, column and row
    schema = mixed_schema(2, 2)
    full = random_table(schema, 6, seed=23)
    mask = np.zeros(full.values.shape, dtype=int)
    holed = full.values.copy()
    holed[3, schema.index_of(column)] = np.nan
    params, holed_table = fit_normalizer(full), MixedTable(schema, holed)
    score = {
        ("nRMSE", "truth"): lambda: normalized_rmse(holed_table, full, mask, params),
        ("nRMSE", "imputed"): lambda: normalized_rmse(full, holed_table, mask, params),
        ("AUROC", "truth"): lambda: categorical_auroc(holed_table, full.values, mask),
        ("AUROC", "scores"): lambda: categorical_auroc(full, holed, mask),
    }[metric, table]
    message = rf"^{table} has NaN at a scored cell: column '{column}', row 4$"
    with pytest.raises(ValueError, match=message) as info:
        score()
    assert not isinstance(info.value, UndefinedMetricError)


def test_categorical_auroc_perfect_and_ties():
    schema = mixed_schema(0, 2)
    truth = random_table(schema, 40, seed=20)
    mask = (make_rng(5).random(truth.values.shape) > 0.5).astype(int)
    # a macro mean of 1.0 needs every column's AUROC at its maximum, 1.0
    assert categorical_auroc(truth, truth.values, mask) == 1.0
    constant = np.full_like(truth.values, 0.5)
    assert categorical_auroc(truth, constant, mask) == 0.5


def test_categorical_auroc_macro_mean():
    schema = mixed_schema(0, 2)
    rng = make_rng(7)
    truth = random_table(schema, 200, seed=21)
    mask = np.zeros(truth.values.shape, dtype=int)
    scores = np.where(truth.values == 1, rng.uniform(0.3, 1.0, truth.values.shape),
                      rng.uniform(0.0, 0.7, truth.values.shape))
    expected = [brute_force_auroc(scores[:, j], truth.values[:, j]) for j in range(schema.n_cols)]
    assert categorical_auroc(truth, scores, mask) == pytest.approx(np.mean(expected), abs=1e-12)


def test_categorical_auroc_undefined():
    schema = mixed_schema(1, 1)
    truth = random_table(schema, 10, seed=23)
    scores = np.zeros_like(truth.values)
    with pytest.raises(UndefinedMetricError):
        categorical_auroc(truth, scores, np.ones_like(truth.values, dtype=int))


def test_f1_cases():
    assert f1([1, 0, 1], [1, 0, 1]) == 1.0
    # TP=2 FP=1 FN=1
    assert f1([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
    # no positive label and no positive prediction: 0/0, not a score of 0
    with pytest.raises(UndefinedMetricError, match="F1 needs a positive label or prediction"):
        f1([0, 0], [0, 0])
    assert f1([1, 0], [0, 0]) == 0.0  # a false positive alone scores 0


def test_f1_confusion_oracle_and_permutation():
    rng = make_rng(11)
    preds = rng.integers(0, 2, 200)
    labels = rng.integers(0, 2, 200)
    tp = np.sum((preds == 1) & (labels == 1))
    fp = np.sum((preds == 1) & (labels == 0))
    fn = np.sum((preds == 0) & (labels == 1))
    expect = 2 * tp / (2 * tp + fp + fn)
    assert f1(preds, labels) == pytest.approx(expect, abs=1e-12)
    perm = rng.permutation(200)
    assert f1(preds[perm], labels[perm]) == pytest.approx(expect, abs=1e-12)
