import numpy as np
import pytest

from imputebench import imputers
from imputebench.imputers import (
    KnnImputer,
    MissForestImputer,
    SimpleImputer,
    column_stats,
    knn_fill,
    _finish,
    _pairwise_partial_distances,
)
from imputebench.missingness import MissSpec, inject_mcar
from imputebench.registry import METHOD_NAMES, make_imputer
from imputebench.tabular import (
    MixedTable,
    fit_normalizer,
    normalize,
)

from conftest import make_rng, mixed_schema, random_table

FAST_OVERRIDES = {
    "missforest": {"n_trees": 5, "max_iter": 3},
    **{name: {"epochs": 8} for name in ("naa", "inaa", "gain", "igain")},
}
# the deep methods of every test here train on batches of 16 rows
pytestmark = pytest.mark.usefixtures("small_batches")


def build(name, schema, seed=0):
    return make_imputer(name, schema, seed, **FAST_OVERRIDES.get(name, {}))


def test_column_stats_examples():
    schema = mixed_schema(1, 1)
    values = np.array([[1.0, 0.0], [3.0, 0.0], [np.nan, 1.0]])
    stats = column_stats(values, schema)
    assert stats[0] == pytest.approx(2.0)
    assert stats[1] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="n0"):
        column_stats(np.array([[np.nan, 1.0]]), schema)


def test_finish_keeps_observed_cells():
    schema = mixed_schema(2, 0)
    original = MixedTable(schema, np.array([[1.0, 2.0], [3.0, 4.0]]))
    params = fit_normalizer(MixedTable(schema, np.array([[0.0, 0.0], [10.0, 10.0]])))
    output = np.array([[9.0, 8.0], [7.0, 6.0]])
    scores = np.full((2, 2), np.nan)
    assert _finish(original, output, scores, params).table == original
    holes = original.with_values(np.full((2, 2), np.nan))
    assert np.array_equal(_finish(holes, output, scores, params).table.values, output)
    diag = original.with_values([[1.0, np.nan], [np.nan, 4.0]])
    combined = _finish(diag, output, scores, params).table
    assert np.array_equal(combined.values, [[1.0, 8.0], [7.0, 4.0]])


def test_finish_random_property():
    rng = make_rng(2)
    schema = mixed_schema(3, 1)
    cat = schema.categorical_indices
    # a range wider than the draws, so clipping leaves every value as it is
    params = fit_normalizer(MixedTable(schema, [[-10.0] * 3 + [0.0], [30.0] * 3 + [1.0]]))
    for _ in range(50):
        original = random_table(schema, 6, seed=int(rng.integers(1e9)))
        output = random_table(schema, 6, seed=int(rng.integers(1e9))).values
        mask = rng.integers(0, 2, size=original.values.shape)
        target = original.with_values(np.where(mask == 1, original.values, np.nan))
        result = _finish(target, output, output, params)
        combined = result.table.values
        assert np.array_equal(combined[mask == 1], original.values[mask == 1])
        assert np.array_equal(combined[mask == 0], output[mask == 0])
        assert not np.isnan(combined).any()
        assert np.array_equal(result.scores[:, cat], combined[:, cat])


def test_finish_nan_output_is_a_named_error():
    schema = mixed_schema(1, 0)
    target = MixedTable(schema, np.array([[np.nan], [2.0]]))
    params = fit_normalizer(MixedTable(schema, np.array([[0.0], [10.0]])))
    with pytest.raises(ValueError, match="masked cells, first at target row 0, column 'n0'"):
        _finish(target, np.array([[np.nan], [5.0]]), np.full((2, 1), np.nan), params)
    # a NaN at an observed cell is replaced by the target's value
    result = _finish(target, np.array([[4.0], [np.nan]]), np.full((2, 1), np.nan), params)
    assert np.array_equal(result.table.values, [[4.0], [2.0]])
    # a categorical cell is filled from its score: a NaN score at a missing
    # cell is the same error, and one at an observed cell is replaced
    schema = mixed_schema(1, 1)
    target = MixedTable(schema, np.array([[1.0, np.nan], [2.0, 1.0]]))
    params = fit_normalizer(MixedTable(schema, np.array([[0.0, 0.0], [10.0, 1.0]])))
    filled = np.array([[1.0, 1.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="masked cells, first at target row 0, column 'c0'"):
        _finish(target, filled, np.array([[np.nan, np.nan], [np.nan, 0.9]]), params)
    result = _finish(target, filled, np.array([[np.nan, 0.7], [np.nan, np.nan]]), params)
    assert np.array_equal(result.table.values, [[1.0, 1.0], [2.0, 1.0]])
    assert np.array_equal(result.scores[:, 1], [0.7, 1.0])


@pytest.mark.parametrize("name", ["naa", "gain"])
def test_deep_nan_output_is_a_named_error(name):
    schema = mixed_schema(2, 1)
    imp = build(name, schema).fit(random_table(schema, 20, seed=55))
    net = imp.net_ if name == "naa" else imp.gen_
    net.params[:] = np.nan
    corrupted, _ = inject_mcar(random_table(schema, 8, seed=56), MissSpec(0.3, 5))
    i, j = np.argwhere(np.isnan(corrupted.values))[0]  # the first masked cell
    with pytest.raises(ValueError, match=f"first at target row {i}, column '{schema.names[j]}'"):
        imp.impute(corrupted)


def test_simple_imputer_examples():
    schema = mixed_schema(1, 1)
    train = MixedTable(schema, np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 1.0]]))
    target = MixedTable(schema, np.array([[np.nan, np.nan], [5.0, 1.0]]))
    result = SimpleImputer(schema).fit(train).impute(target)
    assert result.table.values[0, 0] == pytest.approx(2.0)
    assert result.table.values[0, 1] == 0.0  # mode of {0,0,1}
    assert result.scores[0, 1] == pytest.approx(1.0 / 3.0)
    # observed cells untouched; observed categorical score echoes the value
    assert result.table.values[1, 0] == 5.0
    assert result.scores[1, 1] == 1.0


def test_simple_clips_nothing_needed_but_range_respected():
    schema = mixed_schema(1, 0)
    train = MixedTable(schema, np.array([[0.0], [10.0]]))
    target = MixedTable(schema, np.array([[np.nan], [50.0]]))
    result = SimpleImputer(schema).fit(train).impute(target)
    assert result.table.values[0, 0] == 5.0
    assert result.table.values[1, 0] == 50.0  # observed, even outside fit range


def test_partial_distance_scaling():
    train = np.array([[0.0, 0.0], [3.0, np.nan]])
    row = np.array([0.0, 4.0])
    d = _pairwise_partial_distances(train, row)
    assert d[0] == pytest.approx(4.0)  # both dims observed: plain euclidean
    # one of two dims co-observed: squared distance scaled by 2/1
    assert d[1] == pytest.approx(np.sqrt(9.0 * 2.0))
    none = np.array([[np.nan, np.nan]])
    assert np.isinf(_pairwise_partial_distances(none, row)[0])


def test_knn_identical_row_is_copied():
    schema = mixed_schema(2, 1)
    rows = np.array(
        [
            [0.2, 0.8, 1.0],
            [0.9, 0.1, 0.0],
            [0.5, 0.5, 1.0],
        ]
    )
    stats = column_stats(rows, schema)
    target = np.array([[0.2, np.nan, np.nan]])
    filled, scores, fallbacks = knn_fill(rows, target, 1, schema, stats)
    assert filled[0, 1] == 0.8
    assert filled[0, 2] == 1.0
    assert scores[0, 2] == 1.0
    assert fallbacks == 0


def test_knn_k_equals_n_train_gives_column_mean_of_observers():
    schema = mixed_schema(2, 0)
    train = np.array([[0.1, 0.3], [0.2, np.nan], [0.6, 0.9]])
    stats = column_stats(train, schema)
    target = np.array([[0.5, np.nan]])
    filled, _, _ = knn_fill(train, target, 3, schema, stats)
    # only rows 0 and 2 observe column 1
    assert filled[0, 1] == pytest.approx((0.3 + 0.9) / 2.0)


def test_knn_fallback_to_stats():
    schema = mixed_schema(2, 0)
    train = np.array([[0.1, np.nan], [0.2, np.nan]])
    with pytest.raises(ValueError):
        column_stats(train, schema)
    # column observed in training stats but not in any candidate row
    train = np.array([[0.1, 0.5]])
    stats = column_stats(train, schema)
    target = np.array([[np.nan, np.nan]])  # no co-observed feature -> inf dist
    filled, _, fallbacks = knn_fill(train, target, 1, schema, stats)
    assert fallbacks == 2
    assert filled[0, 0] == pytest.approx(0.1)
    assert filled[0, 1] == pytest.approx(0.5)


def test_knn_tie_break_prefers_lower_index():
    schema = mixed_schema(2, 0)
    train = np.array([[0.0, 0.3], [0.0, 0.7]])  # equidistant from target
    stats = column_stats(train, schema)
    filled, _, _ = knn_fill(train, np.array([[0.0, np.nan]]), 1, schema, stats)
    assert filled[0, 1] == 0.3


def test_knn_reconstructs_duplicated_rows(monkeypatch):
    monkeypatch.setattr(imputers, "KNN_K", 1)
    schema = mixed_schema(3, 2)
    base = random_table(schema, 12, seed=31)
    train = MixedTable(schema, np.vstack([base.values, base.values]))
    corrupted, mask = inject_mcar(base, MissSpec(0.3, 7))
    imp = KnnImputer(schema).fit(train)
    result = imp.impute(corrupted)
    # rows that kept at least one observed cell match their duplicate exactly;
    # fully-erased rows have no anchor and are excluded
    anchored = mask.any(axis=1)
    assert np.allclose(result.table.values[anchored], base.values[anchored])
    assert np.array_equal(mask == 0, np.isnan(corrupted.values))


def test_knn_brute_force_oracle(monkeypatch):
    """Cross-check every imputed cell against a naive nested-loop KNN."""
    schema = mixed_schema(4, 2)
    train = random_table(schema, 12, seed=41)
    target_full = random_table(schema, 6, seed=42)
    corrupted, _ = inject_mcar(target_full, MissSpec(0.4, 3))
    k = 3
    monkeypatch.setattr(imputers, "KNN_K", k)
    imp = KnnImputer(schema).fit(train)
    result = imp.impute(corrupted)

    params = fit_normalizer(train)
    tn = normalize(train.values, params)
    gn = normalize(corrupted.values, params)
    cat = set(schema.categorical_indices.tolist())
    c = schema.n_cols
    for i in range(gn.shape[0]):
        for j in range(c):
            if not np.isnan(gn[i, j]):
                continue
            cands = []
            for t in range(tn.shape[0]):
                if np.isnan(tn[t, j]):
                    continue
                both = [
                    f
                    for f in range(c)
                    if not np.isnan(tn[t, f]) and not np.isnan(gn[i, f])
                ]
                if not both:
                    continue
                d2 = sum((tn[t, f] - gn[i, f]) ** 2 for f in both) * c / len(both)
                cands.append((np.sqrt(d2), t))
            cands.sort()
            vals = [tn[t, j] for _, t in cands[:k]]
            expect = float(np.mean(vals))
            if j in cat:
                assert result.scores[i, j] == pytest.approx(expect, abs=1e-12)
            else:
                got = result.table.values[i, j]
                span = params.span[list(schema.numerical_indices).index(j)]
                cmin = params.col_min[list(schema.numerical_indices).index(j)]
                assert got == pytest.approx(expect * span + cmin, abs=1e-9)


def test_missforest_no_missing_target_unchanged():
    schema = mixed_schema(2, 1)
    train = random_table(schema, 40, seed=50)
    target = random_table(schema, 10, seed=51)
    imp = MissForestImputer(schema, n_trees=5, max_iter=2).fit(train)
    result = imp.impute(target)
    assert np.array_equal(result.table.values, target.values)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -2}, "max_iter must be >= 1"),
        ({"n_trees": 0}, "n_trees must be >= 1"),
        # a float or a bool is refused too
        ({"n_trees": 2.5}, "n_trees must be >= 1 and an int"),
        ({"max_iter": True}, "max_iter must be >= 1 and an int"),
    ],
)
def test_missforest_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MissForestImputer(mixed_schema(2, 1), **kwargs)


@pytest.mark.parametrize("k", [0, -2, 2.5, True])
def test_knn_rejects_bad_k(k):
    # k is the constant KNN_K: any k, valid or not, is an unknown setting
    with pytest.raises(TypeError, match="'k'"):
        KnnImputer(mixed_schema(2, 1), k=k)


def test_missforest_learns_linear_relation():
    schema = mixed_schema(2, 0)
    rng = make_rng(52)
    x = rng.uniform(0.0, 1.0, 200)
    train = MixedTable(schema, np.column_stack([x, 2.0 * x]))
    xt = rng.uniform(0.1, 0.9, 30)
    target_vals = np.column_stack([xt, 2.0 * xt])
    target_vals[:15, 1] = np.nan
    target = MixedTable(schema, target_vals)
    imp = MissForestImputer(schema, n_trees=30, seed=1).fit(train)
    result = imp.impute(target)
    err = np.abs(result.table.values[:15, 1] - 2.0 * xt[:15])
    assert err.max() < 0.1


def test_missforest_divergence_keeps_previous_iterate(monkeypatch):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=53, missing_rate=0.2)

    def iterate(max_iter):
        imp = MissForestImputer(schema, n_trees=5, max_iter=max_iter, seed=2)
        imp.stats_ = column_stats(train.values, schema)
        return imp

    after_one = iterate(1)._iterate(train, None, "fit")
    two = iterate(2)
    falling = iter([(1.0, 1.0), (0.5, 0.5)])  # the rule never fires
    monkeypatch.setattr(two, "_deltas", lambda new, old, observed: next(falling))
    after_two = two._iterate(train, None, "fit")
    # the second sweep moves the iterate, so keeping it would be visible
    assert not np.array_equal(after_one[0], after_two[0])

    imp = iterate(6)
    seen = []
    original = imp._deltas

    def rising(new, old, observed):
        seen.append(original(new, old, observed))
        return float(len(seen)), float(len(seen))  # both deltas rise every sweep

    monkeypatch.setattr(imp, "_deltas", rising)
    values, scores = imp._iterate(train, None, "fit")
    # the rule fires after the second sweep and returns the first sweep's iterate
    assert len(seen) == 2
    assert all(d_num > 0.0 and d_cat is not None for d_num, d_cat in seen)
    assert np.array_equal(values, after_one[0])
    assert np.array_equal(scores, after_one[1], equal_nan=True)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_contract_completeness_and_preservation(name):
    schema = mixed_schema(3, 2)
    train = random_table(schema, 40, seed=60)
    target_full = random_table(schema, 25, seed=61)
    corrupted, mask = inject_mcar(target_full, MissSpec(0.3, 9))
    result = build(name, schema, seed=3).fit(train).impute(corrupted)

    values = result.table.values
    assert not np.isnan(values).any()
    # observed cells byte-identical
    obs = mask == 1
    assert np.array_equal(values[obs], target_full.values[obs])
    # categorical outputs are hard 0/1 consistent with scores
    cat = schema.categorical_indices
    assert set(np.unique(values[:, cat])) <= {0.0, 1.0}
    scores = result.scores[:, cat]
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert np.array_equal(values[:, cat], (scores >= 0.5).astype(float))
    # numerical imputations stay inside the fitted training range
    num = schema.numerical_indices
    tmin = np.nanmin(train.values[:, num], axis=0)
    tmax = np.nanmax(train.values[:, num], axis=0)
    miss_num = mask[:, num] == 0
    vals_num = values[:, num]
    assert np.all(vals_num[miss_num] >= np.broadcast_to(tmin, vals_num.shape)[miss_num] - 1e-9)
    assert np.all(vals_num[miss_num] <= np.broadcast_to(tmax, vals_num.shape)[miss_num] + 1e-9)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_contract_determinism(name):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=70)
    corrupted, _ = inject_mcar(random_table(schema, 15, seed=71), MissSpec(0.2, 4))
    a = build(name, schema, seed=5).fit(train).impute(corrupted)
    b = build(name, schema, seed=5).fit(train).impute(corrupted)
    assert np.array_equal(a.table.values, b.table.values)
    assert np.array_equal(a.scores, b.scores, equal_nan=True)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_contract_incomplete_training_fold(name):
    schema = mixed_schema(2, 1)
    train = random_table(schema, 30, seed=80, missing_rate=0.2)
    corrupted, _ = inject_mcar(random_table(schema, 12, seed=81), MissSpec(0.2, 6))
    result = build(name, schema, seed=7).fit(train).impute(corrupted)
    assert not np.isnan(result.table.values).any()


@pytest.mark.parametrize("name", ["knn", "naa", "gain"])
def test_constant_training_column_imputes_its_value(name):
    # methods that denormalize a normalized grid must map a constant
    # column back to exactly its single training value
    schema = mixed_schema(2, 1)
    train_values = random_table(schema, 30, seed=85).values.copy()
    train_values[:, 1] = 7.25
    train = MixedTable(schema, train_values)
    corrupted, mask = inject_mcar(random_table(schema, 12, seed=86), MissSpec(0.3, 8))
    result = build(name, schema, seed=2).fit(train).impute(corrupted)
    holes = mask[:, 1] == 0
    assert holes.any()
    assert np.all(result.table.values[holes, 1] == 7.25)


@pytest.mark.parametrize("column", ["n0", "c0"])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_training_column_without_observed_cell_is_named(name, column):
    schema = mixed_schema(1, 1)
    values = random_table(schema, 20, seed=87).values.copy()
    values[:, schema.index_of(column)] = np.nan
    with pytest.raises(ValueError, match=f"column '{column}' has no observed"):
        build(name, schema).fit(MixedTable(schema, values))


def test_schema_mismatch_rejected():
    schema = mixed_schema(2, 1)
    other = mixed_schema(3, 1)
    train = random_table(other, 10, seed=90)
    with pytest.raises(ValueError, match="schema"):
        SimpleImputer(schema).fit(train)


def test_registry_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        make_imputer("nope", mixed_schema())


@pytest.mark.parametrize(
    "name, overrides, message",
    [
        ("knn", {"k": 5}, r"method 'knn' \(KnnImputer\) has no setting 'k'; its settings: none"),
        ("simple", {"k": 5}, r"'simple' \(SimpleImputer\) has no setting 'k'"),
        ("inaa", {"variant": "naa"}, r"'inaa' \(DaeImputer\) has no setting 'variant'; .*'epochs'"),
        ("igain", {"alpha": 5}, r"'igain' \(GainImputer\) has no setting 'alpha'"),
        ("missforest", {"max_depth": 8}, r"'missforest' \(MissForestImputer\) has no setting"),
        ("missforest", {"n_trees": 0}, r"'missforest' \(MissForestImputer\) rejects .*n_trees"),
    ],
)
def test_registry_names_the_method_class_and_setting(name, overrides, message):
    with pytest.raises(ValueError, match=message):
        make_imputer(name, mixed_schema(), 1, **overrides)
