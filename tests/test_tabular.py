import json
import re

import numpy as np
import pytest

from imputebench.tabular import (
    FRAMINGHAM_SCHEMA,
    Column,
    ColumnKind,
    EmptySubsetError,
    MixedTable,
    ParseError,
    Schema,
    SchemaError,
    complete_subset,
    denormalize,
    fit_normalizer,
    load_csv,
    load_schema,
    normalize,
    save_csv,
    save_schema,
)

from conftest import mixed_schema, random_table


def test_framingham_schema_shape():
    assert len(FRAMINGHAM_SCHEMA.columns) == 15
    assert FRAMINGHAM_SCHEMA.numerical_indices.size == 8
    assert FRAMINGHAM_SCHEMA.categorical_indices.size == 7
    assert FRAMINGHAM_SCHEMA.label == "CVD"
    # built once and shared, so callers must not be able to mutate them
    assert FRAMINGHAM_SCHEMA.numerical_indices is FRAMINGHAM_SCHEMA.numerical_indices
    mask = FRAMINGHAM_SCHEMA.is_categorical
    kinds = [c.kind for c in FRAMINGHAM_SCHEMA.columns]
    assert np.array_equal(mask, [k is ColumnKind.CATEGORICAL_BINARY for k in kinds])
    for idx in (FRAMINGHAM_SCHEMA.numerical_indices, FRAMINGHAM_SCHEMA.categorical_indices, mask):
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 99


def test_schema_rejects_duplicates_and_empty():
    with pytest.raises(SchemaError):
        Schema([Column("a", ColumnKind.NUMERICAL), Column("a", ColumnKind.NUMERICAL)])
    with pytest.raises(SchemaError):
        Schema([])
    with pytest.raises(SchemaError):
        Schema([Column("a", ColumnKind.NUMERICAL)], label="missing")


def test_table_rejects_non_binary_categorical():
    schema = mixed_schema(1, 1)
    with pytest.raises(SchemaError):
        MixedTable(schema, np.array([[1.0, 2.0]]))


def test_table_mask_matches_missing():
    t = random_table(mixed_schema(), 30, seed=5, missing_rate=0.3)
    mask = t.mask()
    assert np.array_equal(mask == 0, np.isnan(t.values))


def test_load_csv_one_missing_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("Glucose,Sex\n100,1\n,0\n90,1\n")
    schema = Schema([Column("Glucose", ColumnKind.NUMERICAL), Column("Sex", ColumnKind.CATEGORICAL_BINARY)])
    t = load_csv(path, schema)
    assert t.n_rows == 3
    assert np.isnan(t.column("Glucose")).sum() == 1
    assert np.isnan(t.values).sum() == 1


def test_load_csv_errors(tmp_path):
    schema = Schema([Column("Glucose", ColumnKind.NUMERICAL), Column("Sex", ColumnKind.CATEGORICAL_BINARY)])
    bad_cat = tmp_path / "cat.csv"
    bad_cat.write_text("Glucose,Sex\n100,2\n")
    with pytest.raises(SchemaError):
        load_csv(bad_cat, schema)
    bad_num = tmp_path / "num.csv"
    bad_num.write_text("Glucose,Sex\nabc,1\n")
    with pytest.raises(ParseError, match="Glucose"):
        load_csv(bad_num, schema)
    missing_col = tmp_path / "col.csv"
    missing_col.write_text("Glucose\n100\n")
    with pytest.raises(SchemaError, match="Sex"):
        load_csv(missing_col, schema)
    # a non-finite literal is neither a missing cell nor a value
    for field in ("nan", "inf", "-inf"):
        non_finite = tmp_path / f"{field}.csv"
        non_finite.write_text(f"Glucose,Sex\n100,1\n{field},0\n")
        with pytest.raises(ParseError, match="row 2, column 'Glucose'"):
            load_csv(non_finite, schema)
    # unless it is the declared missing token
    assert np.isnan(load_csv(tmp_path / "nan.csv", schema, missing_token="nan").values[1, 0])
    # a record with fewer fields than the header is not a row of missing cells
    short = tmp_path / "short.csv"
    short.write_text("Sex,Glucose\n1,100\n0\n")
    with pytest.raises(ParseError, match="row 2 has 1 of the header's 2 fields"):
        load_csv(short, schema)
    blank = tmp_path / "blank.csv"
    blank.write_text("Glucose,Sex\n100,1\n\n90,0\n")
    with pytest.raises(ParseError, match="row 2 has 0 of the header's 2 fields"):
        load_csv(blank, schema)


def test_csv_round_trip(tmp_path):
    t = random_table(mixed_schema(), 20, seed=9, missing_rate=0.2)
    path = tmp_path / "t.csv"
    save_csv(t, path)
    back = load_csv(path, t.schema)
    assert np.allclose(back.values, t.values, equal_nan=True)


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(FRAMINGHAM_SCHEMA, path)
    assert load_schema(path) == FRAMINGHAM_SCHEMA


@pytest.mark.parametrize("text", ['{"columns": 3}', "[1]"], ids=["columns-not-a-list", "not-an-object"])
def test_malformed_schema_file_is_a_named_error(tmp_path, text):
    path = tmp_path / "schema.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"bad schema file {path}"):
        load_schema(path)


def test_schema_column_name_not_a_string_is_a_named_error(tmp_path):
    path = tmp_path / "schema.json"
    columns = [{"name": "a", "kind": "numerical"}, {"name": 3, "kind": "numerical"}]
    path.write_text(json.dumps({"columns": columns}))
    with pytest.raises(SchemaError, match=re.escape(f"bad schema file {path}: columns[1]")):
        load_schema(path)


def test_complete_subset_identity_and_filter():
    full = random_table(mixed_schema(), 10, seed=3)
    assert complete_subset(full) == full

    values = full.values.copy()
    values[1, 0] = np.nan
    values[3, 2] = np.nan
    holes = full.with_values(values)
    sub = complete_subset(holes)
    assert sub.n_rows == 8
    assert np.array_equal(sub.values, values[[0, 2, 4, 5, 6, 7, 8, 9]])


def test_complete_subset_idempotent_and_empty():
    t = random_table(mixed_schema(), 12, seed=4, missing_rate=0.4)
    sub = complete_subset(t)
    assert complete_subset(sub) == sub
    all_missing = t.with_values(np.full_like(t.values, np.nan))
    with pytest.raises(EmptySubsetError):
        complete_subset(all_missing)


def test_normalize_endpoints_and_midpoint():
    schema = Schema([Column("x", ColumnKind.NUMERICAL)])
    t = MixedTable(schema, np.array([[100.0], [150.0], [200.0]]))
    params = fit_normalizer(t)
    normed = normalize(t.values, params)
    assert np.allclose(normed.ravel(), [0.0, 0.5, 1.0])


def test_normalize_preserves_categoricals_and_missingness():
    t = random_table(mixed_schema(), 40, seed=7, missing_rate=0.25)
    params = fit_normalizer(t)
    normed = normalize(t.values, params)
    cat = t.schema.categorical_indices
    assert np.array_equal(normed[:, cat], t.values[:, cat], equal_nan=True)
    assert np.array_equal(np.isnan(normed), np.isnan(t.values))


def test_normalize_round_trip_oracle():
    # 1000 random cells across repeated draws
    total = 0
    for seed in range(10):
        t = random_table(mixed_schema(5, 0), 20, seed=seed)
        params = fit_normalizer(t)
        back = denormalize(normalize(t.values, params), params)
        assert np.max(np.abs(back - t.values)) < 1e-12
        total += t.values.size
    assert total >= 1000


def test_normalize_constant_column_maps_to_zero():
    schema = Schema([Column("x", ColumnKind.NUMERICAL)])
    t = MixedTable(schema, np.array([[7.0], [7.0], [np.nan]]))
    params = fit_normalizer(t)
    normed = normalize(t.values, params)
    assert normed[0, 0] == 0.0
    assert np.isnan(normed[2, 0])
    assert denormalize(normed, params)[0, 0] == 7.0


def test_normalize_does_not_clip_out_of_range():
    schema = Schema([Column("x", ColumnKind.NUMERICAL)])
    fit_on = MixedTable(schema, np.array([[0.0], [10.0]]))
    params = fit_normalizer(fit_on)
    wild = np.array([[20.0], [-10.0]])
    normed = normalize(wild, params)
    assert normed[0, 0] == 2.0
    assert normed[1, 0] == -1.0
    assert np.array_equal(wild, [[20.0], [-10.0]])  # the input is not modified
