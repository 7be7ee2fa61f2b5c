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
    with pytest.raises(SchemaError, match="^duplicate column name 'a' in schema$"):
        Schema([Column("a", ColumnKind.NUMERICAL), Column("a", ColumnKind.NUMERICAL)])
    # the first name seen a second time is named
    names = ["a", "b", "b", "a"]
    with pytest.raises(SchemaError, match="^duplicate column name 'b' in schema$"):
        Schema([Column(name, ColumnKind.NUMERICAL) for name in names])
    with pytest.raises(SchemaError):
        Schema([])
    with pytest.raises(SchemaError):
        Schema([Column("a", ColumnKind.NUMERICAL)], label="missing")


def test_table_rejects_non_binary_categorical():
    schema = mixed_schema(1, 1)
    # rows are counted from 1 and the value is printed as a plain number
    with pytest.raises(SchemaError, match=r"'c0' has non-binary value 2\.0 at row 2$"):
        MixedTable(schema, np.array([[1.0, 0.0], [1.0, 2.0]]))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_table_rejects_an_infinite_numerical_value(value):
    # NaN is a missing cell; an infinite one would be imputed from or scored as a value
    schema = mixed_schema(2, 1)
    values = random_table(schema, 30, seed=7).values.copy()
    values[3, 1] = value
    message = f"^numerical column 'n1' has infinite value {value} at row 4$"
    with pytest.raises(SchemaError, match=message):
        MixedTable(schema, values)


def test_take_selects_positions_or_the_true_rows_of_a_mask():
    t = MixedTable(mixed_schema(1, 0), np.array([[10.0], [11.0], [12.0]]))
    assert t.take(np.array([True, False, True])).values[:, 0].tolist() == [10.0, 12.0]
    assert t.take([False, True, False]).values[:, 0].tolist() == [11.0]
    assert t.take(np.array([2, 0], dtype=np.uint8)).values[:, 0].tolist() == [12.0, 10.0]
    assert t.take([]).n_rows == 0
    # a float is no row number: 0.7 is not row 0
    message = "^rows must be integer positions or a boolean mask, not float64$"
    for rows in ([0.7], np.array([1.0])):
        with pytest.raises(ValueError, match=message):
            t.take(rows)


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
    assert np.isnan(t.values[:, 0]).sum() == 1
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
    # a schema column named twice is refused, not read from its first field
    twice = tmp_path / "twice.csv"
    twice.write_text("Sex,Glucose,x,Glucose\n1,999,0,100\n")
    message = f"{twice}: column 'Glucose' is named twice in the header, as fields 2 and 4"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_csv(twice, schema)
    # an extra column named twice stays ignored
    extra = tmp_path / "extra.csv"
    extra.write_text("Glucose,x,Sex,x\n100,1,1,2\n")
    assert load_csv(extra, schema).values.tolist() == [[100.0, 1.0]]
    # a non-finite literal is neither a missing cell nor a value
    for field in ("nan", "inf", "-inf"):
        non_finite = tmp_path / f"{field}.csv"
        non_finite.write_text(f"Glucose,Sex\n100,1\n{field},0\n")
        with pytest.raises(ParseError, match="row 2, column 'Glucose'"):
            load_csv(non_finite, schema)
    # nor is a number only Python's float() reads: a digit separator, non-ASCII digits
    for field in ("1_000", "1_0", "\uff11\uff12"):
        separated = tmp_path / "separated.csv"
        separated.write_text(f"Glucose,Sex\n100,1\n90,{field}\n", encoding="utf-8")
        message = re.escape(f"row 2, column 'Sex': cannot parse {field!r} as a finite number")
        with pytest.raises(ParseError, match=message):
            load_csv(separated, schema)
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


def test_load_csv_refuses_a_record_longer_than_the_header(tmp_path):
    # its extra fields would be dropped unread
    schema = Schema([Column("a", ColumnKind.NUMERICAL), Column("b", ColumnKind.NUMERICAL)])
    long = tmp_path / "long.csv"
    long.write_text("a,b\n1,2\n1,2,3\n")
    message = f"{long}: row 2 has 3 fields, more than the header's 2"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_csv(long, schema)
    long.write_text("a,b\n1,2,\n")  # an empty extra field too
    with pytest.raises(ParseError, match="row 1 has 3 fields, more than the header's 2$"):
        load_csv(long, schema)


def test_csv_round_trip(tmp_path):
    t = random_table(mixed_schema(), 20, seed=9, missing_rate=0.2)
    path = tmp_path / "t.csv"
    save_csv(t, path)
    back = load_csv(path, t.schema)
    assert np.array_equal(back.values, t.values, equal_nan=True)


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    schema = Schema([Column("Glucose", ColumnKind.NUMERICAL), Column("Sex", ColumnKind.CATEGORICAL_BINARY)])
    text = "Sex,Glucose\n1,100\n0,\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbfSex,")
    assert load_csv(bom, schema) == load_csv(plain, schema)


HEART_SCHEMA_FILE = """{
  "columns": [
    {"name": "Sex", "kind": "categorical"},
    {"name": "Totchol", "kind": "numerical"},
    {"name": "Age", "kind": "numerical"},
    {"name": "SysBP", "kind": "numerical"},
    {"name": "Cursmoke", "kind": "categorical"},
    {"name": "Cigpday", "kind": "numerical"},
    {"name": "Bmi", "kind": "numerical"},
    {"name": "Diabetes", "kind": "categorical"},
    {"name": "Bpmeds", "kind": "categorical"},
    {"name": "Heartrate", "kind": "numerical"},
    {"name": "Glucose", "kind": "numerical"},
    {"name": "Prevhyp", "kind": "categorical"},
    {"name": "Prevstrk", "kind": "categorical"},
    {"name": "DiaBP", "kind": "numerical"},
    {"name": "CVD", "kind": "categorical"}
  ],
  "label": "CVD"
}
"""


def test_load_schema_reads_the_documented_heart_schema(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(HEART_SCHEMA_FILE)
    assert load_schema(path) == FRAMINGHAM_SCHEMA


@pytest.mark.parametrize("text", ['{"columns": 3}', "[1]"], ids=["columns-not-a-list", "not-an-object"])
def test_malformed_schema_file_is_a_named_error(tmp_path, text):
    path = tmp_path / "schema.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"schema file {path}"):
        load_schema(path)


def test_schema_column_name_not_a_string_is_a_named_error(tmp_path):
    path = tmp_path / "schema.json"
    columns = [{"name": "a", "kind": "numerical"}, {"name": 3, "kind": "numerical"}]
    path.write_text(json.dumps({"columns": columns}))
    with pytest.raises(SchemaError, match=re.escape(f"schema file {path}: columns[1]")):
        load_schema(path)


TWO_COLUMNS = '{"name": "A", "kind": "numerical"}, {"name": "B", "kind": "categorical"}'


@pytest.mark.parametrize(
    "text, named",
    [
        # json alone keeps the last value: label A, an unlabelled schema, column b
        (f'{{"columns": [{TWO_COLUMNS}], "label": "B", "label": "A"}}',
         ' repeats the key "label" in one object'),
        (f'{{"columns": [{TWO_COLUMNS}], "lable": "B"}}', ' has the unknown key "lable"; '),
        ('{"columns": [{"name": "a", "name": "b", "kind": "numerical"}]}',
         ' repeats the key "name" in one object'),
        (f'{{"columns": [{TWO_COLUMNS[:-1]}, "unit": "mg/dL"}}]}}',
         ': columns[1] has the unknown key "unit"; '),
    ],
    ids=["repeated-label", "misspelt-label", "repeated-column-name", "unknown-column-key"],
)
def test_schema_file_with_a_repeated_or_unknown_key_is_a_named_error(tmp_path, text, named):
    path = tmp_path / "schema.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match="^" + re.escape(f"schema file {path}{named}")):
        load_schema(path)


def test_complete_subset_identity_and_filter():
    full = random_table(mixed_schema(), 10, seed=3)
    assert complete_subset(full) is full  # read-only: nothing to copy

    values = full.values.copy()
    values[1, 0] = np.nan
    values[3, 2] = np.nan
    holes = full.with_values(values)
    sub = complete_subset(holes)
    assert sub is not holes and sub.n_rows == 8
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
