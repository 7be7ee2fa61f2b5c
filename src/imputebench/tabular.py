"""Mixed-type tables with explicit missingness, min-max scaling, and CSV I/O.

Tables are rectangular grids of numerical and binary-categorical columns.
Cells are stored in a single float matrix where NaN marks a missing value,
so every imputation method consumes the same representation. Categorical
cells are restricted to {0, 1}.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ColumnKind",
    "Column",
    "Schema",
    "MixedTable",
    "NormParams",
    "SchemaError",
    "ParseError",
    "EmptySubsetError",
    "FRAMINGHAM_SCHEMA",
    "load_csv",
    "load_json_object",
    "load_schema",
    "save_schema",
    "complete_subset",
    "fit_normalizer",
    "normalize",
    "denormalize",
]


class SchemaError(ValueError):
    """A table or file violates its declared schema."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; message names row and column."""


class EmptySubsetError(ValueError):
    """Filtering left zero rows."""


class ColumnKind(Enum):
    NUMERICAL = "numerical"
    CATEGORICAL_BINARY = "categorical"


@dataclass(frozen=True)
class Column:
    name: str
    kind: ColumnKind


def _kind_indices(columns, kind: ColumnKind) -> np.ndarray:
    """Read-only positions of the columns of one kind."""
    idx = np.array([i for i, c in enumerate(columns) if c.kind is kind], dtype=int)
    idx.flags.writeable = False
    return idx


class Schema:
    """Ordered column declarations plus an optional binary label column.

    `numerical_indices`, `categorical_indices` and the per-column boolean
    `is_categorical` are built once, read-only.
    """

    def __init__(self, columns, label: str | None = None):
        columns = tuple(columns)
        if not columns:
            raise SchemaError("schema must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if label is not None and label not in names:
            raise SchemaError(f"label column {label!r} not in schema")
        self.columns = columns
        self.label = label
        self.numerical_indices = _kind_indices(columns, ColumnKind.NUMERICAL)
        self.categorical_indices = _kind_indices(columns, ColumnKind.CATEGORICAL_BINARY)
        self.is_categorical = np.zeros(len(columns), dtype=bool)
        self.is_categorical[self.categorical_indices] = True
        self.is_categorical.flags.writeable = False

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    @property
    def label_index(self) -> int | None:
        return None if self.label is None else self.index_of(self.label)

    def __eq__(self, other):
        return (
            isinstance(other, Schema)
            and self.columns == other.columns
            and self.label == other.label
        )

    def __repr__(self):
        return f"Schema({list(self.columns)!r}, label={self.label!r})"


def _num(name):
    return Column(name, ColumnKind.NUMERICAL)


def _cat(name):
    return Column(name, ColumnKind.CATEGORICAL_BINARY)


# The 15-feature heart-study schema: 8 numerical, 7 binary categorical,
# with CVD as the prediction label.
FRAMINGHAM_SCHEMA = Schema(
    [
        _cat("Sex"),
        _num("Totchol"),
        _num("Age"),
        _num("SysBP"),
        _cat("Cursmoke"),
        _num("Cigpday"),
        _num("Bmi"),
        _cat("Diabetes"),
        _cat("Bpmeds"),
        _num("Heartrate"),
        _num("Glucose"),
        _cat("Prevhyp"),
        _cat("Prevstrk"),
        _num("DiaBP"),
        _cat("CVD"),
    ],
    label="CVD",
)


class MixedTable:
    """Immutable mixed-type table. NaN entries are missing cells."""

    def __init__(self, schema: Schema, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != schema.n_cols:
            raise SchemaError(
                f"values shape {values.shape} incompatible with "
                f"{schema.n_cols}-column schema"
            )
        cat = schema.categorical_indices
        if cat.size:
            block = values[:, cat]
            bad = ~(np.isnan(block) | (block == 0.0) | (block == 1.0))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                name = schema.columns[cat[j]].name
                raise SchemaError(
                    f"categorical column {name!r} has non-binary value "
                    f"{block[i, j]!r} at row {i}"
                )
        values = values.copy()
        values.flags.writeable = False
        self.schema = schema
        self.values = values

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def mask(self) -> np.ndarray:
        """Observation mask: 1 where a cell is present, 0 where missing."""
        return (~np.isnan(self.values)).astype(np.int8)

    @property
    def is_complete(self) -> bool:
        return not np.isnan(self.values).any()

    def with_values(self, values: np.ndarray) -> "MixedTable":
        return MixedTable(self.schema, values)

    def take(self, rows) -> "MixedTable":
        return MixedTable(self.schema, self.values[np.asarray(rows, dtype=int)])

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.schema.index_of(name)]

    def __eq__(self, other):
        return (
            isinstance(other, MixedTable)
            and self.schema == other.schema
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


@dataclass(frozen=True)
class NormParams:
    """Per-numerical-column observed min/max. Constant columns map to 0."""

    numerical_indices: np.ndarray
    col_min: np.ndarray
    col_max: np.ndarray

    @property
    def constant(self) -> np.ndarray:
        return self.col_max == self.col_min

    @property
    def span(self) -> np.ndarray:
        return np.where(self.constant, 1.0, self.col_max - self.col_min)


def load_json_object(path, what: str, error=ValueError) -> dict:
    """The JSON object in a UTF-8 file, a leading byte-order mark skipped. A file
    that is not JSON, holds NaN, Infinity, -Infinity or a number literal that
    overflows a float, such as 1e400, or holds anything but an object raises
    `error`, whose message starts with `what` and the path."""
    def refuse(token):
        raise error(f"{what} {path} holds {token}, which is not strict JSON")
    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise error(f"{what} {path} holds {literal}, which is not a finite number")
        return value
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh, parse_constant=refuse, parse_float=finite)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{what} {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object, not a {type(doc).__name__}")
    return doc


def load_schema(path) -> Schema:
    """Read a schema file: JSON with a column list and label designation."""
    doc = load_json_object(path, "schema file", SchemaError)
    kinds = {k.value: k for k in ColumnKind}
    try:
        columns = [Column(c["name"], kinds[c["kind"]]) for c in doc["columns"]]
    except (KeyError, TypeError) as exc:
        # TypeError: "columns" is not a list of objects
        raise SchemaError(
            f"schema file {path}: {exc!r}; expected an object whose \"columns\" "
            "list holds objects with a \"name\" and a \"kind\""
        ) from exc
    for j, column in enumerate(columns):
        if not isinstance(column.name, str):
            raise SchemaError(
                f"schema file {path}: columns[{j}] has the name {column.name!r}, not a string"
            )
    return Schema(columns, label=doc.get("label"))


def save_schema(schema: Schema, path) -> None:
    doc = {
        "columns": [{"name": c.name, "kind": c.kind.value} for c in schema.columns],
        "label": schema.label,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_csv(path, schema: Schema, missing_token: str = "") -> MixedTable:
    """Parse a UTF-8 comma-separated file, with or without a BOM, into a MixedTable.

    The header must contain every schema column (order-insensitive; extra
    columns are ignored). Empty fields, or the configured missing token,
    denote missing cells; any other field must be a finite number, so a
    literal `nan` or `inf` is a ParseError rather than a silent value, and
    so is a record with fewer fields than the header (a blank line included).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        positions = []
        for name in schema.names:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            positions.append(header.index(name))
        rows = []
        for r, record in enumerate(reader):
            if len(record) < len(header):
                raise ParseError(
                    f"{path}: row {r + 1} has {len(record)} of the header's {len(header)} fields"
                )
            out = np.empty(schema.n_cols)
            for j, pos in enumerate(positions):
                field = record[pos].strip()
                if field == "" or field == missing_token:
                    out[j] = np.nan
                    continue
                try:
                    out[j] = float(field)
                except ValueError:
                    out[j] = np.nan
                if not np.isfinite(out[j]):
                    raise ParseError(
                        f"{path}: row {r + 1}, column {schema.columns[j].name!r}: "
                        f"cannot parse {field!r} as a finite number"
                    )
            rows.append(out)
    values = np.array(rows).reshape(len(rows), schema.n_cols)
    return MixedTable(schema, values)


def save_csv(table: MixedTable, path) -> None:
    """Write a table as CSV; a missing cell is an empty field, and every other
    cell the shortest text that reads back as the same double."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for row in table.values:
            writer.writerow(["" if np.isnan(v) else repr(float(v)).removesuffix(".0") for v in row])


def complete_subset(table: MixedTable) -> MixedTable:
    """Rows with no missing cells, original order preserved."""
    keep = ~np.isnan(table.values).any(axis=1)
    if not keep.any():
        raise EmptySubsetError("no complete rows in table")
    return table.with_values(table.values[keep])


def fit_normalizer(table: MixedTable) -> NormParams:
    """Observed min/max per numerical column (ignores missing cells)."""
    idx = table.schema.numerical_indices
    mins = np.empty(idx.size)
    maxs = np.empty(idx.size)
    for i, j in enumerate(idx):
        col = table.values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise EmptySubsetError(
                f"column {table.schema.columns[j].name!r} has no observed cells"
            )
        mins[i] = observed.min()
        maxs[i] = observed.max()
    return NormParams(idx.copy(), mins, maxs)


def normalize(values: np.ndarray, params: NormParams) -> np.ndarray:
    """A copy of a value grid with its numerical columns mapped affinely onto
    [0, 1]; no clipping applied."""
    values = np.array(values, dtype=float)
    idx = params.numerical_indices
    values[:, idx] = (values[:, idx] - params.col_min) / params.span
    values[:, idx[params.constant]] = np.where(
        np.isnan(values[:, idx[params.constant]]), np.nan, 0.0
    )
    return values


def denormalize(values: np.ndarray, params: NormParams) -> np.ndarray:
    """The inverse of `normalize`; a constant column maps back to its value."""
    values = np.array(values, dtype=float)
    idx = params.numerical_indices
    values[:, idx] = values[:, idx] * params.span + params.col_min
    values[:, idx[params.constant]] = np.where(
        np.isnan(values[:, idx[params.constant]]),
        np.nan,
        params.col_min[params.constant],
    )
    return values
