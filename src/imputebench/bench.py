"""Experiment orchestration: corruption protocol, CV scoring, reporting.

Each protocol is a plan of units run in order by one loop. The imputation
experiment's unit is a fold group (repeat, rate, fold): it corrupts the
complete subset at the rate, then each method in turn fits on the corrupted
training folds, imputes the corrupted hold-out fold and is scored by
normalized RMSE (numerical cells) and AUROC (categorical cells) against the
ground truth. The post-imputation unit (repeat, method) imputes the
repeat's corrupted dataset and cross-validates a random forest label
predictor with SMOTE-balanced training folds, scored by F1. A unit draws
its folds and corruption from the seeds, so it depends on no other unit.
"""

from __future__ import annotations

import itertools
import json
import numbers
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import forest as rf
from .metrics import UndefinedMetricError, categorical_auroc, f1, normalized_rmse
from .missingness import assign_folds, inject_mcar
from .normal import ndtr
from .registry import make_imputer
from .resample import smote
from .seeding import _check_int, derive_seed, make_rng
from .tabular import (
    ColumnKind,
    MixedTable,
    Schema,
    complete_subset,
    fit_normalizer,
    load_json_object,
    normalize,
)

__all__ = [
    "SyntheticSpec",
    "ExperimentConfig",
    "RunRecord",
    "F1Record",
    "MetricsReport",
    "generate_synthetic",
    "run_imputation_experiment",
    "run_post_imputation",
    "predict_cv",
    "emit_report",
]

DEFAULT_RATES = (0.1, 0.2, 0.3, 0.4, 0.5)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-copula generator spec for mixed tables.

    Latent variables are multivariate normal with the given correlation
    matrix, and each column takes its latent normal CDF u as its copula
    uniform. A numerical column maps u into its range, lo + (hi - lo) u; a
    binary column is 1 where u > 1 - prevalence, so imbalance is
    configurable. `generate_synthetic` rejects a key naming no schema
    column, a non-finite range bound, a prevalence outside [0, 1], a
    correlation entry that is not finite, not symmetric or a diagonal
    other than 1, and fewer than one row.
    """

    schema: Schema
    correlation: np.ndarray
    numeric_ranges: dict = field(default_factory=dict)  # name -> (lo, hi)
    prevalence: dict = field(default_factory=dict)  # name -> positive fraction


def generate_synthetic(spec: SyntheticSpec, n_rows: int, seed: int) -> MixedTable:
    schema = spec.schema
    c = schema.n_cols
    _check_int("n_rows", n_rows, 1)
    corr = np.asarray(spec.correlation, dtype=float)
    if corr.shape != (c, c):
        raise ValueError(f"correlation must be {c}x{c}")
    # cholesky reads the lower triangle only and lets NaN through
    for bad, message in (
        (~np.isfinite(corr), "correlation[{i}, {j}] is {v}, not finite"),
        (corr != corr.T, "correlation[{i}, {j}] is {v} but correlation[{j}, {i}] is {w}"),
        (np.eye(c, dtype=bool) & (corr != 1.0), "correlation[{i}, {j}] is {v}, not 1"),
    ):
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(message.format(i=i, j=j, v=corr[i, j], w=corr[j, i]))
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise ValueError("correlation matrix is not positive semidefinite") from None
    stray = sorted((set(spec.numeric_ranges) | set(spec.prevalence)) - set(schema.names))
    if stray:
        raise ValueError(f"synthetic spec names columns not in the schema: {stray}")
    for name, bounds in spec.numeric_ranges.items():
        if not np.isfinite(bounds).all():
            raise ValueError(f"numeric range of column {name!r} has a non-finite bound")
    for name, prev in spec.prevalence.items():
        if not 0.0 <= prev <= 1.0:
            raise ValueError(f"prevalence of column {name!r} is {prev}, not in [0, 1]")
    rng = make_rng(seed, "synthetic")
    z = rng.standard_normal((n_rows, c)) @ chol.T
    values = np.empty_like(z)
    for j, col in enumerate(schema.columns):
        u = ndtr(z[:, j])  # the column's copula uniform
        if col.kind is ColumnKind.NUMERICAL:
            lo, hi = spec.numeric_ranges.get(col.name, (0.0, 1.0))
            values[:, j] = lo + (hi - lo) * u
        else:
            values[:, j] = u > 1.0 - spec.prevalence.get(col.name, 0.5)
    return MixedTable(schema, values)


# ---------------------------------------------------------------------------
# configuration and report containers


@dataclass
class ExperimentConfig:
    methods: list
    rates: tuple = DEFAULT_RATES
    folds: int = 5
    repeats: int = 10
    seed: int = 0
    method_overrides: dict = field(default_factory=dict)  # name -> kwargs
    # post-imputation predictor settings
    post_rate: float = 0.2
    forest_trees: int = 100
    dataset: str | None = None  # CSV path, echoed into reports

    def __post_init__(self):
        # a JSON config file can give any field any type: check each one
        # before it is used, so a wrong type is named, not a later traceback
        listed = isinstance(self.methods, (list, tuple))
        if not listed or not all(isinstance(m, str) for m in self.methods):
            raise ValueError(f"methods must be a list of method names, got {self.methods!r}")
        listed = isinstance(self.rates, (list, tuple))
        if not listed or not all(map(_is_number, self.rates)):
            raise ValueError(f"rates must be a list of numbers, got {self.rates!r}")
        self.rates = tuple(self.rates)
        if not _is_number(self.post_rate):
            raise ValueError(f"post_rate must be a number, got {self.post_rate!r}")
        for name, least in (("folds", 2), ("repeats", 1), ("forest_trees", 1)):
            _check_int(name, getattr(self, name), least)
        for name in ("folds", "repeats"):  # a plan axis's length must fit a C ssize_t
            if getattr(self, name) > sys.maxsize:
                raise ValueError(f"{name} must be <= {sys.maxsize}, got {getattr(self, name)}")
        _check_int("seed", self.seed, None)
        if not isinstance(self.method_overrides, dict) or not all(
            isinstance(v, dict) for v in self.method_overrides.values()
        ):
            raise ValueError(
                "method_overrides must map method names to dicts of settings, "
                f"got {self.method_overrides!r}"
            )
        if not self.methods or not self.rates:
            raise ValueError("config needs at least one method and one rate")
        for name, values in (("methods", self.methods), ("rates", self.rates)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated entry in {name} {list(values)}")
        stray = sorted(set(self.method_overrides) - set(self.methods))
        if stray:
            raise ValueError(f"method_overrides for methods not in methods: {stray}")
        for r in (*self.rates, self.post_rate):
            if not 0.0 < r < 1.0:
                raise ValueError(f"rate {r} outside (0, 1)")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunRecord:
    method: str
    rate: float
    repeat: int
    fold: int
    rmse: float
    auroc: float


@dataclass(frozen=True)
class F1Record:
    method: str
    rate: float
    repeat: int
    fold: int
    f1: float


@dataclass
class MetricsReport:
    records: list
    f1_records: list
    config: dict

    def aggregate(self):
        """Mean/std of each metric per (method, rate), in stable order."""
        return _group_stats(self.records, ("rmse", "auroc"))

    def f1_aggregate(self):
        return _group_stats(self.f1_records, ("f1",))

    def to_json(self, path) -> None:
        """Strict JSON: an undefined (NaN) metric is written as null."""
        doc = {
            "config": self.config,
            "records": [_nan_to_null(asdict(r)) for r in self.records],
            "f1_records": [_nan_to_null(asdict(r)) for r in self.f1_records],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "MetricsReport":
        doc = load_json_object(path, "report")
        if not isinstance(doc.get("config"), dict):
            raise ValueError(f"report {path} has no 'config' object")
        records = _read_records(doc, "records", RunRecord, path)
        methods = dict.fromkeys(r.method for r in records)
        pairs = {(r.method, r.rate) for r in records}
        for rate, method in itertools.product(sorted({r.rate for r in records}), methods):
            if (method, rate) not in pairs:  # the series tables need every method at every rate
                raise ValueError(f"report {path} has no record of method {method!r} at rate {rate}")
        return cls(records, _read_records(doc, "f1_records", F1Record, path), doc["config"])


def _read_records(doc: dict, key: str, record_type, path) -> list:
    """`doc[key]` as records; a missing list, a bad record or a second record of
    one (method, rate, repeat, fold) is named with the file."""
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ValueError(f"report {path} has no {key!r} list")
    records, first = [], {}
    for i, row in enumerate(rows):
        try:
            fields = {k: _field(record_type, k, v) for k, v in row.items()}
            records.append(record_type(**fields))
        except (TypeError, AttributeError) as exc:  # a bad, missing or unknown field; not an object
            raise ValueError(f"report {path}, {key}[{i}]: {exc}") from None
        rec = records[-1]
        unit = (rec.method, rec.rate, rec.repeat, rec.fold)
        if unit in first:
            raise ValueError(
                f"report {path}, {key}[{i}] repeats {key}[{first[unit]}]: method {rec.method!r}, "
                f"rate {rec.rate}, repeat {rec.repeat}, fold {rec.fold}"
            )
        first[unit] = i
    return records


def _nan_to_null(row: dict) -> dict:
    return {k: None if isinstance(v, float) and np.isnan(v) else v for k, v in row.items()}


# the JSON types of each record field; any other field is a metric, null if undefined
_FIELD_TYPES = {"method": (str,), "rate": (int, float), "repeat": (int,), "fold": (int,)}


def _field(record_type, name: str, value):
    """A record field's JSON value, null as NaN; a TypeError if a known field's type is wrong."""
    types = _FIELD_TYPES.get(name, (int, float, type(None)))
    if name in record_type.__dataclass_fields__ and type(value) not in types:
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise TypeError(f"field {name!r} must be {expected}, not {value!r}")
    return np.nan if value is None else value


def _group_stats(records, metrics) -> list:
    """Run count plus mean/std of each metric per (method, rate).

    Groups appear in first-seen order and keep their records' order, so the
    float reductions match a plain filter over the record list. A metric
    reduces over its defined (non-NaN) values; with none it is NaN.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.method, rec.rate), []).append(rec)
    rows = []
    for (method, rate), sel in groups.items():
        row = {"method": method, "rate": rate, "n_runs": len(sel)}
        for metric in metrics:
            values = np.array([getattr(r, metric) for r in sel])
            values = values[~np.isnan(values)]
            row[f"{metric}_mean"] = float(values.mean()) if values.size else np.nan
            row[f"{metric}_std"] = float(values.std()) if values.size else np.nan
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# imputation experiment


def _defined_or_nan(name, metric, *args) -> float:
    """`metric(*args)`, or NaN with a warning where the metric is undefined."""
    try:
        return metric(*args)
    except UndefinedMetricError as exc:
        warnings.warn(f"{name} undefined ({exc}); recorded as NaN")
        return np.nan


def _impute(config: ExperimentConfig, path: tuple, train: MixedTable, target: MixedTable):
    """One cell: method `path[1]`, with its `config.method_overrides` and the
    seed `derive_seed(config.seed, *path)`, fitted on `train`, imputes `target`."""
    method = path[1]
    settings = config.method_overrides.get(method, {})
    imputer = make_imputer(method, train.schema, derive_seed(config.seed, *path), **settings)
    imputer.fit(train)
    return imputer.impute(target)


def _run_plan(unit, table: MixedTable, config: ExperimentConfig, steps) -> list:
    """`unit(complete subset, config, step)`'s records for every step of the
    plan `steps`, in plan order. Every configured imputer is built once first,
    so a bad name or setting fails before any work. The callers draw `steps`
    lazily: `itertools.product` would copy every axis into a tuple first."""
    for name in config.methods:
        make_imputer(name, table.schema, 0, **config.method_overrides.get(name, {}))
    complete = complete_subset(table)
    return [record for step in steps for record in unit(complete, config, step)]


def _fold_group(complete: MixedTable, config: ExperimentConfig, step: tuple) -> list:
    """Every method's record of one (repeat, rate, fold), in config order."""
    repeat, rate, fold = step
    folds = assign_folds(complete.n_rows, config.folds, derive_seed(config.seed, "folds", repeat))
    corrupted = inject_mcar(complete, rate, derive_seed(config.seed, "mcar", repeat, rate))
    test_rows = np.flatnonzero(folds == fold)
    train_tbl, test_tbl = corrupted.take(np.flatnonzero(folds != fold)), corrupted.take(test_rows)
    del corrupted  # split into copies: free it before the first cell
    truth_test, mask_test = complete.take(test_rows), test_tbl.mask()
    params = fit_normalizer(train_tbl)
    records = []
    for method in config.methods:
        out = _impute(config, ("imputer", method, repeat, rate, fold), train_tbl, test_tbl)
        rmse = _defined_or_nan("nRMSE", normalized_rmse, truth_test, out.table, mask_test, params)
        auroc = _defined_or_nan("AUROC", categorical_auroc, truth_test, out.scores, mask_test)
        del out  # scored: free it before the next method imputes
        records.append(RunRecord(method, rate, repeat, fold, rmse, auroc))
    return records


def run_imputation_experiment(table: MixedTable, config: ExperimentConfig) -> MetricsReport:
    """The corruption / k-fold CV / repeats protocol on one dataset: one
    fold-group unit per (repeat, rate, fold), repeats outermost."""
    steps = (
        (repeat, rate, fold)
        for repeat in range(config.repeats)
        for rate in config.rates
        for fold in range(config.folds)
    )
    records = _run_plan(_fold_group, table, config, steps)
    return MetricsReport(records, [], _config_echo(config))


# ---------------------------------------------------------------------------
# post-imputation prediction


def _label_index(table: MixedTable) -> int:
    """Index of the schema's label column, whose observed values must be 0 or 1."""
    schema = table.schema
    if schema.label is None:
        raise ValueError("schema designates no label column")
    label_j = schema.label_index
    label = table.values[:, label_j]
    bad = np.flatnonzero(~np.isin(label, (0.0, 1.0)) & ~np.isnan(label))
    if bad.size:
        raise ValueError(
            f"label column {schema.label!r} must hold 0 or 1; row {bad[0] + 1} is {label[bad[0]]}"
        )
    return label_j


def predict_cv(table: MixedTable, seed: int, config: ExperimentConfig) -> list:
    """CV of a random-forest label predictor with SMOTE training folds.

    The table must be complete and its schema must designate a label
    column of 0s and 1s. Features are min-max normalized per training fold
    before SMOTE distances and forest fitting. SMOTE balances each training
    fold with k = 5 neighbours; the forest's `config.forest_trees` trees
    grow unbounded on sqrt(features) per split. Returns per-fold F1 scores.
    Each fold runs in its own frame, so its forest and arrays are freed
    before the next fold grows its own.
    """
    schema = table.schema
    label_j = _label_index(table)
    feature_idx = np.delete(np.arange(schema.n_cols), label_j)
    cat_local = np.flatnonzero(schema.is_categorical[feature_idx])
    folds = assign_folds(table.n_rows, config.folds, derive_seed(seed, "predict-folds"))
    tree_config = rf.TreeConfig(task=rf.CLASSIFICATION)

    def fold_f1(fold: int) -> float:
        train_rows = np.flatnonzero(folds != fold)
        test_rows = np.flatnonzero(folds == fold)
        train_tbl = table.take(train_rows)
        params = fit_normalizer(train_tbl)
        X_train = normalize(train_tbl.values, params)[:, feature_idx]
        y_train = train_tbl.values[:, label_j]
        X_test = normalize(table.values[test_rows], params)[:, feature_idx]
        y_test = table.values[test_rows, label_j]
        try:
            X_bal, y_bal = smote(
                X_train, y_train, derive_seed(seed, "smote", fold), categorical_indices=cat_local
            )
        except ValueError as exc:
            raise ValueError(
                f"label column {schema.label!r}, training rows of fold {fold}: {exc}"
            ) from exc
        forest_seed = derive_seed(seed, "predict-forest", fold)
        model = rf.fit_forest(X_bal, y_bal, tree_config, config.forest_trees, forest_seed)
        preds = (rf.predict_forest(model, X_test) >= 0.5).astype(float)
        return f1(preds, y_test)

    return [fold_f1(fold) for fold in range(config.folds)]


def _predict_unit(complete: MixedTable, config: ExperimentConfig, step: tuple) -> list:
    """The F1 records of one (repeat, method): impute the repeat's corruption, then CV."""
    repeat, method = step
    rate = config.post_rate
    seed = derive_seed(config.seed, "post-mcar", repeat, rate)
    corrupted = inject_mcar(complete, rate, seed, exclude=[complete.schema.label])
    imputed = _impute(config, ("post-imputer", method, repeat, rate), corrupted, corrupted).table
    del corrupted  # imputed: free it before the CV grows its forests
    fold_scores = predict_cv(imputed, derive_seed(config.seed, "post-cv", repeat), config)
    return [F1Record(method, rate, repeat, fold, score) for fold, score in enumerate(fold_scores)]


def run_post_imputation(table: MixedTable, config: ExperimentConfig) -> MetricsReport:
    """Impute the full corrupted dataset per method, then CV-predict the label:
    one unit per (repeat, method), repeats outermost."""
    _label_index(table)
    steps = ((repeat, method) for repeat in range(config.repeats) for method in config.methods)
    f1_records = _run_plan(_predict_unit, table, config, steps)
    return MetricsReport([], f1_records, _config_echo(config))


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path, rows) -> None:
    """A header of the first row's keys, then one line of values per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.values()) + "\n")


def emit_report(report: MetricsReport, out_dir) -> list:
    """Write detail, aggregate, and plot-series tables; returns file paths.

    Each table's columns are its rows' fields: details.csv and
    f1_details.csv hold one record per run, aggregate.csv and f1.csv one
    `_group_stats` row per (method, rate). series_rmse.csv and
    series_auroc.csv are plot-ready (rate as rows, one mean column per
    method).
    """
    tables = {}
    if report.records:
        agg = report.aggregate()
        tables["details.csv"] = [asdict(r) for r in report.records]
        tables["aggregate.csv"] = agg
        methods = list(dict.fromkeys(a["method"] for a in agg))
        by_key = {(a["method"], a["rate"]): a for a in agg}
        for metric in ("rmse", "auroc"):
            tables[f"series_{metric}.csv"] = [
                {"rate": rate, **{m: by_key[(m, rate)][f"{metric}_mean"] for m in methods}}
                for rate in sorted({a["rate"] for a in agg})
            ]
    if report.f1_records:
        tables["f1_details.csv"] = [asdict(r) for r in report.f1_records]
        tables["f1.csv"] = report.f1_aggregate()
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, rows in tables.items():
        written.append(os.path.join(out_dir, name))
        _write_csv(written[-1], rows)
    return written


def _config_echo(config: ExperimentConfig) -> dict:
    return {**asdict(config), "rates": list(config.rates)}
