"""Experiment orchestration: corruption protocol, CV scoring, reporting.

The imputation experiment corrupts the complete subset at each missing
rate, then for every (repeat, rate, fold, method) fits the imputer on the
corrupted training folds, imputes the corrupted hold-out fold, and scores
normalized RMSE (numerical cells) and AUROC (categorical cells) against
the ground truth. The post-imputation experiment imputes one complete
dataset per method and cross-validates a random forest CVD predictor with
SMOTE-balanced training folds, scored by F1.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import forest as rf
from .metrics import UndefinedMetricError, categorical_auroc, f1, normalized_rmse
from .missingness import MissSpec, assign_folds, inject_mcar
from .registry import make_imputer
from .resample import SmoteConfig, smote
from .seeding import derive_seed, make_rng
from .tabular import (
    ColumnKind,
    MixedTable,
    Schema,
    complete_subset,
    fit_normalizer,
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
    matrix. Numerical columns map the latent normal CDF into their target
    range; binary columns threshold the latent variable at the quantile
    matching the requested prevalence, so imbalance is configurable.
    """

    schema: Schema
    correlation: np.ndarray
    numeric_ranges: dict = field(default_factory=dict)  # name -> (lo, hi)
    prevalence: dict = field(default_factory=dict)  # name -> positive fraction


def generate_synthetic(spec: SyntheticSpec, n_rows: int, seed: int) -> MixedTable:
    schema = spec.schema
    c = schema.n_cols
    corr = np.asarray(spec.correlation, dtype=float)
    if corr.shape != (c, c):
        raise ValueError(f"correlation must be {c}x{c}")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise ValueError("correlation matrix is not positive semidefinite") from None
    rng = make_rng(seed, "synthetic")
    z = rng.standard_normal((n_rows, c)) @ chol.T
    values = np.empty_like(z)
    for j, col in enumerate(schema.columns):
        if col.kind is ColumnKind.NUMERICAL:
            lo, hi = spec.numeric_ranges.get(col.name, (0.0, 1.0))
            values[:, j] = lo + (hi - lo) * ndtr(z[:, j])
        else:
            prev = spec.prevalence.get(col.name, 0.5)
            values[:, j] = (z[:, j] > ndtri(1.0 - prev)).astype(float)
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
    auroc_average: str = "macro"
    # post-imputation predictor settings
    post_rate: float = 0.2
    forest_trees: int = 100
    forest_max_depth: int | None = None
    smote_k: int = 5
    dataset: str | None = None  # CSV path, echoed into reports

    def __post_init__(self):
        if not self.methods or not self.rates:
            raise ValueError("config needs at least one method and one rate")
        if self.folds < 2 or self.repeats < 1:
            raise ValueError("folds must be >= 2 and repeats >= 1")
        for r in (*self.rates, self.post_rate):
            if not 0.0 < r < 1.0:
                raise ValueError(f"rate {r} outside (0, 1)")
        if self.auroc_average not in ("macro", "micro"):
            raise ValueError(f"unknown auroc_average {self.auroc_average!r}")
        if self.forest_trees < 1 or self.smote_k < 1:
            raise ValueError("forest_trees and smote_k must be >= 1")
        if self.forest_max_depth is not None and self.forest_max_depth < 1:
            raise ValueError("forest_max_depth must be >= 1 or None")


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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            [RunRecord(**_null_to_nan(r)) for r in doc["records"]],
            [F1Record(**_null_to_nan(r)) for r in doc["f1_records"]],
            doc["config"],
        )


def _nan_to_null(row: dict) -> dict:
    return {k: None if isinstance(v, float) and np.isnan(v) else v for k, v in row.items()}


def _null_to_nan(row: dict) -> dict:
    return {k: np.nan if v is None else v for k, v in row.items()}


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


def run_imputation_experiment(table: MixedTable, config: ExperimentConfig) -> MetricsReport:
    """The corruption / 5-fold CV / repeats protocol on one dataset."""
    for name in config.methods:
        make_imputer(name, table.schema, 0, **config.method_overrides.get(name, {}))
    complete = complete_subset(table)
    n = complete.n_rows
    records = []
    for repeat in range(config.repeats):
        folds = assign_folds(n, config.folds, derive_seed(config.seed, "folds", repeat))
        for rate in config.rates:
            spec = MissSpec(rate, derive_seed(config.seed, "mcar", repeat, rate))
            corrupted, mask = inject_mcar(complete, spec)
            for fold in range(config.folds):
                train_rows = folds.train_rows(fold)
                test_rows = folds.fold_rows(fold)
                train_tbl = corrupted.take(train_rows)
                test_tbl = corrupted.take(test_rows)
                truth_test = complete.take(test_rows)
                mask_test = mask[test_rows]
                params = fit_normalizer(train_tbl)
                for method in config.methods:
                    seed = derive_seed(config.seed, "imputer", method, repeat, rate, fold)
                    imputer = make_imputer(
                        method, table.schema, seed, **config.method_overrides.get(method, {})
                    )
                    imputer.fit(train_tbl)
                    result = imputer.impute(test_tbl)
                    rmse = _defined_or_nan(
                        "nRMSE", normalized_rmse, truth_test, result.table, mask_test, params
                    )
                    auroc_value = _defined_or_nan(
                        "AUROC",
                        lambda *a: categorical_auroc(*a)[0],
                        truth_test, result.scores, mask_test, config.auroc_average,
                    )
                    records.append(
                        RunRecord(method, rate, repeat, fold, rmse, auroc_value)
                    )
    return MetricsReport(records, [], _config_echo(config))


# ---------------------------------------------------------------------------
# post-imputation prediction


def predict_cv(
    table: MixedTable,
    seed: int,
    folds: int = 5,
    forest_trees: int = 100,
    forest_max_depth: int | None = None,
    smote_k: int = 5,
) -> list:
    """5-fold CV of a random-forest label predictor with SMOTE training folds.

    The table must be complete and its schema must designate a label
    column. Features are min-max normalized per training fold before SMOTE
    distances and forest fitting. Returns the per-fold F1 scores.
    """
    schema = table.schema
    if schema.label is None:
        raise ValueError("schema designates no label column")
    label_j = schema.label_index
    feature_idx = np.array([j for j in range(schema.n_cols) if j != label_j])
    cat_local = np.array(
        [
            i
            for i, j in enumerate(feature_idx)
            if schema.columns[j].kind is ColumnKind.CATEGORICAL_BINARY
        ]
    )
    assignment = assign_folds(table.n_rows, folds, derive_seed(seed, "predict-folds"))
    tree_config = rf.TreeConfig(
        task=rf.CLASSIFICATION,
        max_depth=forest_max_depth,
        n_features_per_split="sqrt",
    )
    scores = []
    for fold in range(folds):
        train_rows = assignment.train_rows(fold)
        test_rows = assignment.fold_rows(fold)
        train_tbl = table.take(train_rows)
        params = fit_normalizer(train_tbl)
        X_train = normalize(train_tbl, params).values[:, feature_idx]
        y_train = train_tbl.values[:, label_j]
        X_test = normalize(table.take(test_rows), params).values[:, feature_idx]
        y_test = table.values[test_rows, label_j]
        X_bal, y_bal = smote(
            X_train,
            y_train,
            SmoteConfig(k_neighbors=smote_k, seed=derive_seed(seed, "smote", fold)),
            categorical_indices=cat_local,
        )
        model = rf.fit_forest(
            X_bal,
            y_bal,
            tree_config,
            n_trees=forest_trees,
            seed=derive_seed(seed, "predict-forest", fold),
        )
        preds = (rf.predict_forest(model, X_test) >= 0.5).astype(float)
        scores.append(f1(preds, y_test))
    return scores


def run_post_imputation(table: MixedTable, config: ExperimentConfig) -> MetricsReport:
    """Impute the full corrupted dataset per method, then CV-predict the label."""
    schema = table.schema
    if schema.label is None:
        raise ValueError("post-imputation prediction needs a label column")
    rate = config.post_rate
    complete = complete_subset(table)
    f1_records = []
    for repeat in range(config.repeats):
        spec = MissSpec(rate, derive_seed(config.seed, "post-mcar", repeat, rate))
        corrupted, _ = inject_mcar(complete, spec, exclude=[schema.label])
        for method in config.methods:
            seed = derive_seed(config.seed, "post-imputer", method, repeat, rate)
            imputer = make_imputer(
                method, schema, seed, **config.method_overrides.get(method, {})
            )
            imputer.fit(corrupted)
            imputed = imputer.impute(corrupted).table
            fold_scores = predict_cv(
                imputed,
                seed=derive_seed(config.seed, "post-cv", repeat),
                folds=config.folds,
                forest_trees=config.forest_trees,
                forest_max_depth=config.forest_max_depth,
                smote_k=config.smote_k,
            )
            for fold, score in enumerate(fold_scores):
                f1_records.append(F1Record(method, rate, repeat, fold, score))
    return MetricsReport([], f1_records, _config_echo(config))


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_report(report: MetricsReport, out_dir) -> list:
    """Write detail, aggregate, and plot-series tables; returns file paths.

    details.csv has one row per (method, rate, repeat, fold) run;
    aggregate.csv one row per (method, rate). series_rmse.csv and
    series_auroc.csv are plot-ready (rate as rows, one column per method);
    f1.csv holds the post-imputation scores when present.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    if report.records:
        path = os.path.join(out_dir, "details.csv")
        _write_csv(
            path,
            ["method", "rate", "repeat", "fold", "rmse", "auroc"],
            [
                (r.method, r.rate, r.repeat, r.fold, r.rmse, r.auroc)
                for r in report.records
            ],
        )
        written.append(path)
        agg = report.aggregate()
        path = os.path.join(out_dir, "aggregate.csv")
        _write_csv(
            path,
            ["method", "rate", "n_runs", "rmse_mean", "rmse_std", "auroc_mean", "auroc_std"],
            [
                (a["method"], a["rate"], a["n_runs"], a["rmse_mean"], a["rmse_std"],
                 a["auroc_mean"], a["auroc_std"])
                for a in agg
            ],
        )
        written.append(path)
        methods = list(dict.fromkeys(r.method for r in report.records))
        rates = sorted({r.rate for r in report.records})
        by_key = {(a["method"], a["rate"]): a for a in agg}
        for metric in ("rmse", "auroc"):
            path = os.path.join(out_dir, f"series_{metric}.csv")
            rows = []
            for rate in rates:
                row = [rate]
                for m in methods:
                    row.append(by_key[(m, rate)][f"{metric}_mean"])
                rows.append(row)
            _write_csv(path, ["rate"] + methods, rows)
            written.append(path)

    if report.f1_records:
        path = os.path.join(out_dir, "f1_details.csv")
        _write_csv(
            path,
            ["method", "rate", "repeat", "fold", "f1"],
            [(r.method, r.rate, r.repeat, r.fold, r.f1) for r in report.f1_records],
        )
        written.append(path)
        path = os.path.join(out_dir, "f1.csv")
        _write_csv(
            path,
            ["method", "rate", "n_runs", "f1_mean", "f1_std"],
            [
                (a["method"], a["rate"], a["n_runs"], a["f1_mean"], a["f1_std"])
                for a in report.f1_aggregate()
            ],
        )
        written.append(path)
    return written


def _config_echo(config: ExperimentConfig) -> dict:
    echo = asdict(config)
    echo["rates"] = list(config.rates)
    return echo
