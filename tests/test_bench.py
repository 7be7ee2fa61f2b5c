import hashlib
import itertools
import json
import re
import tracemalloc
import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from imputebench import bench, deep_imputers, forest, registry, split
from imputebench.bench import (
    ExperimentConfig,
    MetricsReport,
    RunRecord,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    predict_cv,
    run_imputation_experiment,
    run_post_imputation,
)
from imputebench.cli import default_synthetic_spec, main
from imputebench.imputers import ImputationResult, Imputer, SimpleImputer
from imputebench.missingness import assign_folds
from imputebench.seeding import derive_seed
from imputebench.tabular import MixedTable, complete_subset, fit_normalizer, normalize

from conftest import make_rng, mixed_schema, record_knn_inputs

RECIPE = Path(__file__).with_name("same_bytes_recipe.json")
BENCH_FILES = (
    "report.json", "details.csv", "aggregate.csv", "series_rmse.csv", "series_auroc.csv"
)
PREDICT_FILES = ("report.json", "f1_details.csv", "f1.csv")


def identity_corr(c):
    return np.eye(c)


def test_synthetic_shapes_and_ranges():
    schema = mixed_schema(2, 2)
    spec = SyntheticSpec(
        schema,
        identity_corr(4),
        numeric_ranges={"n0": (10.0, 20.0)},
        prevalence={"c0": 0.1},
    )
    t = generate_synthetic(spec, 500, seed=1)
    assert t.n_rows == 500
    assert t.values[:, 0].min() >= 10.0 and t.values[:, 0].max() <= 20.0
    assert t.values[:, 1].min() >= 0.0 and t.values[:, 1].max() <= 1.0  # default range
    assert set(np.unique(t.values[:, 2])) <= {0.0, 1.0}


def test_synthetic_independence_and_correlation():
    schema = mixed_schema(3, 0)
    t = generate_synthetic(SyntheticSpec(schema, identity_corr(3)), 10000, seed=2)
    corr = np.corrcoef(t.values.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05

    strong = np.array([[1.0, 0.95, 0.0], [0.95, 1.0, 0.0], [0.0, 0.0, 1.0]])
    t2 = generate_synthetic(SyntheticSpec(schema, strong), 10000, seed=3)
    got = np.corrcoef(t2.values[:, 0], t2.values[:, 1])[0, 1]
    # rank-preserving copula map keeps strong correlation close to nominal
    assert abs(got - 0.95) < 0.03


def test_synthetic_prevalence_binomial():
    schema = mixed_schema(0, 1)
    spec = SyntheticSpec(schema, identity_corr(1), prevalence={"c0": 0.04})
    t = generate_synthetic(spec, 20000, seed=4)
    p = t.values[:, 0].mean()
    se = np.sqrt(0.04 * 0.96 / 20000)
    assert abs(p - 0.04) < 4 * se


def test_synthetic_bad_correlation():
    schema = mixed_schema(2, 0)
    with pytest.raises(ValueError, match="2x2"):
        generate_synthetic(SyntheticSpec(schema, np.eye(3)), 10, seed=0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive"):
        generate_synthetic(SyntheticSpec(schema, bad), 10, seed=0)
    # checked before the Cholesky factorisation, which reads the lower
    # triangle only and lets NaN through; each names the first bad entry
    cases = [
        ([[1.0, 0.0], [0.0, np.nan]], r"correlation\[1, 1\] is nan, not finite"),
        ([[1.0, 0.3], [np.inf, 1.0]], r"correlation\[1, 0\] is inf, not finite"),
        ([[1.0, 0.5], [0.0, 1.0]], r"correlation\[0, 1\] is 0.5 but correlation\[1, 0\] is 0.0"),
        ([[2.0, 0.0], [0.0, 2.0]], r"correlation\[0, 0\] is 2.0, not 1"),
        ([[1.0, 0.2], [0.2, 0.9]], r"correlation\[1, 1\] is 0.9, not 1"),
    ]
    for corr, named in cases:
        with pytest.raises(ValueError, match=named):
            generate_synthetic(SyntheticSpec(schema, np.array(corr)), 100, seed=0)
    for rows in (0, -3, True, 2.5):
        with pytest.raises(ValueError, match="n_rows must be >= 1"):
            generate_synthetic(SyntheticSpec(schema, np.eye(2)), rows, seed=0)


def test_synthetic_bad_spec_is_a_named_error():
    schema = mixed_schema(1, 1)
    cases = [
        ({"prevalence": {"c0": 1.5}}, "'c0'"),
        ({"prevalence": {"c0": -0.2}}, "'c0'"),
        ({"prevalence": {"c0": float("nan")}}, "'c0'"),
        ({"prevalence": {"c9": 0.3}}, "'c9'"),
        ({"numeric_ranges": {"age": (0.0, 1.0)}}, "'age'"),
        ({"numeric_ranges": {"n0": (0.0, float("nan"))}}, "'n0'"),
        ({"numeric_ranges": {"n0": (-np.inf, 1.0)}}, "'n0'"),
        # entries the generator would never read, and an inverted range
        ({"numeric_ranges": {"c0": (0.0, 1.0)}}, "categorical column 'c0'"),
        ({"prevalence": {"n0": 0.3}}, "numerical column 'n0'"),
        ({"numeric_ranges": {"n0": (2.0, 1.0)}}, "'n0' has low end 2.0 above high end 1.0"),
    ]
    for fields, named in cases:
        with pytest.raises(ValueError, match=named):
            generate_synthetic(SyntheticSpec(schema, identity_corr(2), **fields), 10, seed=0)


def test_synthetic_prevalence_bounds_are_constant_columns():
    schema = mixed_schema(0, 2)
    spec = SyntheticSpec(schema, identity_corr(2), prevalence={"c0": 0.0, "c1": 1.0})
    t = generate_synthetic(spec, 200, seed=6)
    assert (t.values[:, 0] == 0.0).all() and (t.values[:, 1] == 1.0).all()


def test_default_synthetic_table_bytes_are_pinned():
    # sha256 taken when the generator still called scipy.special.ndtr/ndtri
    values = generate_synthetic(default_synthetic_spec(), 9310, 0).values
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "c2e214484a01fefb14f0330bc46a00d55f9b06b1da135faac26b67fe1b10d3d7"


def test_nondefault_synthetic_table_bytes_are_pinned():
    # sha256 taken when binary columns still thresholded the latent normal at
    # its (1 - prevalence) quantile
    schema = mixed_schema(3, 5)
    idx = np.arange(8)
    spec = SyntheticSpec(
        schema,
        (-0.5) ** np.abs(idx[:, None] - idx[None, :]),
        numeric_ranges={"n0": (-5.0, 5.0), "n1": (100.0, 250.0)},
        prevalence={"c0": 0.01, "c1": 0.2, "c2": 0.5, "c3": 0.8, "c4": 0.99},
    )
    values = generate_synthetic(spec, 5000, 11).values
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "6fbc8046021671dd36c5c6ce8f57bfc4c80f545b4abc76f0b5504e9ffdd52381"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=[])
    with pytest.raises(ValueError):
        ExperimentConfig(methods=["simple"], folds=1)
    with pytest.raises(ValueError):
        ExperimentConfig(methods=["simple"], rates=(0.0,))
    bad_fields = [
        {"post_rate": 0.0},
        {"post_rate": 1.0},
        {"forest_trees": 0},
        {"rates": ()},
        {"rates": (0.2, 0.4, 0.2)},
        {"method_overrides": {"inna": {"epochs": 2}}},  # a method not run
    ]
    for bad in bad_fields:
        with pytest.raises(ValueError):
            ExperimentConfig(methods=["simple"], **bad)
    with pytest.raises(ValueError, match="repeated"):
        ExperimentConfig(methods=["simple", "knn", "simple"])
    cfg = ExperimentConfig(methods=["nope"], repeats=1)
    t = generate_synthetic(SyntheticSpec(mixed_schema(2, 1), identity_corr(3)), 30, seed=5)
    with pytest.raises(ValueError, match="unknown"):
        run_imputation_experiment(t, cfg)


@pytest.mark.parametrize("protocol, unit", [
    (run_imputation_experiment, "_fold_group"), (run_post_imputation, "_predict_unit"),
])
def test_plan_steps_are_drawn_lazily_in_plan_order(monkeypatch, protocol, unit):
    t = labelled_table()
    steps = []
    monkeypatch.setattr(bench, unit, lambda complete, config, step: steps.append(step) or [])
    config = ExperimentConfig(methods=["simple", "knn"], rates=(0.2, 0.4), folds=3, repeats=2)
    protocol(t, config)
    if unit == "_fold_group":
        assert steps == list(itertools.product(range(2), (0.2, 0.4), range(3)))
    else:
        assert steps == list(itertools.product(range(2), ["simple", "knn"]))

    class FirstStep(Exception):
        pass

    def first_step(complete, config, step):
        raise FirstStep(step)

    # itertools.product would first copy the 2**62 repeats into a tuple
    monkeypatch.setattr(bench, unit, first_step)
    with pytest.raises(FirstStep, match=r"\(0, "):
        protocol(t, replace(config, repeats=2**62))


def test_folds_above_the_row_count_fail_in_the_first_unit():
    t = small_table(40)
    config = ExperimentConfig(methods=["simple"], folds=41, repeats=1)
    with pytest.raises(ValueError, match="cannot split 40 rows into 41 folds"):
        run_imputation_experiment(t, config)


def small_table(n=60, seed=6):
    schema = mixed_schema(2, 1)
    return generate_synthetic(
        SyntheticSpec(schema, identity_corr(3), numeric_ranges={"n0": (0, 100), "n1": (0, 100)}),
        n,
        seed=seed,
    )


def test_run_counts_and_aggregate_arithmetic():
    t = small_table()
    cfg = ExperimentConfig(methods=["simple", "knn"], rates=(0.2, 0.4), folds=3, repeats=2, seed=1)
    report = run_imputation_experiment(t, cfg)
    # folds x repeats runs per (method, rate)
    assert len(report.records) == 2 * 2 * 3 * 2
    agg = report.aggregate()
    assert len(agg) == 4
    for row in agg:
        sel = [
            r
            for r in report.records
            if r.method == row["method"] and r.rate == row["rate"]
        ]
        assert row["n_runs"] == 6
        assert row["rmse_mean"] == pytest.approx(np.mean([r.rmse for r in sel]), abs=1e-12)
        assert row["rmse_std"] == pytest.approx(np.std([r.rmse for r in sel]), abs=1e-12)
        assert row["auroc_mean"] == pytest.approx(np.mean([r.auroc for r in sel]), abs=1e-12)


def test_undefined_auroc_is_recorded_as_nan():
    schema = mixed_schema(2, 1)
    values = make_rng(21).uniform(0.0, 10.0, size=(40, 3))
    values[:, 2] = 0.0  # the only categorical column is constant
    cfg = ExperimentConfig(methods=["simple"], rates=(0.3,), folds=2, repeats=1, seed=4)
    with pytest.warns(UserWarning, match="AUROC undefined .*recorded as NaN"):
        report = run_imputation_experiment(MixedTable(schema, values), cfg)
    assert all(np.isnan(r.auroc) and np.isfinite(r.rmse) for r in report.records)
    (row,) = report.aggregate()
    assert np.isnan(row["auroc_mean"]) and np.isnan(row["auroc_std"])
    assert np.isfinite(row["rmse_mean"])


def test_undefined_nrmse_is_recorded_as_nan(tmp_path):
    schema = mixed_schema(0, 2)
    values = make_rng(22).integers(0, 2, size=(40, 2)).astype(float)
    cfg = ExperimentConfig(methods=["simple"], rates=(0.3,), folds=2, repeats=1, seed=5)
    with pytest.warns(UserWarning, match="nRMSE undefined .*recorded as NaN"):
        report = run_imputation_experiment(MixedTable(schema, values), cfg)
    assert len(report.records) == 2
    assert all(np.isnan(r.rmse) and 0.0 <= r.auroc <= 1.0 for r in report.records)
    emit_report(report, tmp_path)
    assert (tmp_path / "details.csv").read_text().splitlines()[1].split(",")[4] == "nan"


def test_report_json_writes_undefined_metrics_as_null(tmp_path):
    schema = mixed_schema(0, 2)
    values = make_rng(22).integers(0, 2, size=(40, 2)).astype(float)
    cfg = ExperimentConfig(methods=["simple"], rates=(0.3,), folds=2, repeats=1, seed=5)
    with pytest.warns(UserWarning, match="recorded as NaN"):
        report = run_imputation_experiment(MixedTable(schema, values), cfg)
    path = tmp_path / "report.json"
    report.to_json(path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert all(r["rmse"] is None for r in doc["records"])
    loaded = MetricsReport.from_json(path)
    assert all(np.isnan(r.rmse) for r in loaded.records)
    assert [r.auroc for r in loaded.records] == [r.auroc for r in report.records]
    emit_report(report, tmp_path / "a")
    emit_report(loaded, tmp_path / "b")
    for name in ("details.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_aggregate_reduces_over_defined_values_only():
    records = [
        RunRecord("m", 0.2, 0, fold, rmse, auroc)
        for fold, (rmse, auroc) in enumerate([(0.1, 0.6), (0.3, np.nan), (0.5, 0.8)])
    ]
    (row,) = MetricsReport(records, [], {}).aggregate()
    assert row["n_runs"] == 3
    assert row["rmse_mean"] == np.mean([0.1, 0.3, 0.5])
    assert row["auroc_mean"] == np.mean([0.6, 0.8])
    assert row["auroc_std"] == np.std([0.6, 0.8])


def test_experiment_determinism_byte_identical(tmp_path):
    t = small_table()
    cfg = ExperimentConfig(methods=["simple"], rates=(0.3,), folds=3, repeats=2, seed=9)
    a = run_imputation_experiment(t, cfg)
    b = run_imputation_experiment(t, cfg)
    assert a.records == b.records
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(a, dir_a)
    emit_report(b, dir_b)
    for name in ("details.csv", "aggregate.csv", "series_rmse.csv", "series_auroc.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # the same-bytes recipe: all seven methods, both protocols, every output file
    for command, names in (("bench", BENCH_FILES), ("predict", PREDICT_FILES)):
        runs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            args = ["--synthetic", "160", "--seed", "3", "--config", str(RECIPE)]
            assert main([command, *args, "--out-dir", str(out)]) == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert runs[0] == runs[1]


def test_repeats_redraw_masks_and_folds():
    t = small_table()
    cfg = ExperimentConfig(methods=["simple"], rates=(0.3,), folds=3, repeats=2, seed=2)
    with pytest.warns(UserWarning, match="AUROC undefined"):
        report = run_imputation_experiment(t, cfg)
    r0 = [r.rmse for r in report.records if r.repeat == 0]
    r1 = [r.rmse for r in report.records if r.repeat == 1]
    assert r0 != r1


DEEP = ["naa", "inaa", "gain", "igain"]


def _bits(records) -> list:
    """Each record as (method, rate, repeat, fold, metric bytes): NaN equals NaN."""
    return [(*astuple(r)[:4], np.array(astuple(r)[4:]).tobytes()) for r in records]


def _check_units_independent(monkeypatch, unit, table, config, axes, records):
    """`records`, a full run over the plan `product(*axes)`, is the records of
    each unit run alone with nothing memoised, and of the plan run backwards."""
    plan = list(itertools.product(*axes))
    size = len(records) // len(plan)
    expected = {step: _bits(records[i * size:(i + 1) * size]) for i, step in enumerate(plan)}
    complete = complete_subset(table)
    for step in plan:
        monkeypatch.setattr(deep_imputers, "_last_fill", {})
        assert _bits(unit(complete, config, step)) == expected[step], step
    for step in reversed(plan):
        assert _bits(unit(complete, config, step)) == expected[step], step


@pytest.mark.usefixtures("small_batches")
def test_bench_fold_groups_are_independent_units(monkeypatch):
    t = small_table(n=80)
    cfg = ExperimentConfig(
        methods=["knn", "missforest", *DEEP], rates=(0.2, 0.4), folds=2, repeats=2, seed=8,
        method_overrides={"missforest": {"n_trees": 3, "max_iter": 2}}
        | {m: {"epochs": 2} for m in DEEP},
    )
    axes = (range(cfg.repeats), cfg.rates, range(cfg.folds))
    # every training fold has missing cells, so the deep methods complete it
    with pytest.warns(UserWarning, match="AUROC undefined"):
        records = run_imputation_experiment(t, cfg).records
        _check_units_independent(monkeypatch, bench._fold_group, t, cfg, axes, records)
    assert len(records) == 2 * 2 * 2 * 6
    assert np.isnan([r.auroc for r in records]).any()  # compared NaN-aware


@pytest.mark.usefixtures("small_batches")
def test_predict_units_are_independent(monkeypatch):
    t = labelled_table()
    cfg = ExperimentConfig(
        methods=["knn", "naa", "igain"], folds=3, repeats=2, seed=4, forest_trees=5,
        method_overrides={m: {"epochs": 2} for m in ("naa", "igain")},
    )
    records = run_post_imputation(t, cfg).f1_records
    assert len(records) == 2 * 3 * 3
    axes = (range(cfg.repeats), cfg.methods)
    _check_units_independent(monkeypatch, bench._predict_unit, t, cfg, axes, records)


@pytest.mark.usefixtures("small_batches")
def test_one_fold_completion_per_fold_group(monkeypatch):
    calls = record_knn_inputs(monkeypatch)
    folds = []  # the normalized training fold of every deep fit
    train_fold = deep_imputers._DeepImputer._train

    def recording_train(self, train, *args):
        folds.append(normalize(train.values, fit_normalizer(train)).tobytes())
        return train_fold(self, train, *args)

    monkeypatch.setattr(deep_imputers._DeepImputer, "_train", recording_train)
    cfg = ExperimentConfig(
        methods=DEEP, rates=(0.2, 0.4), folds=2, repeats=1, seed=2,
        method_overrides={m: {"epochs": 2} for m in DEEP},
    )
    run_imputation_experiment(small_table(n=80), cfg)
    assert len(folds) == 4 * 4 and len(set(folds)) == 4
    # each of the 4 fold groups completes its fold once, for all 4 methods
    completions = [(k, data) for k, data in calls if data in folds]
    assert sorted(completions) == sorted((5, fold) for fold in set(folds))


def _track(calls: list, fn):
    """`fn`, keeping a weak reference to each result in `calls`."""
    def tracked(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(weakref.ref(result))
        return result
    return tracked


def test_a_fold_group_frees_its_corruption_and_each_imputation(monkeypatch):
    corrupted, imputed, cells = [], [], []
    monkeypatch.setattr(bench, "inject_mcar", _track(corrupted, bench.inject_mcar))
    monkeypatch.setattr(bench, "_impute", _track(imputed, bench._impute))
    make_imputer = bench.make_imputer

    def checking_make_imputer(*args, **kwargs):
        # the unit's corrupted table is split, and every earlier cell scored
        assert [ref() for ref in corrupted + imputed] == [None] * (len(corrupted) + len(imputed))
        cells.append(len(corrupted))
        return make_imputer(*args, **kwargs)

    monkeypatch.setattr(bench, "make_imputer", checking_make_imputer)
    cfg = ExperimentConfig(methods=["simple", "knn"], rates=(0.2,), folds=2, repeats=1)
    run_imputation_experiment(small_table(n=80), cfg)
    assert cells == [0, 0, 1, 1, 2, 2]  # two up-front checks, then 2 units x 2 cells
    assert len(imputed) == 4


def test_a_predict_unit_frees_its_corruption_before_the_cv(monkeypatch):
    corrupted, checked = [], []
    monkeypatch.setattr(bench, "inject_mcar", _track(corrupted, bench.inject_mcar))
    cv = bench.predict_cv

    def checking_predict_cv(table, *args):
        assert [ref() for ref in corrupted] == [None] * len(corrupted)
        checked.append(table)
        return cv(table, *args)

    monkeypatch.setattr(bench, "predict_cv", checking_predict_cv)
    cfg = ExperimentConfig(methods=["simple"], folds=3, repeats=2, forest_trees=3)
    run_post_imputation(labelled_table(), cfg)
    assert len(checked) == len(corrupted) == 2


class RecordingImputer(Imputer):
    """Test double that logs the tables it sees and delegates to Simple."""

    name = "recording"
    fit_tables = []
    impute_tables = []

    def __init__(self, schema, seed=0):
        super().__init__(schema, seed)
        self._inner = SimpleImputer(schema, seed)

    def fit(self, train):
        RecordingImputer.fit_tables.append(train)
        self._inner.fit(train)
        return self

    def impute(self, target) -> ImputationResult:
        RecordingImputer.impute_tables.append(target)
        return self._inner.impute(target)


@pytest.fixture
def recording(monkeypatch):
    """Registers "recording" for one test, with empty logs."""
    monkeypatch.setitem(
        registry._FACTORIES, "recording", lambda schema, seed, **kw: RecordingImputer(schema, seed)
    )
    RecordingImputer.fit_tables.clear()
    RecordingImputer.impute_tables.clear()


@pytest.mark.usefixtures("recording")
def test_no_ground_truth_leak_and_per_fold_fitting():
    t = small_table(n=45)
    cfg = ExperimentConfig(methods=["recording"], rates=(0.3,), folds=3, repeats=1, seed=3)
    with pytest.warns(UserWarning, match="AUROC undefined"):
        run_imputation_experiment(t, cfg)
    assert len(RecordingImputer.fit_tables) == 3  # one fit per fold
    n = t.n_rows
    for train_tbl, test_tbl in zip(
        RecordingImputer.fit_tables, RecordingImputer.impute_tables
    ):
        # fit sees only the corrupted training folds, impute the corrupted rest
        assert train_tbl.n_rows + test_tbl.n_rows == n
        assert np.isnan(train_tbl.values).any()
        assert np.isnan(test_tbl.values).any()
        # corruption rate is exact over the full table
        total_missing = (
            np.isnan(train_tbl.values).sum() + np.isnan(test_tbl.values).sum()
        )
        assert total_missing == round(0.3 * n) * t.n_cols


def test_knn_beats_simple_on_correlated_data():
    schema = mixed_schema(2, 0)
    corr = np.array([[1.0, 0.9], [0.9, 1.0]])
    t = generate_synthetic(
        SyntheticSpec(schema, corr, numeric_ranges={"n0": (0, 1), "n1": (0, 1)}),
        300,
        seed=7,
    )
    cfg = ExperimentConfig(methods=["simple", "knn"], rates=(0.2,), folds=3, repeats=2, seed=4)
    with pytest.warns(UserWarning, match="AUROC undefined"):  # no categorical column
        report = run_imputation_experiment(t, cfg)
    agg = {a["method"]: a for a in report.aggregate()}
    assert agg["knn"]["rmse_mean"] < agg["simple"]["rmse_mean"]


def labelled_table(n=120, seed=11):
    schema = mixed_schema(3, 1, label="c0")
    corr = np.full((4, 4), 0.4)
    np.fill_diagonal(corr, 1.0)
    return generate_synthetic(
        SyntheticSpec(
            schema,
            corr,
            numeric_ranges={f"n{i}": (0, 100) for i in range(3)},
            prevalence={"c0": 0.3},
        ),
        n,
        seed=seed,
    )


def predict_config(**fields):
    return ExperimentConfig(methods=["simple"], folds=3, **fields)


def test_predict_cv_basics():
    t = labelled_table()
    scores = predict_cv(t, 1, predict_config(forest_trees=20))
    assert len(scores) == 3
    assert all(0.0 <= s <= 1.0 for s in scores)
    again = predict_cv(t, 1, predict_config(forest_trees=20))
    assert scores == again


def test_each_fold_forest_is_freed_before_the_next_grows(monkeypatch):
    # a fold's forest is never assembled: each tree block (one tree here)
    # predicts the test fold and is freed before the next block grows
    blocks = []

    def checking_grow(*args):
        assert [ref() for ref in blocks] == [None] * len(blocks), f"block {len(blocks)}"
        return grow(*args)

    grow = forest._grow
    monkeypatch.setattr(forest, "_grow", _track(blocks, checking_grow))
    monkeypatch.setattr(forest, "_FOREST_BLOCK", 200)
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    for assembled in ("fit_forest", "fit_forests", "predict_forest"):
        monkeypatch.setattr(forest, assembled, None)
    predict_cv(labelled_table(), 1, predict_config(forest_trees=3))
    assert len(blocks) == 9  # 3 folds x 3 one-tree blocks


def test_a_fold_forest_is_never_held_whole(monkeypatch):
    # serial, on the perfbench predict workload's 1,000-row table: 100 trees
    # per fold on about 1,100 SMOTE-balanced rows. With each fold's forest
    # assembled before it predicted, the call's traced peak was 5.77 MiB;
    # with each tree block predicting the test fold and freed, 4.70 MiB;
    # with the split search's one running-sum buffer and in-place Gini
    # terms, 3.87 MiB; with the segment ends no longer held through the
    # running sums and the sort keys and count-path indices built in place,
    # 3.68 MiB (numpy 2.4, CPython 3.11). The bound lies midway between the
    # last two.
    table = complete_subset(generate_synthetic(default_synthetic_spec(), 1000, 3))
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    tracemalloc.start()
    try:
        predict_cv(table, 5, ExperimentConfig(methods=["simple"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 3.78


def test_missforest_regression_forests_split_two_valued_columns_by_counts(monkeypatch):
    # serial, shaped like the perfbench missforest workload: 150 rows, 16
    # trees, 2 sweeps, 30 % missing. With every regression column sorted
    # and fitted nodes in int64 arrays, the call's traced peak was 2.88 MiB;
    # with two-valued regression columns scored from counts, the variance
    # terms formed in place, the boundaries' sizes and offsets gathered once
    # the prefix sums are freed and narrow node arrays, 2.37 MiB (numpy 2.4,
    # CPython 3.11). The bound lies midway.
    table = complete_subset(generate_synthetic(default_synthetic_spec(), 150, 5))
    config = ExperimentConfig(
        ["missforest"], rates=(0.3,), repeats=1,
        method_overrides={"missforest": {"n_trees": 16, "max_iter": 2}},
    )
    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: False)
    tracemalloc.start()
    try:
        run_imputation_experiment(table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 2.62


def test_a_fold_with_no_positive_anywhere_records_nan(monkeypatch):
    # a forest that predicts no positive scores F1 0 on a fold with positive
    # labels; on a fold without any, F1 is 0/0 and recorded as NaN
    t = labelled_table()
    values = t.values.copy()
    values[assign_folds(t.n_rows, 3, derive_seed(1, "predict-folds")) == 0, 3] = 0.0  # c0
    t = MixedTable(t.schema, values)

    def no_positive(X, y, X_eval, *args):
        return np.zeros(len(X_eval))

    monkeypatch.setattr(forest, "fit_predict_forest", no_positive)
    message = r"^F1 undefined \(F1 needs a positive label or prediction\); recorded as NaN$"
    with pytest.warns(UserWarning, match=message):
        scores = predict_cv(t, 1, predict_config())
    assert np.isnan(scores[0]) and scores[1:] == [0.0, 0.0]


def test_predict_cv_requires_label():
    t = small_table()
    with pytest.raises(ValueError, match="label"):
        predict_cv(t, 0, predict_config())


@pytest.mark.parametrize("kind", ["three-valued", "continuous"])
@pytest.mark.usefixtures("recording")
def test_label_must_be_0_or_1(kind):
    t = labelled_table()
    values = t.values.copy()
    label = values[:, 2]  # n2, a numerical column made the label
    if kind == "three-valued":
        label[:] = np.arange(t.n_rows) % 3
    label[0] = np.nan  # a missing label drops its row, not the run
    row = 2 if kind == "three-valued" else 1
    t = MixedTable(mixed_schema(3, 1, label="n2"), values)
    message = re.escape(f"label column 'n2' must hold 0 or 1; row {row + 1} is {label[row]}")
    cfg = ExperimentConfig(methods=["recording"], folds=3, repeats=1, forest_trees=3)
    with pytest.raises(ValueError, match=message):
        run_post_imputation(t, cfg)
    assert RecordingImputer.fit_tables == []
    with pytest.raises(ValueError, match=message):
        predict_cv(t, 0, predict_config())


@pytest.mark.parametrize(
    "positives, reason",
    [(0, "SMOTE needs both classes present"), (1, "need at least 2 minority samples for SMOTE")],
)
def test_predict_cv_names_label_and_fold_smote_cannot_balance(positives, reason):
    values = np.column_stack([make_rng(1).uniform(0, 1, (30, 3)), np.zeros(30)])
    values[:positives, 3] = 1.0
    t = MixedTable(mixed_schema(3, 1, label="c0"), values)
    message = re.escape(f"label column 'c0', training rows of fold 0: {reason}")
    with pytest.raises(ValueError, match=message):
        predict_cv(t, 0, predict_config(forest_trees=3))


def test_predict_cv_strong_signal_scores_high():
    schema = mixed_schema(2, 1, label="c0")
    rng = make_rng(13)
    x = rng.uniform(0, 1, size=(300, 2))
    label = (x[:, 0] + x[:, 1] > 1.2).astype(float)  # ~minority positive class
    t = MixedTable(schema, np.column_stack([x, label]))
    scores = predict_cv(t, 2, predict_config(forest_trees=50))
    assert np.mean(scores) > 0.8


@pytest.mark.usefixtures("recording")
def test_post_imputation_counts_and_label_protected():
    t = labelled_table()
    cfg = ExperimentConfig(
        methods=["recording"], folds=3, repeats=2, seed=5, forest_trees=10, post_rate=0.2
    )
    report = run_post_imputation(t, cfg)
    assert len(report.f1_records) == 2 * 3  # repeats x folds
    label_j = t.schema.index_of(t.schema.label)
    for tbl in RecordingImputer.fit_tables:
        assert not np.isnan(tbl.values[:, label_j]).any()
        assert np.isnan(np.delete(tbl.values, label_j, axis=1)).any()


@pytest.mark.usefixtures("recording")
def test_post_imputation_checks_methods_before_any_work():
    cfg = ExperimentConfig(methods=["recording", "knnn"], folds=3, repeats=1, forest_trees=3)
    with pytest.raises(ValueError, match="knnn"):
        run_post_imputation(labelled_table(), cfg)
    assert RecordingImputer.fit_tables == []


@pytest.mark.parametrize("k", [0, 2.5, 5])
@pytest.mark.usefixtures("recording")
def test_bad_knn_k_fails_before_any_work(k):
    # k is a constant: any k override is an unknown setting
    cfg = ExperimentConfig(
        methods=["recording", "knn"], folds=3, repeats=1, method_overrides={"knn": {"k": k}}
    )
    with pytest.raises(ValueError, match=r"'knn' \(KnnImputer\) has no setting 'k'"):
        run_imputation_experiment(small_table(), cfg)
    assert RecordingImputer.fit_tables == []


def test_post_imputation_information_loss_oracle():
    """Clean-data CV F1 should not trail far behind imputed-data CV F1."""
    t = labelled_table(n=150, seed=17)
    clean = np.mean(predict_cv(t, 3, predict_config(forest_trees=20)))
    cfg = ExperimentConfig(
        methods=["simple"], folds=3, repeats=1, seed=6, forest_trees=20, post_rate=0.4
    )
    report = run_post_imputation(t, cfg)
    imputed = np.mean([r.f1 for r in report.f1_records])
    assert imputed <= clean + 0.15


def test_report_json_round_trip(tmp_path):
    t = small_table()
    cfg = ExperimentConfig(methods=["simple"], rates=(0.2,), folds=3, repeats=1, seed=7)
    report = run_imputation_experiment(t, cfg)
    path = tmp_path / "report.json"
    report.to_json(path)
    loaded = MetricsReport.from_json(path)
    assert loaded.records == report.records
    assert loaded.config == report.config


def _report_doc():
    """A report.json document with four run records and one F1 record."""
    records = [
        {"method": "knn", "rate": 0.2, "repeat": 0, "fold": fold, "rmse": 0.1, "auroc": None}
        for fold in range(4)
    ]
    f1_records = [{"method": "knn", "rate": 0.2, "repeat": 0, "fold": 0, "f1": 0.5}]
    return {"config": {}, "records": records, "f1_records": f1_records}


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("records", "method", 3),
        ("records", "rate", "0.2"),
        ("records", "rate", True),
        ("records", "rate", None),
        ("records", "repeat", 1.0),
        ("records", "repeat", True),
        ("records", "fold", "0"),
        ("records", "fold", False),
        ("records", "rmse", "0.1"),
        ("records", "auroc", True),
        ("f1_records", "f1", [0.5]),
    ],
)
def test_report_record_of_the_wrong_type_is_a_named_error(tmp_path, key, field, value):
    doc = _report_doc()
    doc[key][-1][field] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    named = f"report {path}, {key}[{len(doc[key]) - 1}]: field {field!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        MetricsReport.from_json(path)


def test_report_record_with_an_unknown_field_is_named_as_unknown(tmp_path):
    # the field type check leaves a field the record lacks to the record
    doc = _report_doc()
    doc["records"][0]["note"] = "x"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"records\[0\]: .*unexpected keyword argument 'note'"):
        MetricsReport.from_json(path)


def test_report_record_types_that_load(tmp_path):
    # an int rate or metric is a number; a null metric is undefined
    doc = _report_doc()
    doc["records"][0].update(rate=1, rmse=0, auroc=1)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    loaded = MetricsReport.from_json(path)
    assert loaded.records[0] == RunRecord("knn", 1, 0, 0, 0, 1)
    assert np.isnan(loaded.records[1].auroc)


def test_emit_report_files(tmp_path):
    t = labelled_table()
    cfg = ExperimentConfig(
        methods=["simple"], rates=(0.2,), folds=3, repeats=1, seed=8, forest_trees=10
    )
    rep = run_imputation_experiment(t, cfg)
    rep.f1_records = run_post_imputation(t, cfg).f1_records
    written = emit_report(rep, tmp_path / "out")
    names = sorted(p.split("/")[-1] for p in map(str, written))
    assert names == [
        "aggregate.csv",
        "details.csv",
        "f1.csv",
        "f1_details.csv",
        "series_auroc.csv",
        "series_rmse.csv",
    ]
    headers = {
        "details.csv": "method,rate,repeat,fold,rmse,auroc",
        "aggregate.csv": "method,rate,n_runs,rmse_mean,rmse_std,auroc_mean,auroc_std",
        "series_rmse.csv": "rate,simple",
        "series_auroc.csv": "rate,simple",
        "f1_details.csv": "method,rate,repeat,fold,f1",
        "f1.csv": "method,rate,n_runs,f1_mean,f1_std",
    }
    for name, header in headers.items():
        assert (tmp_path / "out" / name).read_text().splitlines()[0] == header, name
    lines = (tmp_path / "out" / "details.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + folds x repeats
    series = (tmp_path / "out" / "series_rmse.csv").read_text().splitlines()
    assert len(series) == 2
