"""Tests of the benchmark harness itself (not of imputebench).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import imputebench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from imputebench import cli  # noqa: E402


def _tiny_runs():
    table = imputebench.generate_synthetic(cli.default_synthetic_spec(), 60, 3)
    fast = {m: {"epochs": 2} for m in ("naa", "inaa", "gain", "igain")}
    fast["missforest"] = {"n_trees": 2, "max_iter": 2}
    bench = imputebench.run_imputation_experiment(
        table,
        imputebench.ExperimentConfig(
            methods=list(tracing.METHODS),
            rates=(0.3,),
            folds=2,
            repeats=1,
            seed=5,
            method_overrides=fast,
        ),
    )
    predict = imputebench.run_post_imputation(
        table,
        imputebench.ExperimentConfig(
            methods=["simple"], folds=2, repeats=1, seed=5, forest_trees=3
        ),
    )
    return bench.records, predict.f1_records


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_wrapped_tiny_run_matches_unwrapped():
    plain = _tiny_runs()
    t = tracing.Tracer()
    t.install()
    try:
        with t.span("bench"):
            wrapped = _tiny_runs()
    finally:
        t.uninstall()
    assert wrapped == plain
    assert t.counts["impute.check_failed"] == 0
    metrics = tracing.layer_metrics(t, 0, t.spans[0][2])
    assert set(metrics) | {"bench.trace_overhead_s"} == set(tracing.PER_LAYER)
    assert tracing.unaccounted_s(metrics) == pytest.approx(0.0, abs=1e-9)
    assert tracing.unmapped_spans(t.spans, 0) == []
    names = {s[0] for s in t.spans}
    for name in (
        "knn_fill.holdout", "knn_fill.selfimpute", "preimpute", "nn.forward",
        "forest.fit.regression", "forest.fit.classification", "smote", "metrics.f1",
    ):
        assert name in names
    for method in tracing.METHODS:
        assert f"fit.{method}" in names and f"impute.{method}" in names
    # uninstall restored every original binding
    assert imputebench.imputers.knn_fill is imputebench.deep_imputers.knn_fill
    assert not hasattr(imputebench.imputers.knn_fill, "__wrapped__")


def test_every_listed_binding_is_patched(tracer):
    for fname, modules in tracing.BINDINGS.items():
        for modname in modules:
            bound = getattr(tracing._module(modname), fname)
            assert hasattr(bound, "__wrapped__"), f"{modname}.{fname}"
    for (modname, clsname), methods in tracing.CLASS_METHODS.items():
        cls = getattr(tracing._module(modname), clsname)
        for method in methods:
            assert hasattr(cls.__dict__[method], "__wrapped__"), f"{clsname}.{method}"
    assert tracer.unpatched_bindings() == []


def test_new_unpatched_binding_is_reported(tracer, monkeypatch):
    original = imputebench.imputers.knn_fill.__wrapped__
    monkeypatch.setattr(imputebench.cli, "knn_fill", original, raising=False)
    assert tracer.unpatched_bindings() == ["imputebench.cli.knn_fill"]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 8.0, 0],  # overlaps a on [3, 5]
        ["c", 4.0, 6.0, 1],
        ["d", 9.0, 12.0, 0],  # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 7.0 - 1.0, 4.0 - 1.0, 5.0, 2.0, 3.0])


def _accounting(spans):
    t = tracing.Tracer()
    t.spans = spans
    metrics = tracing.layer_metrics(t, 0, spans[0][2])
    return tracing.unaccounted_s(metrics), tracing.unmapped_spans(spans, 0)


def test_self_time_metrics_account_for_the_traced_wall():
    spans = [
        ["bench", 0.0, 10.0, -1],
        ["make_imputer", 1.0, 1.5, 0],
        ["fit.knn", 1.5, 5.0, 0],
        ["knn_fill.holdout", 2.0, 4.0, 2],
        ["tabular.normalize", 4.0, 4.5, 2],
        ["metrics.f1", 6.0, 7.0, 0],
    ]
    gap, unmapped = _accounting(spans)
    assert gap == pytest.approx(0.0) and unmapped == []
    # a span no self-time metric covers leaves its time unreported
    gap, unmapped = _accounting(spans + [["new.layer", 8.0, 9.5, 0]])
    assert gap == pytest.approx(1.5) and unmapped == ["new.layer"]


def test_cells_split_at_make_imputer_followed_by_fit():
    spans = [
        ["bench", 0.0, 20.0, -1],
        ["make_imputer", 0.5, 0.6, 0],  # config validation: no fit follows
        ["missingness.inject_mcar", 1.0, 1.5, 0],
        ["make_imputer", 2.0, 2.1, 0],
        ["fit.knn", 2.1, 5.0, 0],
        ["make_imputer", 6.0, 6.1, 0],
        ["fit.knn", 6.1, 9.0, 0],
    ]
    assert tracing.cell_durations(spans, 0, 12.0) == pytest.approx([4.0, 6.0])


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, (5.0, 100.0, 0)),  # too few samples: the maximum, nothing beyond
        (19, (19.0, 100.0, 0)),  # p50 has only 9 beyond
        (20, (10.0, 50.0, 10)),
        (99, (50.0, 50.0, 49)),  # p90 has only 9 beyond
        (100, (90.0, 90.0, 10)),
        (1000, (990.0, 99.0, 10)),
        (10000, (9990.0, 99.9, 10)),
    ],
)
def test_tail_percentile_rule(n, expected):
    values = [float(v) for v in range(n, 0, -1)]  # 1..n, unsorted
    assert tracing.tail_percentile(values) == expected


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == tracing.PER_LAYER
    assert list(per_layer) == list(tracing.PER_LAYER)
    assert spec["paths"] == [os.path.basename(BENCH_DIR)]
