import json

import numpy as np
import pytest

from imputebench.cli import default_synthetic_spec, main
from imputebench.tabular import (
    FRAMINGHAM_SCHEMA,
    load_csv,
    save_schema,
)

from conftest import mixed_schema


@pytest.fixture
def small_schema_file(tmp_path):
    schema = mixed_schema(2, 1, label="c0")
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    return schema, str(path)


def test_default_synthetic_spec_shapes():
    spec = default_synthetic_spec()
    c = FRAMINGHAM_SCHEMA.n_cols
    assert spec.correlation.shape == (c, c)
    assert np.allclose(np.diag(spec.correlation), 1.0)
    assert spec.prevalence["Diabetes"] == 0.04


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = main(["synth", "--rows", "50", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "50x15" in capsys.readouterr().out
    table = load_csv(str(out), FRAMINGHAM_SCHEMA)
    assert table.n_rows == 50
    assert not np.isnan(table.values).any()


def test_synth_inject_impute_round_trip(tmp_path, small_schema_file):
    schema, schema_path = small_schema_file
    synth = tmp_path / "data.csv"
    assert main(["synth", "--rows", "40", "--out", str(synth), "--schema", schema_path]) == 0

    holes = tmp_path / "holes.csv"
    mask_path = tmp_path / "mask.csv"
    assert (
        main(
            [
                "inject", "--schema", schema_path, "--input", str(synth),
                "--rate", "0.2", "--seed", "3",
                "--out", str(holes), "--out-mask", str(mask_path),
            ]
        )
        == 0
    )
    corrupted = load_csv(str(holes), schema)
    assert np.isnan(corrupted.values).sum(axis=0).tolist() == [8, 8, 8]
    mask = np.loadtxt(mask_path, delimiter=",")
    assert np.array_equal(mask == 0, np.isnan(corrupted.values))

    filled = tmp_path / "filled.csv"
    assert (
        main(
            [
                "impute", "--schema", schema_path, "--input", str(holes),
                "--method", "knn", "--out", str(filled),
            ]
        )
        == 0
    )
    result = load_csv(str(filled), schema)
    assert not np.isnan(result.values).any()
    obs = ~np.isnan(corrupted.values)
    assert np.array_equal(result.values[obs], corrupted.values[obs])


def test_inject_exclude_label(tmp_path, small_schema_file):
    schema, schema_path = small_schema_file
    synth = tmp_path / "data.csv"
    main(["synth", "--rows", "30", "--out", str(synth), "--schema", schema_path])
    holes = tmp_path / "holes.csv"
    main(
        [
            "inject", "--schema", schema_path, "--input", str(synth),
            "--rate", "0.3", "--exclude-label",
            "--out", str(holes), "--out-mask", str(tmp_path / "m.csv"),
        ]
    )
    corrupted = load_csv(str(holes), schema)
    assert not np.isnan(corrupted.values[:, schema.label_index]).any()


def test_bench_synthetic_and_report_round_trip(tmp_path, small_schema_file, capsys):
    _, schema_path = small_schema_file
    out_dir = tmp_path / "bench"
    code = main(
        [
            "bench", "--schema", schema_path, "--synthetic", "60",
            "--methods", "simple", "--rates", "0.2", "--folds", "3",
            "--repeats", "1", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "simple" in text and "rate=0.20" in text
    assert (out_dir / "report.json").exists()
    assert (out_dir / "details.csv").exists()

    # re-render tables from the saved report: every table, byte for byte
    render_dir = tmp_path / "render"
    assert (
        main(["report", "--report", str(out_dir / "report.json"), "--out-dir", str(render_dir)])
        == 0
    )
    tables = sorted(p.name for p in out_dir.glob("*.csv"))
    assert tables == [
        "aggregate.csv", "details.csv", "series_auroc.csv", "series_rmse.csv"
    ]
    assert sorted(p.name for p in render_dir.iterdir()) == tables
    for name in tables:
        assert (render_dir / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_bench_config_file(tmp_path, small_schema_file):
    _, schema_path = small_schema_file
    cfg = {"methods": ["simple"], "rates": [0.2], "folds": 3, "repeats": 1, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    with pytest.warns(UserWarning, match="AUROC undefined"):
        code = main(
            [
                "bench", "--schema", schema_path, "--synthetic", "45",
                "--config", str(cfg_path), "--out-dir", str(out_dir),
            ]
        )
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["config"]["seed"] == 5
    assert len(doc["records"]) == 3


@pytest.mark.parametrize("named", [None, "elsewhere.csv"])
def test_config_file_keeps_the_input_path(tmp_path, small_schema_file, named):
    _, schema_path = small_schema_file
    data = tmp_path / "data.csv"
    main(["synth", "--rows", "80", "--seed", "2", "--out", str(data), "--schema", schema_path])
    cfg = {"methods": ["simple"], "rates": [0.2], "folds": 2, "repeats": 1}
    if named:
        cfg["dataset"] = named
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = main(
        [
            "bench", "--schema", schema_path, "--input", str(data),
            "--config", str(cfg_path), "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["config"]["dataset"] == (named or str(data))


def test_predict_subcommand(tmp_path, small_schema_file):
    _, schema_path = small_schema_file
    out_dir = tmp_path / "pred"
    cfg = {
        "methods": ["simple"], "folds": 3, "repeats": 1, "seed": 2, "forest_trees": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(
        [
            "predict", "--schema", schema_path, "--synthetic", "90",
            "--config", str(cfg_path), "--rate", "0.2", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "f1.csv").exists()
    lines = (out_dir / "f1_details.csv").read_text().splitlines()
    assert len(lines) == 1 + 3


def test_predict_rate_is_the_recorded_post_rate(tmp_path, small_schema_file):
    _, schema_path = small_schema_file
    out_dir = tmp_path / "pred"
    cfg_path = tmp_path / "cfg.json"
    cfg = {"methods": ["simple"], "folds": 2, "repeats": 1, "forest_trees": 3}
    cfg_path.write_text(json.dumps(cfg))
    code = main(
        [
            "predict", "--schema", schema_path, "--synthetic", "120",
            "--config", str(cfg_path), "--rate", "0.3", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["config"]["post_rate"] == 0.3
    assert [r["rate"] for r in doc["f1_records"]] == [0.3, 0.3]


def test_error_paths_exit_nonzero(tmp_path, capsys, small_schema_file):
    _, schema_path = small_schema_file
    code = main(
        [
            "impute", "--schema", schema_path, "--input", str(tmp_path / "missing.csv"),
            "--method", "simple", "--out", str(tmp_path / "o.csv"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err

    code = main(
        [
            "bench", "--schema", schema_path,
            "--methods", "simple", "--out-dir", str(tmp_path / "b"),
        ]
    )
    assert code == 1  # neither --input nor --synthetic supplied
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"methods": ["knn"], "method_overrides": {"knn": {"kk": 3}}}, ("'knn'", "'kk'")),
        ({"methods": ["simple"], "fold": 3}, ("'fold'",)),
    ],
)
def test_bad_config_is_a_named_error(tmp_path, capsys, small_schema_file, cfg, named):
    _, schema_path = small_schema_file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(
        [
            "bench", "--schema", schema_path, "--synthetic", "30",
            "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for text in named:
        assert text in err
