import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imputebench.cli import default_synthetic_spec, main
from imputebench.tabular import FRAMINGHAM_SCHEMA, load_csv

from conftest import mixed_schema, write_schema_file

SRC = str(Path(__file__).resolve().parent.parent / "src")
RECIPE = Path(__file__).with_name("same_bytes_recipe.json")


@pytest.fixture
def small_schema_file(tmp_path):
    schema = mixed_schema(2, 1, label="c0")
    path = tmp_path / "schema.json"
    write_schema_file(path, schema)
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


def test_impute_a_one_row_table(tmp_path, capsys):
    synth = tmp_path / "one.csv"
    assert main(["synth", "--rows", "1", "--out", str(synth)]) == 0
    for method in ("simple", "knn", "missforest", "naa", "inaa", "gain", "igain"):
        out = tmp_path / f"{method}.csv"
        code = main(["impute", "--method", method, "--input", str(synth), "--out", str(out)])
        err = capsys.readouterr().err
        if method == "igain":  # batch norm trains on two rows or more
            assert code == 1 and not out.exists()
            assert err == "error: igain needs at least 2 training rows, got 1\n"
        else:
            assert code == 0 and err == "", method
            assert out.read_text() == synth.read_text()


def test_error_rows_count_data_rows_from_1(tmp_path, capsys):
    synth = tmp_path / "data.csv"
    assert main(["synth", "--rows", "40", "--out", str(synth)]) == 0
    header, *rows = synth.read_text().splitlines()
    sex, totchol = header.split(",").index("Sex"), header.split(",").index("Totchol")

    def run_with(row, column, text):
        cells = rows[row].split(",")
        cells[column] = text
        edited = tmp_path / "edited.csv"
        lines = [header, *rows[:row], ",".join(cells), *rows[row + 1 :]]
        edited.write_text("\n".join(lines) + "\n")
        outs = ["--out", str(tmp_path / "o.csv"), "--out-mask", str(tmp_path / "m.csv")]
        assert main(["inject", "--input", str(edited), "--rate", "0.2", *outs]) == 1
        return capsys.readouterr().err

    assert "non-binary value 2.0 at row 1\n" in run_with(0, sex, "2")
    assert "row 1, column 'Totchol': cannot parse 'abc'" in run_with(0, totchol, "abc")
    assert "row 2, column 'Totchol': cannot parse 'abc'" in run_with(1, totchol, "abc")
    assert "row 2, column 'Totchol' is missing\n" in run_with(1, totchol, "")


def test_inject_exclude_label(tmp_path, capsys, small_schema_file):
    schema, schema_path = small_schema_file
    synth = tmp_path / "data.csv"
    main(["synth", "--rows", "30", "--out", str(synth), "--schema", schema_path])
    holes = tmp_path / "holes.csv"
    flags = ["--input", str(synth), "--rate", "0.3", "--exclude-label", "--out", str(holes),
             "--out-mask", str(tmp_path / "m.csv")]
    assert main(["inject", "--schema", schema_path, *flags]) == 0
    corrupted = load_csv(str(holes), schema)
    assert not np.isnan(corrupted.values[:, schema.index_of(schema.label)]).any()
    holes.unlink()
    # a schema without a label: the flag is an error, not a corruption of every column
    unlabelled = tmp_path / "unlabelled.json"
    write_schema_file(unlabelled, mixed_schema(2, 1))
    capsys.readouterr()
    assert main(["inject", "--schema", str(unlabelled), *flags]) == 1
    assert capsys.readouterr().err == (
        "error: inject --exclude-label: the schema designates no label column\n"
    )
    assert not holes.exists()


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


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"config": {}, "f1_records": []}, "has no 'records' list"),
        (
            {"config": {}, "records": [{"method": "knn", "rate": 0.2}], "f1_records": []},
            "records[0]: ",
        ),
        (
            {
                "config": {},
                "records": [
                    {"method": "knn", "rate": "0.2", "repeat": 0, "fold": 0, "rmse": 0.1,
                     "auroc": None}
                ],
                "f1_records": [],
            },
            "records[0]: field 'rate'",
        ),
        # json.dumps writes NaN, Infinity and -Infinity, which to_json never does
        *(
            (
                {
                    "config": {},
                    "records": [
                        {"method": "knn", "rate": 0.2, "repeat": 0, "fold": 0, "rmse": value,
                         "auroc": 0.5}
                    ],
                    "f1_records": [],
                },
                f"holds {json.dumps(value)}, which is not strict JSON",
            )
            for value in (float("nan"), float("inf"), float("-inf"))
        ),
        # a second record of one (method, rate, repeat, fold) would be counted twice
        (
            {
                "config": {},
                "records": [
                    {"method": "knn", "rate": 0.2, "repeat": 0, "fold": f, "rmse": 0.1,
                     "auroc": None}
                    for f in (0, 1, 0)
                ],
                "f1_records": [],
            },
            "records[2] repeats records[0]: method 'knn', rate 0.2, repeat 0, fold 0",
        ),
        (
            {
                "config": {},
                "records": [],
                "f1_records": [
                    {"method": "simple", "rate": 0.0, "repeat": r, "fold": 1, "f1": 0.5}
                    for r in (0, 1, 1)
                ],
            },
            "f1_records[2] repeats f1_records[1]: method 'simple', rate 0.0, repeat 1, fold 1",
        ),
    ],
    ids=[
        "no-records", "record-missing-fields", "record-rate-a-string",
        "record-rmse-nan", "record-rmse-infinity", "record-rmse-minus-infinity",
        "record-repeated", "f1-record-repeated",
    ],
)
def test_report_on_a_malformed_file_is_a_named_error(tmp_path, capsys, doc, named):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--report", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {path}")
    assert named in err


def test_report_missing_a_method_at_a_rate_is_a_named_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    flags = ["--methods", "simple,knn", "--rates", "0.2,0.4", "--folds", "2", "--repeats", "1"]
    assert main(["bench", "--synthetic", "40", *flags, "--out-dir", str(run_dir)]) == 0
    doc = json.loads((run_dir / "report.json").read_text())
    doc["records"] = [r for r in doc["records"] if (r["method"], r["rate"]) != ("knn", 0.4)]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["report", "--report", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: report {path} has no record of method 'knn' at rate 0.4\n"
    )
    assert not out_dir.exists()


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


@pytest.mark.parametrize("named", [None, "elsewhere.csv", "the input"])
def test_config_file_keeps_the_input_path(tmp_path, capsys, small_schema_file, named):
    """report.json records the --input path; a config may repeat it but not name another file."""
    _, schema_path = small_schema_file
    data = tmp_path / "data.csv"
    main(["synth", "--rows", "80", "--seed", "2", "--out", str(data), "--schema", schema_path])
    cfg = {"methods": ["simple"], "rates": [0.2], "folds": 2, "repeats": 1}
    if named:
        cfg["dataset"] = str(data) if named == "the input" else named
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = main(
        [
            "bench", "--schema", schema_path, "--input", str(data),
            "--config", str(cfg_path), "--out-dir", str(out_dir),
        ]
    )
    if named == "elsewhere.csv":
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config file {cfg_path} ") and "'dataset'" in err
        assert named in err and str(data) in err
        assert not out_dir.exists()
        return
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["config"]["dataset"] == str(data)


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


def test_protocol_flags_are_not_abbreviated_or_ignored(tmp_path, capsys, small_schema_file):
    """`predict --rates` and the prefix `bench --rate` are refused, not ignored or expanded."""
    _, schema_path = small_schema_file
    for command, flag in (("predict", "--rates"), ("bench", "--rate")):
        out_dir = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command, "--schema", schema_path, "--synthetic", "60", "--methods", "simple",
                    "--folds", "2", "--repeats", "1", flag, "0.5", "--out-dir", str(out_dir),
                ]
            )
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
        assert not out_dir.exists()


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

    out_dir = tmp_path / "r"
    code = main(
        [
            "bench", "--schema", schema_path, "--synthetic", "30", "--methods", "simple",
            "--rates", "0.2,", "--out-dir", str(out_dir),
        ]
    )
    assert code == 1
    assert "error: --rates entry '' of '0.2,' is not a number" in capsys.readouterr().err
    assert not out_dir.exists()

    out = tmp_path / "holes.csv"
    for rate in ("1.5", "0", "nan"):
        code = main(
            [
                "inject", "--schema", schema_path, "--input", str(tmp_path / "missing.csv"),
                "--rate", rate, "--out", str(out), "--out-mask", str(tmp_path / "m.csv"),
            ]
        )
        assert code == 1  # the flag is checked before the input is read
        named = f"error: inject --rate must be in (0, 1), got {float(rate)}\n"
        assert capsys.readouterr().err == named
        assert not out.exists()


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"methods": ["knn"], "method_overrides": {"knn": {"kk": 3}}}, ("'knn'", "KnnImputer", "'kk'")),
        ({"methods": ["simple"], "fold": 3}, ("'fold'",)),
        ({"methods": ["naa"], "method_overrides": {"naa": {"variant": "inaa"}}}, ("'naa'", "'variant'")),
        (
            {"methods": ["inaa"], "method_overrides": {"inaa": {"rotation": {"period": 5}}}},
            ("'inaa'", "'rotation'"),
        ),
        # settings the protocol fixes, refused even at their old defaults
        ({"methods": ["simple"], "auroc_average": "macro"}, ("'auroc_average'",)),
        ({"methods": ["simple"], "forest_max_depth": None}, ("'forest_max_depth'",)),
        ({"methods": ["simple"], "smote_k": 5}, ("'smote_k'",)),
        # method settings the protocol fixes, refused even at their old values
        (
            {"methods": ["missforest"], "method_overrides": {"missforest": {"max_depth": 8}}},
            ("'missforest'", "'max_depth'"),
        ),
        ({"methods": ["naa"], "method_overrides": {"naa": {"batch_size": 64}}}, ("'naa'", "'batch_size'")),
        ({"methods": ["gain"], "method_overrides": {"gain": {"alpha": 5}}}, ("'gain'", "'alpha'")),
        ({"methods": ["knn"], "method_overrides": {"knn": {"k": 5}}}, ("'knn'", "KnnImputer", "'k'")),
        # a setting that is not an int, refused before the first cell
        ({"methods": ["naa"], "method_overrides": {"naa": {"epochs": 2.5}}}, ("'naa'", "epochs")),
        (
            {"methods": ["missforest"], "method_overrides": {"missforest": {"n_trees": 2.5}}},
            ("'missforest'", "n_trees"),
        ),
        (
            {"methods": ["missforest"], "method_overrides": {"missforest": {"max_iter": True}}},
            ("'missforest'", "max_iter"),
        ),
        # config fields of the wrong type
        ({"methods": ["simple"], "rates": 0.2}, ("rates must",)),
        ({"methods": ["simple"], "folds": "5"}, ("folds must",)),
        ({"methods": ["simple"], "repeats": 1.5}, ("repeats must",)),
        ({"methods": ["simple"], "repeats": True}, ("repeats must",)),
        ({"methods": ["simple"], "forest_trees": 2.5}, ("forest_trees must",)),
        ({"methods": "knn"}, ("methods must", "'knn'")),
        ({"methods": ["knn"], "method_overrides": {"knn": 3}}, ("method_overrides must",)),
        ([1, 2], ("must hold a JSON object",)),
        # a plan axis longer than a C ssize_t, refused before the plan is built
        ({"methods": ["simple"], "folds": 10**19}, (f"folds must be <= {sys.maxsize}",)),
        ({"methods": ["simple"], "repeats": 10**19}, (f"repeats must be <= {sys.maxsize}",)),
    ],
)
def test_bad_config_is_a_named_error(tmp_path, capsys, small_schema_file, cfg, named):
    _, schema_path = small_schema_file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("bench", "predict"):
        out_dir = tmp_path / f"out-{command}"
        code = main(
            [
                command, "--schema", schema_path, "--synthetic", "30",
                "--config", str(cfg_path), "--out-dir", str(out_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for text in named:
            assert text in err
        assert not out_dir.exists()


def test_config_refuses_protocol_flags(tmp_path, capsys, small_schema_file):
    _, schema_path = small_schema_file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"methods": ["simple"], "rates": [0.2]}))
    flags = ["--methods", "knn", "--rates", "0.4", "--folds", "3", "--repeats", "2"]
    out_dir = tmp_path / "out"
    code = main(
        [
            "bench", "--schema", schema_path, "--synthetic", "30", "--seed", "4",
            "--config", str(cfg_path), *flags, "--out-dir", str(out_dir),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for flag in flags[::2]:
        assert flag in err
    assert not out_dir.exists()


# each JSON input: the kind its errors start with, and the command lines
# that read a file of it from `path` and write under the directory `out`
JSON_INPUTS = {
    "report": ("report", lambda path, out: [["report", "--report", path, "--out-dir", f"{out}/r"]]),
    "schema": (
        "schema file",
        lambda path, out: [["synth", "--rows", "5", "--schema", path, "--out", f"{out}/t.csv"]],
    ),
    "config": (
        "--config file",
        lambda path, out: [
            [command, "--synthetic", "60", "--config", path, "--out-dir", f"{out}/{command}"]
            for command in ("bench", "predict")
        ],
    ),
}

# a truncated file, bytes that are not UTF-8, a JSON list, a NaN token, a
# repeated key and number literals that overflow a float (integers of 401
# digits and of more than int() reads), each with the text its error names
NOT_JSON_OBJECTS = {
    "truncated": (b'{"config": {}, "records": [', "is not JSON: "),
    "not-utf8": (b"\xff\xfe{}", "is not JSON: "),
    "list": (b"[1, 2]", "must hold a JSON object, not a list"),
    "nan": (b'{"seed": NaN}', "holds NaN, which is not strict JSON"),
    # json alone keeps the last value: a config would run 2 folds
    "repeated-key": (
        b'{"methods": ["simple"], "folds": 3, "folds": 2}',
        'repeats the key "folds" in one object',
    ),
    "overflow": (b'{"seed": 1e400}', "holds 1e400, which is not a finite number"),
    "int-overflow": (
        b'{"seed": 1' + b"0" * 400 + b"}",
        "holds 100000000000... (401 characters), which is not a finite number",
    ),
    "int-too-long": (
        b'{"seed": -1' + b"0" * 4999 + b"}",
        "holds -10000000000... (5001 characters), which is not a finite number",
    ),
}


@pytest.mark.parametrize(
    "kind, content",
    list(itertools.product(JSON_INPUTS, NOT_JSON_OBJECTS)),
    ids=[f"{k}-{c}" for k, c in itertools.product(JSON_INPUTS, NOT_JSON_OBJECTS)],
)
def test_json_input_that_is_not_a_json_object_is_a_named_error(tmp_path, capsys, kind, content):
    data, named = NOT_JSON_OBJECTS[content]
    path = tmp_path / f"{kind}.json"
    path.write_bytes(data)
    prefix, commands = JSON_INPUTS[kind]
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(str(path), str(out)):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {prefix} {path} {named}")
        assert list(out.iterdir()) == []


def _write_json(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _outputs(root: Path) -> dict:
    """The bytes of every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kind", JSON_INPUTS)
def test_json_input_with_a_byte_order_mark_reads_as_without(tmp_path, kind):
    cfg = {"methods": ["simple"], "rates": [0.2], "folds": 2, "repeats": 1, "forest_trees": 5}
    if kind == "report":
        run = tmp_path / "run"
        assert main(["bench", "--synthetic", "60", "--config", _write_json(tmp_path, cfg),
                     "--out-dir", str(run)]) == 0
        data = (run / "report.json").read_bytes()
    elif kind == "schema":
        data = json.dumps({"columns": [{"name": "a", "kind": "numerical"}]}).encode()
    else:
        data = json.dumps(cfg).encode()
    _, commands = JSON_INPUTS[kind]
    written = {}
    for side, prefix in (("plain", b""), ("bom", "\ufeff".encode())):
        path = tmp_path / side / f"{kind}.json"
        (tmp_path / side / "out").mkdir(parents=True)
        path.write_bytes(prefix + data)
        for argv in commands(str(path), str(tmp_path / side / "out")):
            assert main(argv) == 0
        written[side] = _outputs(tmp_path / side / "out")
    assert written["plain"] and written["bom"] == written["plain"]


def test_synthetic_refuses_an_input_file_and_a_config_dataset(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["synth", "--rows", "40", "--out", str(data)]) == 0
    cfg = _write_json(tmp_path, {"methods": ["simple"], "dataset": "old.csv"})
    for command in ("bench", "predict"):
        out_dir = tmp_path / f"out-{command}"
        flags = ["--synthetic", "40", "--methods", "simple", "--out-dir", str(out_dir)]
        assert main([command, "--input", str(data), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--input" in err and "--synthetic" in err
        assert main([command, "--synthetic", "40", "--config", cfg, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config file {cfg} ") and "'dataset'" in err
        assert not out_dir.exists()
    # alone, --synthetic records no dataset
    out_dir = tmp_path / "out"
    flags = ["--methods", "simple", "--rates", "0.2", "--folds", "2", "--repeats", "1"]
    assert main(["bench", "--synthetic", "40", *flags, "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "report.json").read_text())["config"]["dataset"] is None


def test_a_saved_table_runs_as_the_synthetic_table(tmp_path):
    """`synth` writes every value exactly, so `bench --input` on its file
    gives the same records as `bench --synthetic` on the same rows and seed."""
    data = tmp_path / "d.csv"
    assert main(["synth", "--rows", "300", "--seed", "4", "--out", str(data)]) == 0
    cfg = {
        "methods": ["simple", "missforest"], "rates": [0.3], "folds": 2, "repeats": 1, "seed": 4,
        "method_overrides": {"missforest": {"n_trees": 8, "max_iter": 3}},
    }
    cfg_path = _write_json(tmp_path, cfg)
    for name, source in (("file", ["--input", str(data)]), ("synthetic", ["--synthetic", "300"])):
        argv = ["bench", *source, "--seed", "4", "--config", cfg_path]
        assert main([*argv, "--out-dir", str(tmp_path / name)]) == 0
    details = [(tmp_path / name / "details.csv").read_bytes() for name in ("file", "synthetic")]
    assert details[0] == details[1]


@pytest.mark.parametrize("rows", ["0", "-3"])
def test_row_counts_below_one_name_the_flag(tmp_path, capsys, rows):
    for command in ("bench", "predict"):
        out_dir = tmp_path / f"out-{command}"
        code = main([command, "--synthetic", rows, "--methods", "simple", "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --synthetic must be >= 1, got {rows}\n"
        assert not out_dir.exists()
    out = tmp_path / "synth.csv"
    assert main(["synth", "--rows", rows, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --rows must be >= 1, got {rows}\n"
    assert not out.exists()


def run_python(code, *args):
    """Run `python -c code args` in a fresh interpreter on this checkout's `src/`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, imputebench.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert run_python(code).stdout.strip() == "[]"


def test_bench_without_scipy_writes_the_same_bytes(tmp_path):
    args = ["bench", "--synthetic", "160", "--seed", "3", "--config", str(RECIPE)]
    # a None entry in sys.modules makes every `import scipy` raise ImportError
    no_scipy = (
        "import sys; sys.modules['scipy'] = None; from imputebench.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    run_python(no_scipy, *args, "--out-dir", str(tmp_path / "blocked"))
    assert main([*args, "--out-dir", str(tmp_path / "open")]) == 0
    names = sorted(p.name for p in (tmp_path / "open").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "blocked").iterdir())
    for name in names:
        blocked, open_ = (tmp_path / run / name for run in ("blocked", "open"))
        assert blocked.read_bytes() == open_.read_bytes(), name
