"""Command-line interface: synth, inject, impute, bench, predict, report."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bench import (
    ExperimentConfig,
    MetricsReport,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    run_imputation_experiment,
    run_post_imputation,
)
from .missingness import inject_mcar
from .registry import METHOD_NAMES, make_imputer
from .tabular import (
    FRAMINGHAM_SCHEMA,
    MixedTable,
    Schema,
    load_csv,
    load_json_object,
    load_schema,
    save_csv,
)


def default_synthetic_spec(schema: Schema = FRAMINGHAM_SCHEMA) -> SyntheticSpec:
    """AR(1)-correlated latent structure with mild class imbalance."""
    c = schema.n_cols
    idx = np.arange(c)
    corr = 0.4 ** np.abs(idx[:, None] - idx[None, :])
    ranges = {schema.names[j]: (0.0, 100.0) for j in schema.numerical_indices}
    prevalence = {schema.names[j]: 0.3 for j in schema.categorical_indices}
    if "Diabetes" in prevalence:
        prevalence["Diabetes"] = 0.04
    return SyntheticSpec(schema, corr, ranges, prevalence)


def _load_schema_arg(args) -> Schema:
    if getattr(args, "schema", None):
        return load_schema(args.schema)
    return FRAMINGHAM_SCHEMA


def _load_table(args, schema: Schema) -> MixedTable:
    return load_csv(args.input, schema, missing_token=args.missing_token)


def _parse_methods(text) -> list:
    return [m.strip() for m in text.split(",") if m.strip()]


def _parse_rates(text) -> tuple:
    rates = []
    for entry in text.split(","):
        try:
            rates.append(float(entry))
        except ValueError:
            raise ValueError(f"--rates entry {entry!r} of {text!r} is not a number") from None
    return tuple(rates)


# flags that set the protocol; with --config the file alone sets it
_PROTOCOL_FLAGS = ("methods", "rates", "folds", "repeats")


def _build_config(args) -> ExperimentConfig:
    given = {f: getattr(args, f) for f in _PROTOCOL_FLAGS if getattr(args, f, None) is not None}
    if args.config:
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise ValueError(f"{flags} cannot be combined with --config, which sets the protocol")
        doc = load_json_object(args.config, "--config file")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"--config file {args.config} has unknown key(s) {unknown}")
        # report.json records the file the run reads, so a config may only repeat it
        if doc.setdefault("dataset", args.input) != args.input:
            reads = f"--input {args.input}" if args.input else "no file"
            raise ValueError(
                f"--config file {args.config} has 'dataset' {doc['dataset']!r}, "
                f"but the run reads {reads}"
            )
        doc.setdefault("methods", list(METHOD_NAMES))
        return ExperimentConfig(**doc)
    if "rates" in given:
        given["rates"] = _parse_rates(given["rates"])
    methods = _parse_methods(given.pop("methods", "simple,knn"))
    return ExperimentConfig(methods=methods, seed=args.seed, dataset=args.input, **given)


def _synthetic(schema: Schema, flag: str, rows: int, seed: int) -> MixedTable:
    """`rows` synthetic rows; fewer than one is an error naming `flag`."""
    if rows < 1:
        raise ValueError(f"{flag} must be >= 1, got {rows}")
    return generate_synthetic(default_synthetic_spec(schema), rows, seed)


def _dataset_for_bench(args, schema: Schema) -> MixedTable:
    if args.synthetic is not None:
        if args.input:
            raise ValueError("--input cannot be combined with --synthetic, which reads no file")
        return _synthetic(schema, "--synthetic", args.synthetic, args.seed)
    if not args.input:
        raise ValueError("either --input CSV or --synthetic ROWS is required")
    return _load_table(args, schema)


def cmd_synth(args) -> int:
    schema = _load_schema_arg(args)
    table = _synthetic(schema, "--rows", args.rows, args.seed)
    save_csv(table, args.out)
    print(f"wrote {table.n_rows}x{table.n_cols} synthetic table to {args.out}")
    return 0


def cmd_inject(args) -> int:
    if not 0.0 < args.rate < 1.0:
        raise ValueError(f"inject --rate must be in (0, 1), got {args.rate}")
    schema = _load_schema_arg(args)
    if args.exclude_label and schema.label is None:
        raise ValueError("inject --exclude-label: the schema designates no label column")
    table = _load_table(args, schema)
    exclude = [schema.label] if args.exclude_label else []
    corrupted = inject_mcar(table, args.rate, args.seed, exclude=exclude)
    save_csv(corrupted, args.out)
    np.savetxt(args.out_mask, corrupted.mask(), fmt="%d", delimiter=",")
    print(f"corrupted table -> {args.out}; mask -> {args.out_mask}")
    return 0


def cmd_impute(args) -> int:
    schema = _load_schema_arg(args)
    target = _load_table(args, schema)
    train = target
    if args.train:
        train = load_csv(args.train, schema, missing_token=args.missing_token)
    imputer = make_imputer(args.method, schema, args.seed)
    imputer.fit(train)
    result = imputer.impute(target)
    save_csv(result.table, args.out)
    print(f"imputed table ({args.method}) -> {args.out}")
    return 0


# command -> (protocol, its report's summary rows, the metric part of a summary line)
_PROTOCOLS = {
    "bench": (run_imputation_experiment, MetricsReport.aggregate,
              "rmse={rmse_mean:.6f} auroc={auroc_mean:.6f} ({n_runs} runs)"),
    "predict": (run_post_imputation, MetricsReport.f1_aggregate,
                "f1={f1_mean:.6f} ({n_runs} folds)"),
}


def cmd_protocol(args) -> int:
    """Run the `bench` or `predict` protocol, write its report and print a summary."""
    run, summary_rows, metric_format = _PROTOCOLS[args.command]
    config = _build_config(args)
    if getattr(args, "rate", None) is not None:  # predict's --rate
        config = dataclasses.replace(config, post_rate=args.rate)
    schema = _load_schema_arg(args)
    table = _dataset_for_bench(args, schema)
    report = run(table, config)
    files = emit_report(report, args.out_dir)  # creates out_dir
    report.to_json(f"{args.out_dir}/report.json")
    for row in summary_rows(report):
        print(("{method:>12s} rate={rate:.2f} " + metric_format).format_map(row))
    print("wrote: " + ", ".join([f"{args.out_dir}/report.json"] + files))
    return 0


def cmd_report(args) -> int:
    report = MetricsReport.from_json(args.report)
    files = emit_report(report, args.out_dir)
    print("wrote: " + ", ".join(files))
    return 0


def _add_common_io(parser):
    parser.add_argument("--schema", help="schema JSON file (defaults to the 15-feature heart schema)")
    parser.add_argument("--missing-token", default="", help="CSV token denoting a missing cell")
    parser.add_argument("--input", help="input CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imputebench",
        description="Mixed-type missing-data imputation methods and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inject", help="corrupt a CSV with MCAR missingness")
    _add_common_io(p)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--exclude-label", action="store_true")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("impute", help="impute a CSV with one method")
    _add_common_io(p)
    p.add_argument("--method", required=True, choices=sorted(METHOD_NAMES))
    p.add_argument("--train", help="optional separate training CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impute)

    for name in _PROTOCOLS:
        # no prefix matching: `bench --rate` must not run as `--rates`
        p = sub.add_parser(name, help=f"run the {name} protocol", allow_abbrev=False)
        _add_common_io(p)
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument("--synthetic", type=int, metavar="ROWS", help="use a synthetic dataset")
        # unset protocol flags stay None and take the ExperimentConfig defaults
        p.add_argument("--methods")
        if name == "bench":
            p.add_argument("--rates")
        else:  # predict runs at one rate, the config's post_rate
            p.add_argument("--rate", type=float)
        p.add_argument("--folds", type=int)
        p.add_argument("--repeats", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("report", help="render tables/series from a saved report")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
