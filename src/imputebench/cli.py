"""Command-line interface: synth, inject, impute, bench, predict, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .bench import (
    DEFAULT_RATES,
    ExperimentConfig,
    MetricsReport,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    run_imputation_experiment,
    run_post_imputation,
)
from .missingness import MissSpec, inject_mcar
from .registry import METHOD_NAMES, make_imputer
from .tabular import (
    FRAMINGHAM_SCHEMA,
    MixedTable,
    Schema,
    load_csv,
    load_schema,
    save_csv,
)


def default_synthetic_spec(schema: Schema = FRAMINGHAM_SCHEMA) -> SyntheticSpec:
    """AR(1)-correlated latent structure with mild class imbalance."""
    c = schema.n_cols
    idx = np.arange(c)
    corr = 0.4 ** np.abs(idx[:, None] - idx[None, :])
    ranges = {col.name: (0.0, 100.0) for col in schema.columns}
    prevalence = {col.name: 0.3 for col in schema.columns}
    if "Diabetes" in schema.names:
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
    return tuple(float(r) for r in text.split(","))


def _build_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown} in {args.config}")
        doc.setdefault("methods", list(METHOD_NAMES))
        doc.setdefault("dataset", args.input)
        if "rates" in doc:
            doc["rates"] = tuple(doc["rates"])
        return ExperimentConfig(**doc)
    return ExperimentConfig(
        methods=_parse_methods(args.methods),
        rates=_parse_rates(args.rates),
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        auroc_average=args.auroc_average,
        dataset=args.input,
    )


def _dataset_for_bench(args, schema: Schema) -> MixedTable:
    if args.synthetic:
        return generate_synthetic(default_synthetic_spec(schema), args.synthetic, args.seed)
    if not args.input:
        raise ValueError("either --input CSV or --synthetic ROWS is required")
    return _load_table(args, schema)


def cmd_synth(args) -> int:
    schema = _load_schema_arg(args)
    table = generate_synthetic(default_synthetic_spec(schema), args.rows, args.seed)
    save_csv(table, args.out)
    print(f"wrote {table.n_rows}x{table.n_cols} synthetic table to {args.out}")
    return 0


def cmd_inject(args) -> int:
    schema = _load_schema_arg(args)
    table = _load_table(args, schema)
    exclude = [schema.label] if args.exclude_label and schema.label else []
    corrupted, mask = inject_mcar(table, MissSpec(args.rate, args.seed), exclude=exclude)
    save_csv(corrupted, args.out)
    np.savetxt(args.out_mask, mask, fmt="%d", delimiter=",")
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


def cmd_bench(args) -> int:
    config = _build_config(args)
    schema = _load_schema_arg(args)
    table = _dataset_for_bench(args, schema)
    report = run_imputation_experiment(table, config)
    report.to_json(f"{args.out_dir}/report.json")
    files = emit_report(report, args.out_dir)
    for row in report.aggregate():
        print(
            f"{row['method']:>12s} rate={row['rate']:.2f} "
            f"rmse={row['rmse_mean']:.6f} auroc={row['auroc_mean']:.6f} "
            f"({row['n_runs']} runs)"
        )
    print("wrote: " + ", ".join([f"{args.out_dir}/report.json"] + files))
    return 0


def cmd_predict(args) -> int:
    config = _build_config(args)
    if args.rate is not None:
        config = dataclasses.replace(config, post_rate=args.rate)
    schema = _load_schema_arg(args)
    table = _dataset_for_bench(args, schema)
    report = run_post_imputation(table, config)
    report.to_json(f"{args.out_dir}/report.json")
    files = emit_report(report, args.out_dir)
    for row in report.f1_aggregate():
        print(
            f"{row['method']:>12s} rate={row['rate']:.2f} "
            f"f1={row['f1_mean']:.6f} ({row['n_runs']} folds)"
        )
    print("wrote: " + ", ".join([f"{args.out_dir}/report.json"] + files))
    return 0


def cmd_report(args) -> int:
    report = MetricsReport.from_json(args.report)
    files = emit_report(report, args.out_dir)
    print("wrote: " + ", ".join(files))
    return 0


def _add_common_io(parser, needs_input=True):
    parser.add_argument("--schema", help="schema JSON file (defaults to the 15-feature heart schema)")
    parser.add_argument("--missing-token", default="", help="CSV token denoting a missing cell")
    if needs_input:
        parser.add_argument("--input", help="input CSV path")


def build_parser() -> argparse.ArgumentParser:
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
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

    for name, func, extra_rate in (("bench", cmd_bench, False), ("predict", cmd_predict, True)):
        p = sub.add_parser(name, help=f"run the {name} protocol")
        _add_common_io(p)
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument("--synthetic", type=int, metavar="ROWS", help="use a synthetic dataset")
        p.add_argument("--methods", default="simple,knn")
        p.add_argument("--rates", default=",".join(map(str, DEFAULT_RATES)))
        for flag in ("folds", "repeats", "seed"):
            p.add_argument(f"--{flag}", type=int, default=defaults[flag])
        p.add_argument(
            "--auroc-average", choices=("macro", "micro"), default=defaults["auroc_average"]
        )
        p.add_argument("--out-dir", required=True)
        if extra_rate:
            p.add_argument("--rate", type=float, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="render tables/series from a saved report")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out_dir", None):
        os.makedirs(args.out_dir, exist_ok=True)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
