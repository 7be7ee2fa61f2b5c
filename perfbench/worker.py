"""One fresh interpreter: set up a workload, make its protocol call, report.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only] --out DIR

Prints "ready" once the set-up (import, data generation, complete
subset) is done, so the caller can time set-up from process start. Unless
--setup-only, it then makes the workload's protocol call plus
`emit_report` and prints one JSON line describing the call. run.py starts
it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

from workloads import FOLDS, REPEATS, WORKLOADS


def _config(imputebench, workload, seed):
    return imputebench.ExperimentConfig(
        methods=list(workload.methods),
        rates=(workload.rate,),
        folds=FOLDS,
        repeats=REPEATS,
        seed=seed,
        method_overrides=workload.overrides,
        post_rate=workload.rate,
    )


def _digest(written) -> str:
    names = {"details.csv", "f1_details.csv"}
    h = hashlib.sha256()
    for path in sorted(p for p in written if os.path.basename(p) in names):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _in_unit(value) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _failed_cells(report, workload) -> int:
    """Cells with a missing record or a record out of range."""
    if workload.protocol == "bench":
        good = sum(1 for r in report.records if _in_unit(r.rmse) and _in_unit(r.auroc))
        return workload.cells - min(good, workload.cells)
    per_cell = {}
    for r in report.f1_records:
        per_cell.setdefault((r.repeat, r.method), []).append(_in_unit(r.f1))
    good = sum(1 for oks in per_cell.values() if len(oks) == FOLDS and all(oks))
    return workload.cells - min(good, workload.cells)


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def _environment(imputebench) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "imputebench": imputebench.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import imputebench
    from imputebench import cli

    table = imputebench.complete_subset(
        imputebench.generate_synthetic(cli.default_synthetic_spec(), workload.rows, args.seed)
    )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    config = _config(imputebench, workload, args.seed)
    protocol = (
        imputebench.run_imputation_experiment
        if workload.protocol == "bench"
        else imputebench.run_post_imputation
    )
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    start = time.perf_counter()
    with tracer.span("bench") if tracer else contextlib.nullcontext():
        report = protocol(table, config)
        protocol_end = time.perf_counter()
        written = imputebench.emit_report(report, args.out)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = _failed_cells(report, workload)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cells": workload.cells,
        "digest": _digest(written),
        "problems": [],
    }
    if workload.protocol == "bench":
        result["nrmse_mean"] = _mean(r.rmse for r in report.records)
        result["auroc_mean"] = _mean(r.auroc for r in report.records)
    else:
        result["f1_mean"] = _mean(r.f1 for r in report.f1_records)

    if tracer is not None:
        unpatched = tracer.unpatched_bindings()
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, 0, protocol_end)
        result["layers"] = {
            name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
            for name, value in layers.items()
        }
        if unpatched:
            result["problems"].append(f"unpatched bindings: {unpatched}")
        failed += tracer.counts["impute.check_failed"]
        # the reported self-time metrics plus bench.self_s make up the traced wall
        gap = tracing.unaccounted_s(layers)
        if abs(gap) > 1e-6 * max(1.0, layers["bench.traced_wall_s"]):
            result["problems"].append(f"{gap} s of the traced wall is in no self-time metric")
        unmapped = tracing.unmapped_spans(tracer.spans, 0)
        if unmapped:
            result["problems"].append(f"spans in no self-time metric: {unmapped}")
        if layers["bench.cells"] != workload.cells:
            result["problems"].append(f"traced {layers['bench.cells']} cells, not {workload.cells}")
        with open(os.path.join(args.out, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, s, e, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent}) + "\n")
    elif workload.protocol == "predict":
        # quality probe: nRMSE / AUROC of the same method under the bench
        # protocol on the same table, run after the timed call
        probe = imputebench.run_imputation_experiment(
            table, _config(imputebench, workload, args.seed)
        )
        result["nrmse_mean"] = _mean(r.rmse for r in probe.records)
        result["auroc_mean"] = _mean(r.auroc for r in probe.records)
        result["probe_cells"] = workload.probe_cells
        failed += workload.probe_cells - sum(
            1 for r in probe.records if _in_unit(r.rmse) and _in_unit(r.auroc)
        )

    result["cells_failed"] = min(failed, workload.cells + workload.probe_cells)
    result["env"] = _environment(imputebench)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
