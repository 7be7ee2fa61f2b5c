"""Spans around the public functions and methods of each imputebench layer.

A Tracer re-binds every module-level binding of the wrapped functions
(the modules import them by name, so patching the defining module alone
would miss callers) and wraps methods on their classes. Each wrapped call
records a span [name, start, end, parent] in memory; `layer_metrics`
turns the spans and counters into the per-layer metrics of
BENCHMARK.json. Installing changes no result: the wrappers only observe.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "imputebench"
METHODS = ("simple", "knn", "missforest", "naa", "inaa", "gain", "igain")

# function -> modules binding it by name; the first one defines it ("" is the package)
BINDINGS = {
    "knn_fill": ("imputers", "deep_imputers"),
    "normalize": ("tabular", "bench", "imputers", "deep_imputers", "metrics", ""),
    "make_imputer": ("registry", "bench", "cli", ""),
    "smote": ("resample", "bench"),
    "normalized_rmse": ("metrics", "bench"),
    "categorical_auroc": ("metrics", "bench"),
    "f1": ("metrics", "bench"),
    "mixed_loss": ("nn", "deep_imputers"),
    "inject_mcar": ("missingness", "bench", "cli", ""),
    "assign_folds": ("missingness", "bench", ""),
    "fit_forest": ("forest",),
    "predict_forest": ("forest",),
}

# (module, class) -> methods wrapped on the class
CLASS_METHODS = {
    ("imputers", "SimpleImputer"): ("fit", "impute"),
    ("imputers", "KnnImputer"): ("fit", "impute"),
    ("imputers", "MissForestImputer"): ("fit", "impute"),
    ("deep_imputers", "DaeImputer"): ("fit", "impute"),
    ("deep_imputers", "GainImputer"): ("fit", "impute"),
    ("deep_imputers", "RotatingPreimputer"): ("preimpute",),
    ("nn", "Network"): ("forward", "backward"),
    ("nn", "Adam"): ("step",),
}

# name -> (unit, better); the per_layer list of BENCHMARK.json, in order
PER_LAYER = {
    "bench.cells": ("count", "higher"),
    "bench.cell_s.p50": ("s", "lower"),
    "bench.cell_s.tail": ("s", "lower"),
    "bench.cell_s.tail_pct": ("%", "higher"),
    "bench.cell_s.tail_beyond": ("count", "higher"),
    "bench.self_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "imputer.self_s": ("s", "lower"),
    **{f"fit_s.{m}": ("s", "lower") for m in METHODS},
    **{f"impute_s.{m}": ("s", "lower") for m in METHODS},
    "knn_fill.calls": ("count", "lower"),
    "knn_fill.holdout.s": ("s", "lower"),
    "knn_fill.selfimpute.s": ("s", "lower"),
    "knn_fill.pairs": ("count", "lower"),
    "knn_fill.pairs_per_s": ("1/s", "higher"),
    "knn_fill.cells": ("count", "lower"),
    "knn_fill.fallback_ratio": ("1", "lower"),
    "preimpute.calls": ("count", "lower"),
    "preimpute.knn_recomputes": ("count", "lower"),
    "preimpute.s": ("s", "lower"),
    "nn.forward.calls": ("count", "lower"),
    "nn.forward.s": ("s", "lower"),
    "nn.backward.s": ("s", "lower"),
    "nn.adam_step.s": ("s", "lower"),
    "nn.mixed_loss.s": ("s", "lower"),
    "nn.flops": ("count", "lower"),
    "nn.gflops_per_s": ("GFLOP/s", "higher"),
    "forest.fit.calls": ("count", "lower"),
    "forest.fit.classification.s": ("s", "lower"),
    "forest.fit.regression.s": ("s", "lower"),
    "forest.fit.tree_rows": ("count", "lower"),
    "forest.fit.tree_rows_per_s": ("1/s", "higher"),
    "forest.predict.calls": ("count", "lower"),
    "forest.predict.s": ("s", "lower"),
    "forest.predict.row_trees": ("count", "lower"),
    "smote.calls": ("count", "lower"),
    "smote.s": ("s", "lower"),
    "smote.synthetic_rows": ("count", "lower"),
    "metrics.s": ("s", "lower"),
    "metrics.auroc_undefined": ("count", "lower"),
    "missingness.s": ("s", "lower"),
    "tabular.normalize.calls": ("count", "lower"),
    "tabular.normalize.s": ("s", "lower"),
}

# self-time metric -> the span names whose self times it sums. Together with
# bench.self_s (the root span's own time) these cover every span, so they add
# up to bench.traced_wall_s; a span named in none of them is reported.
SELF_TIME_METRICS = {
    "imputer.self_s": (
        "make_imputer", *(f"{phase}.{m}" for phase in ("fit", "impute") for m in METHODS)
    ),
    "knn_fill.holdout.s": ("knn_fill.holdout",),
    "knn_fill.selfimpute.s": ("knn_fill.selfimpute",),
    "preimpute.s": ("preimpute",),
    "nn.forward.s": ("nn.forward",),
    "nn.backward.s": ("nn.backward",),
    "nn.adam_step.s": ("nn.adam_step",),
    "nn.mixed_loss.s": ("nn.mixed_loss",),
    "forest.fit.classification.s": ("forest.fit.classification",),
    "forest.fit.regression.s": ("forest.fit.regression",),
    "forest.predict.s": ("forest.predict",),
    "smote.s": ("smote",),
    "metrics.s": ("metrics.normalized_rmse", "metrics.categorical_auroc", "metrics.f1"),
    "missingness.s": ("missingness.inject_mcar", "missingness.assign_folds"),
    "tabular.normalize.s": ("tabular.normalize",),
}

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}" if name else PACKAGE)


def _import_all_modules() -> None:
    """Import every imputebench module, so the binding scan sees all of them."""
    package = _module("")
    for info in pkgutil.iter_modules(package.__path__):
        _module(info.name)


def _dense_sum(net) -> int:
    """Sum of fan_in x width over a network's dense layers."""
    total, fan_in = 0, net.input_width
    for spec in net.specs:
        total += fan_in * spec.width
        fan_in = spec.width
    return total


class Tracer:
    """Records spans and counters from wrapped imputebench calls."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = [-1]
        self._patches: list = []  # (owner, attribute, original)
        self._originals: dict = {}  # id(original) -> original
        self._rotators: dict = {}  # id -> RotatingPreimputer seen

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def knn_recomputes(self) -> int:
        return sum(r.n_knn_calls for r in self._rotators.values())

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name, after=None, count_error=None):
        """`name` is a string or a function of the call's arguments.

        `after(args, kwargs, result)` updates counters once the span is
        closed; `count_error` is (exception type, counter) for an error
        that is counted and re-raised.
        """
        tracer = self
        naming = callable(name)
        error_type, error_counter = count_error or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name(args, kwargs) if naming else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error_type is not None and isinstance(exc, error_type):
                    tracer.counts[error_counter] += 1
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every binding in BINDINGS and every method in CLASS_METHODS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        _import_all_modules()
        specs = self._function_specs()
        for fname, modules in BINDINGS.items():
            original = getattr(_module(modules[0]), fname, None)
            if original is None:
                continue
            self._originals[id(original)] = original
            wrapper = self._wrap(original, *specs[fname])
            for modname in modules:
                module = _module(modname)
                if module.__dict__.get(fname) is original:
                    self._patch(module, fname, wrapper)
        for (modname, clsname), methods in CLASS_METHODS.items():
            cls = getattr(_module(modname), clsname)
            for method in methods:
                original = cls.__dict__[method]
                self._originals[id(original)] = original
                wrapper = self._wrap(original, *self._method_spec(method))
                self._patch(cls, method, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def unpatched_bindings(self) -> list:
        """Every module global or class attribute still bound to a wrapped original.

        A new `from .x import f` of a wrapped function shows up here.
        """
        found = []
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in vars(module).items():
                if id(value) in self._originals:  # originals are held, so ids stay unique
                    found.append(f"{modname}.{attr}")
                elif inspect.isclass(value) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in self._originals:
                            found.append(f"{modname}.{attr}.{cattr}")
        imputer_base = _module("imputers").Imputer
        wrapped_classes = {clsname for _, clsname in CLASS_METHODS}
        for cls in _subclasses(imputer_base):
            if cls.__module__.startswith(PACKAGE) and cls.__name__ not in wrapped_classes:
                if "fit" in vars(cls) or "impute" in vars(cls):
                    found.append(f"{cls.__module__}.{cls.__name__}")
        return found

    # -- per-call naming and counters ------------------------------------

    def _function_specs(self) -> dict:
        counts = self.counts
        undefined = _module("metrics").UndefinedMetricError
        knn_sig = inspect.signature(_module("imputers").knn_fill)
        fit_sig = inspect.signature(_module("forest").fit_forest)

        def knn_name(args, kwargs):
            bound = knn_sig.bind(*args, **kwargs).arguments
            same = bound["train_norm"] is bound["target_norm"]
            return "knn_fill.selfimpute" if same else "knn_fill.holdout"

        def knn_after(args, kwargs, result):
            bound = knn_sig.bind(*args, **kwargs).arguments
            holes = np.isnan(bound["target_norm"])
            counts["knn_fill.pairs"] += int(holes.any(axis=1).sum()) * bound["train_norm"].shape[0]
            counts["knn_fill.cells"] += int(holes.sum())
            counts["knn_fill.fallbacks"] += int(result[2])

        def fit_name(args, kwargs):
            task = fit_sig.bind(*args, **kwargs).arguments["config"].task
            return f"forest.fit.{task}"

        def fit_after(args, kwargs, result):
            bound = fit_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["forest.fit.tree_rows"] += bound.arguments["n_trees"] * len(bound.arguments["X"])

        def predict_after(args, kwargs, result):
            counts["forest.predict.row_trees"] += len(result) * args[0].n_trees

        def smote_after(args, kwargs, result):
            counts["smote.synthetic_rows"] += len(result[1]) - len(args[1])

        return {
            "knn_fill": (knn_name, knn_after),
            "normalize": ("tabular.normalize",),
            "make_imputer": ("make_imputer",),
            "smote": ("smote", smote_after),
            "normalized_rmse": ("metrics.normalized_rmse",),
            "categorical_auroc": (
                "metrics.categorical_auroc", None, (undefined, "metrics.auroc_undefined")
            ),
            "f1": ("metrics.f1",),
            "mixed_loss": ("nn.mixed_loss",),
            "inject_mcar": ("missingness.inject_mcar",),
            "assign_folds": ("missingness.assign_folds",),
            "fit_forest": (fit_name, fit_after),
            "predict_forest": ("forest.predict", predict_after),
        }

    def _method_spec(self, method: str) -> tuple:
        counts = self.counts
        if method == "fit":
            return (lambda args, kwargs: f"fit.{args[0].name}",)
        if method == "impute":

            def check(args, kwargs, result):
                # the result is complete and keeps every observed target cell
                target = args[1].values
                out = result.table.values
                observed = ~np.isnan(target)
                if np.isnan(out).any() or not np.array_equal(out[observed], target[observed]):
                    counts["impute.check_failed"] += 1

            return (lambda args, kwargs: f"impute.{args[0].name}", check)
        if method == "preimpute":

            def remember(args, kwargs, result):
                self._rotators[id(args[0])] = args[0]

            return ("preimpute", remember)
        if method == "forward":

            def flops(args, kwargs, result):
                counts["nn.flops"] += 2 * len(args[1]) * _dense_sum(args[0])

            return ("nn.forward", flops)
        if method == "backward":

            def flops(args, kwargs, result):
                # weight-gradient and input-gradient products: two matmuls per layer
                counts["nn.flops"] += 4 * len(args[2]) * _dense_sum(args[0])

            return ("nn.backward", flops)
        assert method == "step", method
        return ("nn.adam_step",)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ---------------------------------------------------------------------------
# arithmetic on spans


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals.

    Children that overlap each other are counted once; a child's part
    outside its parent is ignored.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of a percentile among n samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def _nearest_rank(ordered, pct: float) -> float:
    return ordered[_rank(pct, len(ordered)) - 1] if ordered else 0.0


def tail_percentile(values) -> tuple:
    """(value, percentile, count beyond) at the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it, by nearest rank.

    With too few samples for any rung, the maximum is returned with
    percentile 100 and count 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (ordered[-1] if ordered else 0.0, 100.0, 0)
    for pct in TAIL_LADDER:
        rank = _rank(pct, n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], pct, n - rank)
    return best


def cell_durations(spans, root: int, protocol_end: float) -> list:
    """Split the root's run into protocol cells.

    A cell starts at a `make_imputer` call directly under the root that is
    followed by a `fit`, and lasts until the next cell starts or the
    protocol call returns, so it carries its scoring and orchestration.
    """
    top = [s for s in spans if s[3] == root]
    starts = [
        top[i][1]
        for i in range(len(top) - 1)
        if top[i][0] == "make_imputer" and top[i + 1][0].startswith("fit.")
    ]
    ends = starts[1:] + [protocol_end]
    return [end - start for start, end in zip(starts, ends)]


def layer_metrics(tracer: Tracer, root: int, protocol_end: float) -> dict:
    """The PER_LAYER metrics (except the trace overhead) from one traced call."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = Counter()
    inclusive = defaultdict(list)
    for (name, start, end, _), own_s in zip(spans, own):
        self_s[name] += own_s
        calls[name] += 1
        inclusive[name].append(end - start)

    def total(*names):
        return sum(self_s[n] for n in names)

    def per(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    cells = cell_durations(spans, root, protocol_end)
    p50 = _nearest_rank(sorted(cells), 50.0)
    tail, tail_pct, tail_beyond = tail_percentile(cells)
    knn_s = total("knn_fill.holdout", "knn_fill.selfimpute")
    nn_s = total("nn.forward", "nn.backward")
    fit_names = ("forest.fit.classification", "forest.fit.regression")
    root_name, root_start, root_end, _ = spans[root]
    out = {
        "bench.cells": len(cells),
        "bench.cell_s.p50": p50,
        "bench.cell_s.tail": tail,
        "bench.cell_s.tail_pct": tail_pct,
        "bench.cell_s.tail_beyond": tail_beyond,
        "bench.self_s": self_s[root_name],
        "bench.traced_wall_s": root_end - root_start,
    }
    out.update({metric: total(*names) for metric, names in SELF_TIME_METRICS.items()})
    for m in METHODS:
        for phase in ("fit", "impute"):
            durations = inclusive[f"{phase}.{m}"]
            out[f"{phase}_s.{m}"] = statistics.median(durations) if durations else 0.0
    knn_cells = counts["knn_fill.cells"]
    out.update(
        {
            "knn_fill.calls": calls["knn_fill.holdout"] + calls["knn_fill.selfimpute"],
            "knn_fill.pairs": counts["knn_fill.pairs"],
            "knn_fill.pairs_per_s": per(counts["knn_fill.pairs"], knn_s),
            "knn_fill.cells": knn_cells,
            "knn_fill.fallback_ratio": per(counts["knn_fill.fallbacks"], knn_cells),
            "preimpute.calls": calls["preimpute"],
            "preimpute.knn_recomputes": tracer.knn_recomputes(),
            "nn.forward.calls": calls["nn.forward"],
            "nn.flops": counts["nn.flops"],
            "nn.gflops_per_s": per(counts["nn.flops"], nn_s) / 1e9,
            "forest.fit.calls": sum(calls[n] for n in fit_names),
            "forest.fit.tree_rows": counts["forest.fit.tree_rows"],
            "forest.fit.tree_rows_per_s": per(counts["forest.fit.tree_rows"], total(*fit_names)),
            "forest.predict.calls": calls["forest.predict"],
            "forest.predict.row_trees": counts["forest.predict.row_trees"],
            "smote.calls": calls["smote"],
            "smote.synthetic_rows": counts["smote.synthetic_rows"],
            "metrics.auroc_undefined": counts["metrics.auroc_undefined"],
            "tabular.normalize.calls": calls["tabular.normalize"],
        }
    )
    return out


def unaccounted_s(metrics) -> float:
    """Traced wall time that no reported self-time metric covers (0 when all is reported)."""
    reported = ("bench.self_s", *SELF_TIME_METRICS)
    return metrics["bench.traced_wall_s"] - math.fsum(metrics[name] for name in reported)


def unmapped_spans(spans, root: int) -> list:
    """Names of the spans, other than the root, that no self-time metric sums."""
    mapped = {name for names in SELF_TIME_METRICS.values() for name in names}
    return sorted({s[0] for i, s in enumerate(spans) if i != root and s[0] not in mapped})
