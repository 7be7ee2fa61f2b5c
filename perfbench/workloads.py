"""The benchmark's workloads: one public protocol call each, of fixed size.

Every workload keeps the protocol's 5-fold split and one repeat at one
missing rate, so a call is 5 x len(methods) cells for `bench` and
len(methods) cells for `predict`. Each call is sized to take about
NOMINAL_CALL_S seconds or less on a quiet 2-CPU machine, so that 4 + 22 x 4
runs fit in the benchmark's time budget even when the host runs twice as
slow. Two workloads reach that size only by lowering repetition counts
through `ExperimentConfig.method_overrides` (deep epochs; MissForest
trees and sweeps); the shapes of the kernel calls are kept.

This module imports nothing outside the standard library, so that
run.py can read it without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FOLDS = 5
REPEATS = 1
NOMINAL_CALL_S = 30.0

DEEP_EPOCHS = 30  # method default is 200
# method defaults are 50 trees and up to 10 sweeps. The stop rule is checked
# after a sweep is done, so with 2 sweeps every fit does the same number of
# forest fits whichever iterate the rule keeps; with more, the work per call
# varies with the seed. 16 trees make the longest call of the four: this
# small-array, interpreter-bound code is the one the host's speed swings
# move most, and a longer call averages them out.
MISSFOREST = {"n_trees": 16, "max_iter": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str  # "bench" -> run_imputation_experiment, "predict" -> run_post_imputation
    rows: int
    methods: tuple
    rate: float
    why: str
    overrides: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        """Protocol cells in one call: (repeat, rate, fold, method) or (repeat, method)."""
        per_method = REPEATS * (FOLDS if self.protocol == "bench" else 1)
        return per_method * len(self.methods)

    @property
    def probe_cells(self) -> int:
        """Cells of the quality probe a `predict` call is followed by."""
        return 0 if self.protocol == "bench" else REPEATS * FOLDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bench-knn-9310",
            "bench",
            9310,
            ("simple", "knn"),
            0.1,
            "KNN hold-out fill at the published 9,310-row size (7,448 x 1,862 per "
            "cell); runs no network or forest code; simple cells show per-cell cost",
        ),
        Workload(
            "bench-deep-1000",
            "bench",
            1000,
            ("naa", "inaa", "gain", "igain"),
            0.3,
            "network engine plus KNN self-imputation as many small 800 x 800 calls; "
            "a KNN rewrite that only wins at large n loses here",
            {m: {"epochs": DEEP_EPOCHS} for m in ("naa", "inaa", "gain", "igain")},
        ),
        Workload(
            "predict-rf-1000",
            "predict",
            1000,
            ("simple",),
            0.2,
            "post-imputation F1: 100 unbounded classification trees and SMOTE per "
            "fold; no KNN or network code",
        ),
        Workload(
            "bench-missforest-150",
            "bench",
            150,
            ("missforest",),
            0.3,
            "MissForest sweeps: hundreds of small depth-12 regression and "
            "classification forests fitted and predicted inside the sweep loop",
            {"missforest": MISSFOREST},
        ),
    )
}
