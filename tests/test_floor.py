import math

import numpy as np

from imputebench import bench
from imputebench.bench import ExperimentConfig, generate_synthetic
from imputebench.cli import default_synthetic_spec
from imputebench.metrics import normalized_rmse
from imputebench.missingness import assign_folds, inject_mcar
from imputebench.registry import METHOD_NAMES
from imputebench.seeding import derive_seed
from imputebench.tabular import fit_normalizer

from floor_reference import conditional_mean_fill, synthetic_latents

Z = 4.0  # standard errors of slack granted to each method against the floor


def test_no_method_beats_the_conditional_mean_floor():
    spec, n_rows, seed, rate, fold = default_synthetic_spec(), 3000, 0, 0.3, 0
    table = generate_synthetic(spec, n_rows, seed)
    overrides = {name: {"epochs": 10} for name in ("naa", "inaa", "gain", "igain")}
    overrides["missforest"] = {"n_trees": 10, "max_iter": 2}
    config = ExperimentConfig(methods=list(METHOD_NAMES), seed=seed, method_overrides=overrides)
    records = bench._fold_group(table, config, (0, rate, fold))

    # the fold group's held-out fold, drawn from the protocol's seeds
    folds = assign_folds(n_rows, config.folds, derive_seed(seed, "folds", 0))
    corrupted = inject_mcar(table, rate, derive_seed(seed, "mcar", 0, rate))
    test_rows = np.flatnonzero(folds == fold)
    params = fit_normalizer(corrupted.take(np.flatnonzero(folds != fold)))
    truth, mask = table.take(test_rows), corrupted.take(test_rows).mask()
    latents = synthetic_latents(spec, n_rows, seed)[test_rows]
    floor_fill = conditional_mean_fill(spec, latents, truth.values, mask)
    floor = normalized_rmse(truth, truth.with_values(floor_fill), mask, params)

    # A method's squared error exceeds the floor's by mean(d^2) + 2 mean(e d) over
    # the n scored cells (d: the gap between the two fills, e: the floor's error,
    # of conditional mean 0 and variance <= 1/4 in min-max units). The cross term's
    # sd is at most sqrt(mean(d^2) / n), so the excess is at least -Z^2 / (4 n).
    cells = int((mask[:, spec.schema.numerical_indices] == 0).sum())
    least = math.sqrt(floor**2 - Z**2 / (4 * cells))
    scores = {r.method: r.rmse for r in records}
    assert list(scores) == list(METHOD_NAMES)
    assert {name: s for name, s in scores.items() if s < least} == {}
    assert floor < scores["simple"]
