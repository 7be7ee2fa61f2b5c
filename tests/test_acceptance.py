"""Acceptance suite.

Unconditional criteria (7-14) run on synthetic data in CI. Criteria 1-6
reproduce published heart-study numbers and need the Framingham CSV; they
run only when the FRAMINGHAM_CSV environment variable points at the file.
Each criterion reports one [PASS] line (visible with `pytest -s`).
"""

import os

import numpy as np
import pytest

from imputebench import deep_imputers, imputers
from imputebench.bench import ExperimentConfig, run_imputation_experiment, run_post_imputation
from imputebench.deep_imputers import make_hint
from imputebench.imputers import KnnImputer
from imputebench.metrics import auroc, normalized_rmse
from imputebench.missingness import MissSpec, inject_mcar
from imputebench.nn import LayerSpec, Network, mixed_loss
from imputebench.registry import METHOD_NAMES, make_imputer
from imputebench.tabular import (
    FRAMINGHAM_SCHEMA,
    MixedTable,
    complete_subset,
    fit_normalizer,
    load_csv,
    normalize,
)
from imputebench.resample import smote
from imputebench.cli import main as cli_main

from conftest import make_rng, mixed_schema, random_table
from gradcheck import check_param_gradients, rel_err, squared_loss

FRAMINGHAM = os.environ.get("FRAMINGHAM_CSV")
needs_framingham = pytest.mark.skipif(
    not FRAMINGHAM, reason="set FRAMINGHAM_CSV to run the dataset-conditional tier"
)


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# conditional tier (criteria 1-6)


@pytest.fixture(scope="module")
def framingham_table():
    return load_csv(FRAMINGHAM, FRAMINGHAM_SCHEMA)


@pytest.fixture(scope="module")
def framingham_experiment(framingham_table):
    config = ExperimentConfig(
        methods=["simple", "knn", "naa", "inaa", "gain", "igain"],
        repeats=3,
        seed=0,
    )
    report = run_imputation_experiment(framingham_table, config)
    return {(a["method"], a["rate"]): a for a in report.aggregate()}


@needs_framingham
def test_criterion_1_complete_subset(framingham_table):
    assert framingham_table.n_rows == 11627
    assert complete_subset(framingham_table).n_rows == 9310
    _report(1, "complete subset is 9310 of 11627 rows")


@needs_framingham
def test_criterion_2_simple_baseline(framingham_experiment):
    for rate in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert framingham_experiment[("simple", rate)]["auroc_mean"] == 0.5
    rmse = framingham_experiment[("simple", 0.1)]["rmse_mean"]
    assert abs(rmse - 0.112) <= 0.010
    _report(2, f"Simple AUROC 0.500 at every rate; nRMSE@0.1 {rmse:.4f}")


@needs_framingham
def test_criterion_3_knn_reference_points(framingham_experiment):
    rmse = framingham_experiment[("knn", 0.1)]["rmse_mean"]
    roc = framingham_experiment[("knn", 0.1)]["auroc_mean"]
    assert abs(rmse - 0.103) <= 0.010
    assert abs(roc - 0.735) <= 0.05
    _report(3, f"KNN@0.1 nRMSE {rmse:.4f}, AUROC {roc:.4f}")


@needs_framingham
def test_criterion_4_improved_variants_beat_bases(framingham_experiment):
    for rate in (0.1, 0.2, 0.3, 0.4, 0.5):
        e = framingham_experiment
        assert e[("inaa", rate)]["rmse_mean"] < e[("naa", rate)]["rmse_mean"]
        assert e[("igain", rate)]["rmse_mean"] < e[("gain", rate)]["rmse_mean"]
        assert e[("inaa", rate)]["auroc_mean"] >= e[("naa", rate)]["auroc_mean"] + 0.005
        assert e[("igain", rate)]["auroc_mean"] >= e[("gain", rate)]["auroc_mean"] + 0.005
    _report(4, "I-NAA < NAA and I-GAIN < GAIN on nRMSE; AUROC gaps >= 0.5 points")


@needs_framingham
def test_criterion_5_deep_auroc_dominates_at_high_rates(framingham_experiment):
    for rate in (0.3, 0.4, 0.5):
        e = framingham_experiment
        floor = max(e[("simple", rate)]["auroc_mean"], e[("knn", rate)]["auroc_mean"])
        for method in ("naa", "inaa", "gain", "igain"):
            assert e[(method, rate)]["auroc_mean"] > floor
    _report(5, "deep methods beat Simple and KNN on AUROC at rates >= 0.3")


@needs_framingham
def test_criterion_6_post_imputation_f1(framingham_table):
    config = ExperimentConfig(methods=["simple", "inaa"], repeats=3, seed=0)
    report = run_post_imputation(framingham_table, config)
    agg = {a["method"]: a["f1_mean"] for a in report.f1_aggregate()}
    for value in agg.values():
        assert 0.40 <= value <= 0.50
    assert agg["inaa"] >= agg["simple"] + 0.01
    _report(6, f"F1 simple {agg['simple']:.4f}, inaa {agg['inaa']:.4f}")


# ---------------------------------------------------------------------------
# unconditional tier (criteria 7-14)


def _gradcheck_instance(seed):
    """One seeded network instance cycling through layer kinds."""
    rng = make_rng(1000 + seed)
    menu = [
        [LayerSpec(4, "sigmoid"), LayerSpec(3, "linear")],
        [LayerSpec(5, "sigmoid", batch_norm=True), LayerSpec(2, "linear")],
        [LayerSpec(4, "relu"), LayerSpec(4, "sigmoid", batch_norm=True), LayerSpec(3, "linear")],
        [LayerSpec(3, "sigmoid"), LayerSpec(3, "sigmoid")],
    ]
    specs = menu[seed % len(menu)]
    net = Network(4, specs, seed=seed)
    X = rng.uniform(-1, 1, size=(6, 4))
    target = rng.uniform(-1, 1, size=(6, net.specs[-1].width))
    return check_param_gradients(net, X, squared_loss(target), train=True)


def _mixed_loss_instance(seed):
    rng = make_rng(2000 + seed)
    schema = mixed_schema(3, 3)
    pred = np.concatenate(
        [rng.uniform(-1, 1, size=(5, 3)), rng.uniform(0.1, 0.9, size=(5, 3))], axis=1
    )
    target = np.concatenate(
        [rng.uniform(-1, 1, size=(5, 3)), rng.integers(0, 2, size=(5, 3)).astype(float)],
        axis=1,
    )
    _, grad = mixed_loss(pred, target, schema)
    h = 1e-6
    worst = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            orig = pred[i, j]
            pred[i, j] = orig + h
            lp, _ = mixed_loss(pred, target, schema)
            pred[i, j] = orig - h
            lm, _ = mixed_loss(pred, target, schema)
            pred[i, j] = orig
            worst = max(worst, rel_err(grad[i, j], (lp - lm) / (2 * h)))
    return worst


def _gain_composite_instance(seed):
    """Generator-through-discriminator chained gradient vs finite differences."""
    rng = make_rng(3000 + seed)
    c = 3
    gen = Network(2 * c, [LayerSpec(c, "sigmoid"), LayerSpec(c, "linear")], seed=seed)
    disc = Network(2 * c, [LayerSpec(c, "sigmoid"), LayerSpec(c, "sigmoid")], seed=seed + 50)
    xf = rng.uniform(0, 1, size=(5, c))
    m = (rng.random((5, c)) > 0.3).astype(float)
    hint, _ = make_hint(m, rng)
    target = rng.uniform(0, 1, size=(5, c))

    def composite_loss():
        g_out, g_cache = gen.forward(np.concatenate([xf, m], axis=1), train=True)
        imputed = m * xf + (1.0 - m) * g_out
        d_out, d_cache = disc.forward(np.concatenate([imputed, hint], axis=1), train=True)
        loss = float(np.sum((d_out - target) ** 2))
        return loss, g_cache, d_cache, d_out

    loss, g_cache, d_cache, d_out = composite_loss()
    _, d_input_grad = disc.backward(d_cache, 2.0 * (d_out - target))
    g_grad, _ = gen.backward(g_cache, d_input_grad[:, :c] * (1.0 - m))
    assert g_grad.shape == gen.params.shape

    h = 1e-5
    worst = 0.0
    params = gen.params
    for idx in range(params.size):
        orig = params[idx]
        params[idx] = orig + h
        lp = composite_loss()[0]
        params[idx] = orig - h
        lm = composite_loss()[0]
        params[idx] = orig
        worst = max(worst, rel_err(g_grad[idx], (lp - lm) / (2 * h)))
    return worst


def test_criterion_7_gradient_checks():
    worst = 0.0
    instances = 0
    for seed in range(12):
        worst = max(worst, _gradcheck_instance(seed))
        instances += 1
    for seed in range(4):
        worst = max(worst, _mixed_loss_instance(seed))
        instances += 1
    for seed in range(4):
        worst = max(worst, _gain_composite_instance(seed))
        instances += 1
    assert instances >= 20
    assert worst < 1e-4
    _report(7, f"{instances} gradient-check instances, worst rel err {worst:.2e}")


def test_criterion_8_auroc_oracle_equivalence():
    rng = make_rng(8)
    for trial in range(200):
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid to force ties
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
        )
        expect = wins / (pos.size * neg.size)
        assert abs(auroc(scores, labels) - expect) < 1e-12
    _report(8, "rank AUROC equals pairwise counting on 200 vectors")


def test_criterion_9_knn_brute_force_equivalence(monkeypatch):
    k = 5
    monkeypatch.setattr(imputers, "KNN_K", k)
    checked = 0
    for trial in range(50):
        schema = mixed_schema(4, 2)
        train = random_table(schema, 12, seed=900 + trial)
        truth = random_table(schema, 12, seed=950 + trial)
        corrupted, _ = inject_mcar(truth, MissSpec(0.3, trial))
        result = KnnImputer(schema).fit(train).impute(corrupted)

        params = fit_normalizer(train)
        tn = normalize(train.values, params)
        gn = normalize(corrupted.values, params)
        cat = set(schema.categorical_indices.tolist())
        num_pos = {j: i for i, j in enumerate(schema.numerical_indices)}
        c = schema.n_cols
        for i in range(12):
            for j in range(c):
                if not np.isnan(gn[i, j]):
                    continue
                cands = []
                for t in range(12):
                    both = [
                        f
                        for f in range(c)
                        if not np.isnan(tn[t, f]) and not np.isnan(gn[i, f])
                    ]
                    if not both or np.isnan(tn[t, j]):
                        continue
                    d2 = sum((tn[t, f] - gn[i, f]) ** 2 for f in both) * c / len(both)
                    cands.append((np.sqrt(d2), t))
                cands.sort()
                expect = float(np.mean([tn[t, j] for _, t in cands[:k]]))
                if j in cat:
                    assert result.scores[i, j] == pytest.approx(expect, abs=1e-12)
                else:
                    got = result.table.values[i, j]
                    p = num_pos[j]
                    raw = expect * params.span[p] + params.col_min[p]
                    assert got == pytest.approx(raw, abs=1e-9)
                checked += 1
    assert checked > 0
    _report(9, f"KNN matches the brute-force oracle on {checked} cells over 50 tables")


@pytest.mark.usefixtures("small_batches")
def test_criterion_10_imputer_contract_suite():
    overrides = {
        "missforest": {"n_trees": 5, "max_iter": 3},
        **{name: {"epochs": 6} for name in ("naa", "inaa", "gain", "igain")},
    }
    schema = mixed_schema(3, 2)
    train = random_table(schema, 35, seed=101)
    truth = random_table(schema, 20, seed=102)
    corrupted, mask = inject_mcar(truth, MissSpec(0.3, 10))
    cat = schema.categorical_indices
    for name in METHOD_NAMES:
        first = None
        for _ in range(2):
            imp = make_imputer(name, schema, seed=6, **overrides.get(name, {}))
            result = imp.fit(train).impute(corrupted)
            values = result.table.values
            assert not np.isnan(values).any(), name
            obs = mask == 1
            assert np.array_equal(values[obs], truth.values[obs]), name
            assert np.array_equal(
                values[:, cat], (result.scores[:, cat] >= 0.5).astype(float)
            ), name
            if first is None:
                first = result
            else:
                assert np.array_equal(values, first.table.values), name
                assert np.array_equal(result.scores, first.scores, equal_nan=True), name
    _report(10, "preservation/completeness/determinism/consistency for all 7 methods")


def test_criterion_11_mcar_injector_statistics():
    schema = mixed_schema(2, 0)
    table = random_table(schema, 100, seed=111)
    rate = 0.3
    co = []
    for seed in range(200):
        corrupted, mask = inject_mcar(table, MissSpec(rate, seed))
        assert np.isnan(corrupted.values).sum(axis=0).tolist() == [30, 30]
        co.append(np.mean((mask[:, 0] == 0) & (mask[:, 1] == 0)))
    co = np.array(co)
    se = co.std(ddof=1) / np.sqrt(co.size)
    assert abs(co.mean() - rate * rate) < 3 * se + 1e-9
    _report(11, f"exact counts; co-missingness {co.mean():.4f} vs {rate * rate:.4f}")


def test_criterion_12_correlation_recovery_ordering(monkeypatch):
    # x2 duplicates x1; two independent distractor columns keep KNN honest
    schema = mixed_schema(4, 0)
    rng = make_rng(120)
    n = 400
    x1 = rng.uniform(0.0, 1.0, n)
    values = np.column_stack(
        [x1, x1, rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)]
    )
    truth = MixedTable(schema, values)
    corrupted, mask = inject_mcar(truth, MissSpec(0.2, 5))
    params = fit_normalizer(corrupted)
    overrides = {
        "missforest": {"n_trees": 20},
        "inaa": {"epochs": 300},
        "igain": {"epochs": 300},
    }
    # inaa and igain, the deep methods run here, step at 3e-3
    monkeypatch.setattr(deep_imputers, "LEARNING_RATE", 3e-3)
    scores = {}
    for name in ("simple", "knn", "missforest", "inaa", "igain"):
        imp = make_imputer(name, schema, seed=1, **overrides.get(name, {}))
        result = imp.fit(corrupted).impute(corrupted)
        scores[name] = normalized_rmse(truth, result.table, mask, params)
    assert scores["simple"] > scores["knn"] + 0.005
    for name in ("inaa", "igain", "missforest"):
        assert scores["knn"] > scores[name] + 0.005
    _report(
        12,
        "nRMSE ordering "
        + " > ".join(f"{m} {scores[m]:.4f}" for m in ("simple", "knn"))
        + " > {"
        + ", ".join(f"{m} {scores[m]:.4f}" for m in ("missforest", "inaa", "igain"))
        + "}",
    )


def test_criterion_13_smote_counts_and_betweenness():
    rng = make_rng(130)
    Xmin = rng.uniform(0, 1, size=(25, 3))
    Xmaj = rng.uniform(0, 1, size=(100, 3))
    X = np.vstack([Xmaj, Xmin])
    y = np.concatenate([np.zeros(100), np.ones(25)])
    X2, y2 = smote(X, y, seed=4)
    assert (y2 == 1).sum() == 100 and (y2 == 0).sum() == 100
    synth = X2[125:]
    lo = Xmin.min(axis=0) - 1e-12
    hi = Xmin.max(axis=0) + 1e-12
    assert np.all(synth >= lo) and np.all(synth <= hi)
    for row in synth:
        found = False
        for a in range(25):
            for b in range(25):
                if a == b:
                    continue
                seg = Xmin[b] - Xmin[a]
                diff = row - Xmin[a]
                with np.errstate(divide="ignore", invalid="ignore"):
                    u = np.where(seg != 0, diff / seg, np.nan)
                uu = u[~np.isnan(u)]
                if uu.size and np.allclose(uu, uu[0], atol=1e-9) and 0 <= uu[0] <= 1:
                    found = True
                    break
            if found:
                break
        assert found
    _report(13, "exact class counts; every synthetic row between a minority pair")


def test_criterion_14_full_pipeline_determinism(tmp_path):
    schema = mixed_schema(2, 1, label="c0")
    from imputebench.tabular import save_schema

    schema_path = tmp_path / "schema.json"
    save_schema(schema, schema_path)
    args = [
        "bench", "--schema", str(schema_path), "--synthetic", "60",
        "--methods", "simple,knn", "--rates", "0.2,0.4",
        "--folds", "3", "--repeats", "2", "--seed", "17",
    ]
    assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("details.csv", "aggregate.csv", "series_rmse.csv", "series_auroc.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _report(14, "two seeded bench runs emit byte-identical tables")
