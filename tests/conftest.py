import json
import os

import numpy as np
import pytest

from imputebench import deep_imputers
from imputebench.tabular import Column, ColumnKind, MixedTable, Schema

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
    # property-test failure in CI reproduces locally
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def mixed_schema(n_num=3, n_cat=2, label=None):
    cols = [Column(f"n{i}", ColumnKind.NUMERICAL) for i in range(n_num)]
    cols += [Column(f"c{i}", ColumnKind.CATEGORICAL_BINARY) for i in range(n_cat)]
    return Schema(cols, label=label)


def write_schema_file(path, schema):
    """Write `schema` to `path` in the documented schema-file format, each
    kind spelled as users write it, not through the package."""
    kinds = {ColumnKind.NUMERICAL: "numerical", ColumnKind.CATEGORICAL_BINARY: "categorical"}
    columns = [{"name": c.name, "kind": kinds[c.kind]} for c in schema.columns]
    path.write_text(json.dumps({"columns": columns, "label": schema.label}))


def random_table(schema, n_rows, seed, missing_rate=0.0):
    rng = make_rng(seed)
    values = np.empty((n_rows, schema.n_cols))
    for j, col in enumerate(schema.columns):
        if col.kind is ColumnKind.NUMERICAL:
            values[:, j] = rng.uniform(-5.0, 20.0, n_rows)
        else:
            values[:, j] = rng.integers(0, 2, n_rows).astype(float)
    if missing_rate > 0:
        holes = rng.random(values.shape) < missing_rate
        # keep at least one observed cell per column
        for j in range(values.shape[1]):
            if holes[:, j].all():
                holes[rng.integers(0, n_rows), j] = False
        values[holes] = np.nan
    return MixedTable(schema, values)


def record_knn_inputs(monkeypatch):
    """(k, training matrix bytes) of every knn_fill call the deep module
    makes from now on, with the KNN fill memo emptied."""
    calls = []
    knn_fill = deep_imputers.knn_fill

    def recording_knn_fill(train, target, k, *args):
        calls.append((k, train.tobytes()))
        return knn_fill(train, target, k, *args)

    monkeypatch.setattr(deep_imputers, "knn_fill", recording_knn_fill)
    monkeypatch.setattr(deep_imputers, "_last_fill", {})
    return calls


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture
def small_batches(monkeypatch):
    """The deep methods train on batches of 16 rows instead of 128."""
    monkeypatch.setattr(deep_imputers, "BATCH_SIZE", 16)
