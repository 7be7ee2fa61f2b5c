"""Property test: the blocked knn_fill matches the row-by-row reference on random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from imputebench import imputers  # noqa: E402

from conftest import make_rng, mixed_schema  # noqa: E402
from knn_reference import assert_matches_rowwise  # noqa: E402


@settings(max_examples=80, deadline=None)
@given(
    n_num=st.integers(0, 4),
    n_cat=st.integers(0, 3),
    n_train=st.integers(1, 40),
    n_target=st.integers(1, 30),
    rate=st.floats(0.0, 0.9),
    k=st.integers(1, 45),
    self_mode=st.booleans(),
    grid=st.sampled_from([0, 2, 4]),
    scale=st.sampled_from([1.0, 1e-4, 1e4]),
    seed=st.integers(0, 2**32 - 1),
    shortlist=st.integers(1, imputers._SHORTLIST),
    block=st.sampled_from([8, 64, imputers._KNN_BLOCK]),
)
def test_blocked_fill_matches_rowwise(
    n_num, n_cat, n_train, n_target, rate, k, self_mode, grid, scale, seed, shortlist, block
):
    if n_num + n_cat == 0:
        n_num = 1
    schema = mixed_schema(n_num, n_cat)
    rng = make_rng(seed)
    n_rows = n_train if self_mode else n_train + n_target
    values = rng.normal(0.5, 1.0, (n_rows, schema.n_cols)) * scale
    if grid:
        # coarse values make many exactly tied distances
        values = np.round(values * grid) / grid
    cat = schema.categorical_indices
    values[:, cat] = rng.integers(0, 2, (n_rows, cat.size))
    values[rng.random(values.shape) < rate] = np.nan
    train = values[:n_train]
    for j in np.flatnonzero(np.isnan(train).all(axis=0)):
        train[rng.integers(0, n_train), j] = 0.5
    target = train if self_mode else values[n_train:]
    # small shortlists give cells infinite thresholds; small blocks split
    # the targets over many blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imputers, "_SHORTLIST", shortlist)
        patch.setattr(imputers, "_KNN_BLOCK", block)
        assert_matches_rowwise(train, target, k, schema)
