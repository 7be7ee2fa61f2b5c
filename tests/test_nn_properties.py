"""Property test: train-mode batch norm computes np.mean / np.var bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from imputebench.nn import BN_EPS, LayerSpec, Network, _batch_stats  # noqa: E402

from conftest import make_rng  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(2, 300),
    width=st.sampled_from([1, 2, 7, 15, 30]),
    offset=st.sampled_from([0.0, 1.0, -1e3, 1e6]),
    scale=st.sampled_from([1.0, 1e-5, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_statistics_match_numpy(n_rows, width, offset, scale, seed):
    rng = make_rng(seed)
    z = offset + scale * rng.normal(size=(n_rows, width))
    mu, centred, var = _batch_stats(z)
    assert np.array_equal(mu, np.mean(z, axis=0))
    assert np.array_equal(var, np.var(z, axis=0))
    assert np.array_equal(centred, z - np.mean(z, axis=0))

    # the normalized batch of a train-mode forward, recomputed from its z
    net = Network(3, [LayerSpec(width, "relu", batch_norm=True)], seed=seed % 1000)
    _, cache = net.forward(offset + scale * rng.normal(size=(n_rows, 3)), train=True)
    step = cache["steps"][0]
    z = step["z"]
    xhat = (z - np.mean(z, axis=0)) * (1.0 / np.sqrt(np.var(z, axis=0) + BN_EPS))
    assert np.array_equal(step["xhat"], xhat)
