"""The in-tree normal CDF against scipy's Cephes, bit for bit, and the copula's
binary-column threshold against scipy's normal quantile."""

import math

import numpy as np
import pytest

from imputebench.normal import ndtr

from conftest import make_rng

special = pytest.importorskip("scipy.special")

SQRT2 = math.sqrt(2.0)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def with_neighbours(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])


def test_ndtr_matches_scipy_on_seeded_draws():
    rng = make_rng(19)
    # standard normal draws, wider ones for the erfc branches, and the underflow region
    a = np.concatenate([
        rng.standard_normal(600_000),
        rng.standard_normal(300_000) * 8.0,
        rng.uniform(-40.0, 40.0, 100_000),
    ])
    assert same_bits(ndtr(a), special.ndtr(a))


def test_ndtr_matches_scipy_on_branch_edges():
    # |a| / sqrt(2) = 1/sqrt(2), 1 and 8 switch approximations; around
    # |a| = 37.68 exp(-a^2 / 2) underflows
    edges = [1.0, SQRT2, 8.0 * SQRT2, 37.5, 37.67, 37.68, 37.7, 38.0, 1e150, 1e300, np.inf]
    a = with_neighbours(edges + [-e for e in edges] + [0.0, -0.0])
    assert same_bits(ndtr(a), special.ndtr(a))
    assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
    assert np.isnan(ndtr(np.nan))
    assert np.shape(ndtr(0.3)) == () and ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_uniform_threshold_matches_the_latent_quantile():
    # generate_synthetic's binary column u > 1 - p, with u = ndtr(z), is the
    # event that z exceeds its (1 - p) quantile, scipy's Cephes quantile here
    rng = make_rng(24)
    prevalences = [0.001, 0.01, 0.04, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99, 0.999]
    z = rng.standard_normal(1_000_000)
    u = ndtr(z)
    for p in prevalences:
        cut = special.ndtri(1.0 - p)
        near = cut + rng.standard_normal(200_000) * 1e-6  # draws that straddle the cut
        assert np.array_equal(u > 1.0 - p, z > cut), p
        assert np.array_equal(ndtr(near) > 1.0 - p, near > cut), p
