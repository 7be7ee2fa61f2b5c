"""The in-tree normal CDF and quantile against scipy's Cephes, bit for bit."""

import math

import numpy as np
import pytest

from imputebench.normal import ndtr, ndtri

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


def test_ndtri_matches_scipy_on_seeded_draws():
    rng = make_rng(20)
    # the central branch, both tails in [exp(-32), exp(-2)] and the far tails below
    y = np.concatenate([
        rng.random(500_000),
        np.exp(-rng.uniform(2.0, 32.0, 200_000)),
        -np.expm1(-rng.uniform(2.0, 32.0, 100_000)),
        np.exp(-rng.uniform(32.0, 700.0, 200_000)),
    ])
    got = np.array([ndtri(v) for v in y.tolist()])
    assert same_bits(got, special.ndtri(y))


def test_ndtri_matches_scipy_on_branch_edges():
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5, 5e-324, 1e-300]
    y = with_neighbours(edges)
    y = y[(y > 0.0) & (y < 1.0)]
    got = np.array([ndtri(v) for v in y.tolist()])
    assert same_bits(got, special.ndtri(y))
    assert ndtri(0.0) == special.ndtri(0.0) == -math.inf
    assert ndtri(1.0) == special.ndtri(1.0) == math.inf
    for bad in (-0.2, 1.5, math.nan):
        assert math.isnan(ndtri(bad))
