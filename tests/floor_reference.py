"""The conditional-mean floor of a synthetic table: an nRMSE no imputer beats in expectation.

`generate_synthetic` draws each row's latents z ~ N(0, R) and maps numerical
column j to lo + (hi - lo) * Phi(z_j). Given the latents of a row's observed
cells, a missing z_j is normal with the Gaussian conditional mean mu and
variance s2, so its cell's conditional mean is lo + (hi - lo) * Phi(mu / sqrt(1 + s2)).
The floor knows the latents of the observed binary cells too, which no method
sees, so a method that scores clearly below it is reading held-out truth.
"""

import numpy as np

from imputebench.normal import ndtr
from imputebench.seeding import make_rng
from imputebench.tabular import ColumnKind


def synthetic_latents(spec, n_rows: int, seed: int) -> np.ndarray:
    """The latents z that `generate_synthetic(spec, n_rows, seed)` maps to its table."""
    chol = np.linalg.cholesky(np.asarray(spec.correlation, dtype=float))
    return make_rng(seed, "synthetic").standard_normal((n_rows, spec.schema.n_cols)) @ chol.T


def conditional_mean_fill(spec, z: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`truth` with each missing (mask 0) numerical cell replaced by its conditional
    mean given the latents `z` of all the row's observed cells."""
    schema = spec.schema
    corr = np.asarray(spec.correlation, dtype=float)
    numerical = np.array([col.kind is ColumnKind.NUMERICAL for col in schema.columns])
    bounds = np.array([spec.numeric_ranges.get(name, (0.0, 1.0)) for name in schema.names])
    filled = truth.copy()
    for i in range(len(truth)):
        obs = mask[i] == 1
        miss = numerical & ~obs
        if not miss.any():
            continue
        cross = corr[np.ix_(miss, obs)]
        weights = np.linalg.solve(corr[np.ix_(obs, obs)], cross.T)  # (observed, missing)
        mu = weights.T @ z[i, obs]
        s2 = 1.0 - np.sum(cross * weights.T, axis=1)
        lo, hi = bounds[miss, 0], bounds[miss, 1]
        filled[i, miss] = lo + (hi - lo) * ndtr(mu / np.sqrt(1.0 + s2))
    return filled
