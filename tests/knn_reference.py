"""Row-by-row KNN fill: the reference that the blocked `knn_fill` must match bit for bit."""

import numpy as np

from imputebench.imputers import _pairwise_partial_distances, column_stats, knn_fill


def knn_fill_rowwise(train_norm, target_norm, k, schema, stats):
    """One target row at a time: full distance vector, then a (distance, index) lexsort."""
    cat = set(schema.categorical_indices.tolist())
    filled = target_norm.copy()
    cat_scores = target_norm.copy()
    fallbacks = 0
    obs_train = ~np.isnan(train_norm)
    for i in range(target_norm.shape[0]):
        row = target_norm[i]
        missing = np.flatnonzero(np.isnan(row))
        if missing.size == 0:
            continue
        dist = _pairwise_partial_distances(train_norm, row)
        order = np.lexsort((np.arange(dist.size), dist))
        for j in missing:
            candidates = order[obs_train[order, j] & np.isfinite(dist[order])]
            if candidates.size == 0:
                score = stats[j]
                value = (1.0 if score >= 0.5 else 0.0) if j in cat else score
                fallbacks += 1
            else:
                neighbors = candidates[:k]
                vals = train_norm[neighbors, j]
                if j in cat:
                    score = float(vals.mean())
                    value = 1.0 if score >= 0.5 else 0.0
                else:
                    value = float(vals.mean())
                    score = value
            filled[i, j] = value
            if j in cat:
                cat_scores[i, j] = score
    return filled, cat_scores, fallbacks


def assert_matches_rowwise(train, target, k, schema):
    """Blocked and row-by-row fills agree exactly; returns the fallback count.

    Pass the same array as train and target to test self-imputation.
    """
    stats = column_stats(train, schema)
    before = (train.copy(), target.copy())
    filled, scores, fallbacks = knn_fill(train, target, k, schema, stats)
    ref_filled, ref_scores, ref_fallbacks = knn_fill_rowwise(train, target, k, schema, stats)
    assert np.array_equal(filled, ref_filled, equal_nan=True)
    assert np.array_equal(scores, ref_scores, equal_nan=True)
    assert fallbacks == ref_fallbacks
    assert np.array_equal(train, before[0], equal_nan=True)
    assert np.array_equal(target, before[1], equal_nan=True)
    return fallbacks
