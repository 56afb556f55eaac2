"""Property tests for the purely algebraic invariants."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conceptmine import dataset
from conceptmine.head import soft_threshold
from conceptmine.mining import MiningConfig, _sq_dist_blocks, dbscan
from conceptmine.partproto import PrototypeCenters, mcc_loss
from conceptmine.xaimetrics import hungarian, sparseness
from oracles import (brute_force_dbscan, canonical_labels,
                     exhaustive_assignment, mcc_loss_reference)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)


@given(arrays(np.float64, st.integers(1, 30), elements=finite),
       st.floats(min_value=0, max_value=10, allow_nan=False))
def test_soft_threshold_dead_zone(u, t):
    out = soft_threshold(u, t)
    inside = np.abs(u) <= t
    assert (out[inside] == 0.0).all()
    np.testing.assert_array_equal(out[~inside],
                                  u[~inside] - np.sign(u[~inside]) * t)


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 8)),
              elements=st.floats(min_value=0, max_value=50, allow_nan=False)))
@example(np.array([[0.0, 9.8166851e-159]]))  # its square underflows
def test_sparseness_bounded(z):
    s = sparseness(z)
    assert -1e-9 <= s <= 100.0 + 1e-9


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_mcc_loss_nonnegative_and_matches_reference(b, k, d, seed):
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(b, k, d))
    centers = rng.normal(size=(k, d))
    got = mcc_loss(batch, PrototypeCenters(centers), 0.3, 1.5)
    assert got >= 0.0
    want = mcc_loss_reference(batch, centers, 0.3, 1.5)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_hungarian_matches_exhaustive(m, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(-5, 5, size=(m, m))
    perm = hungarian(cost)
    best, lex = exhaustive_assignment(cost)
    assert float(cost[np.arange(m), perm].sum()) <= best + 1e-9
    np.testing.assert_array_equal(perm, lex)


@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 5),
       st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dbscan_matches_brute_force(n, d, min_pts, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, d))
    eps = float(rng.uniform(0.05, 0.5))
    got = dbscan(pts, MiningConfig(eps=eps, min_pts=min_pts))
    want = brute_force_dbscan(pts, eps, min_pts)
    np.testing.assert_array_equal(canonical_labels(got), canonical_labels(want))


@given(st.integers(1, 4), st.integers(1, 30), st.integers(1, 7),
       st.sampled_from([1e-162, 1e-161, 1e-160, 1e-150, 1e-10, 1.0, 1e6]),
       st.sampled_from([0.0, 1e6]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_gram_band_holds_the_direct_sum(b, m, d, scale, shift, seed):
    # Cells shifted by 1e6 of their spread make the Gram form cancel; tiny
    # scales make it underflow. Small blocks split a cell into row blocks.
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, m + 1, b)
    x = scale * (shift + rng.standard_normal((b, m, d)))
    x[np.arange(m) >= counts[:, None]] = 0.0
    direct = np.sum((x[:, :, None, :] - x[:, None, :, :]) ** 2, axis=3)
    real = np.arange(m) < counts[:, None]
    real = real[:, :, None] & real[:, None, :]
    with mock.patch.object(dataset, "_BLOCK_ENTRIES", 64):
        for lo, gram, band in _sq_dist_blocks(x, counts):
            rows = slice(lo, lo + gram.shape[1])
            inside = np.abs(gram - direct[:, rows]) <= band
            assert inside[real[:, rows]].all()
            assert np.isinf(gram[~real[:, rows]]).all()
