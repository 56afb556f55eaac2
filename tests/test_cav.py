import csv
import tracemalloc

import numpy as np
import pytest

from conceptmine.cav import (_cav_core, compute_cav, compute_cav_batch,
                             export_cav_csv)
from conceptmine.dataset import PartFeatureDataset, SyntheticSpec, generate_synthetic
from conceptmine.errors import ValidationError
from conceptmine.mining import ConceptBook, ConceptEntry, MiningConfig, mine_concepts


def book_from(centroids_by_part, d_f):
    """Build a book with the given centroids; entry e belongs to part p."""
    book = ConceptBook(feat_dim=d_f)
    for p, cents in enumerate(centroids_by_part):
        for l, c in enumerate(cents):
            book.entries.append(ConceptEntry(0, p, l, np.array(c, float), 1))
    return book


class TestSingleSample:
    def test_equal_vector_basis(self):
        book = book_from([[[1.0, 0.0, 0.0]]], 3)
        cav = compute_cav(np.array([[1.0, 0.0, 0.0]]), np.zeros(3), book)
        assert cav.z[0] == 1.0

    def test_equal_vector_generic(self):
        v = np.array([0.3, -1.2, 2.5])
        book = book_from([[v]], 3)
        cav = compute_cav(v[None, :], np.zeros(3), book)
        assert cav.z[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        book = book_from([[[1.0, 0.0]]], 2)
        cav = compute_cav(np.array([[0.0, 1.0]]), np.zeros(2), book)
        assert cav.z[0] == 0.0

    def test_negated_clamped_to_zero(self):
        v = np.array([0.5, 0.5])
        book = book_from([[v]], 2)
        cav = compute_cav(-v[None, :], np.zeros(2), book)
        assert cav.z[0] == 0.0

    def test_zero_feature_and_zero_centroid(self):
        book = book_from([[[1.0, 0.0], [0.0, 0.0]]], 2)
        cav = compute_cav(np.zeros((1, 2)), np.ones(2), book)
        np.testing.assert_array_equal(cav.z, [0.0, 0.0])

    def test_g_passes_through(self):
        book = book_from([[[1.0, 0.0]]], 2)
        g = np.array([3.5, -1.0])
        cav = compute_cav(np.ones((1, 2)), g, book)
        np.testing.assert_array_equal(cav.g, g)

    def test_dim_mismatch(self):
        book = book_from([[[1.0, 0.0]]], 2)
        with pytest.raises(ValidationError):
            compute_cav(np.ones((1, 3)), np.zeros(3), book)


class TestBatch:
    def test_batch_of_one_equals_single(self, planted):
        from conceptmine.dataset import PartFeatureDataset
        ds, _ = planted(seed=0, samples_per_class=5)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=2))
        one = PartFeatureDataset(ds.part_features[:1], ds.nonproto_features[:1],
                                 np.zeros(1, dtype=np.uint32), 1)
        z, g = compute_cav_batch(one, book)
        single = compute_cav(ds.part_features[0], ds.nonproto_features[0], book)
        np.testing.assert_array_equal(z[0], single.z)

    def test_rows_match_single_calls(self, planted):
        ds, _ = planted(seed=1, samples_per_class=6)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=2))
        z, _ = compute_cav_batch(ds, book)
        for i in range(ds.n_samples):
            single = compute_cav(ds.part_features[i], ds.nonproto_features[i], book)
            np.testing.assert_allclose(z[i], single.z, rtol=0, atol=1e-12)

    def test_parts_are_upcast_one_at_a_time(self):
        # pipeline-M size: a float64 copy of the [n, K, d_f] input is 6.1 MB.
        rng = np.random.default_rng(0)
        n, k, d_f = 2000, 6, 64
        ds = PartFeatureDataset(rng.normal(size=(n, k, d_f)),
                                rng.normal(size=(n, d_f)),
                                np.arange(n, dtype=np.uint32) % 2, 2)
        book = book_from(rng.normal(size=(k, 2, d_f)), d_f)
        copy_bytes = ds.part_features.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            z, _ = compute_cav_batch(ds, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes
        upcast_first = _cav_core(ds.part_features.astype(np.float64), book)
        assert z.tobytes() == upcast_first.tobytes()

    def test_bounded(self, planted):
        ds, _ = planted(seed=2)
        book = mine_concepts(ds)
        z, _ = compute_cav_batch(ds, book)
        assert (z >= 0.0).all() and (z <= 1.0).all()

    def test_scale_invariance(self, planted):
        ds, _ = planted(seed=3, samples_per_class=5)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=2))
        parts = ds.part_features[0].astype(np.float64)
        g = ds.nonproto_features[0]
        base = compute_cav(parts, g, book).z
        # Power-of-two scaling is exact in floating point.
        for lam in (0.5, 4.0):
            np.testing.assert_array_equal(compute_cav(lam * parts, g, book).z, base)
        # Other positive scales agree to rounding error.
        np.testing.assert_allclose(compute_cav(3.0 * parts, g, book).z, base,
                                   rtol=0, atol=1e-12)

    def test_zero_noise_row_max_at_planted_concept(self):
        spec = SyntheticSpec(n_classes=2, n_parts=2, feat_dim=16,
                             samples_per_class=10, concepts_per_cell=2,
                             noise_sigma=0.0, seed=4)
        ds, gt = generate_synthetic(spec)
        book = mine_concepts(ds, MiningConfig(eps=0.05, min_pts=1))
        z, _ = compute_cav_batch(ds, book)
        cents = book.centroid_matrix()
        for i in range(ds.n_samples):
            j = int(ds.labels[i])
            for p in range(ds.n_parts):
                mean = gt.planted_means[j, p, gt.assignment[i, p]].astype(np.float64)
                target = min(
                    (k for k, e in enumerate(book.entries)
                     if e.class_id == j and e.part == p),
                    key=lambda k: np.linalg.norm(cents[k] - mean))
                part_cols = [k for k, e in enumerate(book.entries) if e.part == p]
                assert z[i, target] == max(z[i, c] for c in part_cols)
                assert z[i, target] == pytest.approx(1.0, abs=1e-9)

    def test_sparsity_tendency(self, planted):
        ds, _ = planted(n_classes=4, n_parts=3, samples_per_class=30,
                        concepts_per_cell=2, noise_sigma=0.02, seed=5)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=3))
        z, _ = compute_cav_batch(ds, book)
        frac = float((z > 0.9).mean())
        expected = ds.n_parts / book.d_c
        assert abs(frac - expected) <= 0.5 * expected

    def test_csv_export(self, planted, tmp_path):
        ds, _ = planted(seed=6, samples_per_class=4)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=2))
        z, g = compute_cav_batch(ds, book)
        path = tmp_path / "cavs.csv"
        export_cav_csv(z, g, ds.labels, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [f"z_{i}" for i in range(book.d_c)] + \
            [f"g_{i}" for i in range(ds.feat_dim)] + ["label"]
        assert len(rows) == 1 + ds.n_samples
        got = np.array([[float(v) for v in r[:book.d_c]] for r in rows[1:]])
        np.testing.assert_array_equal(got, z)
