import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from conceptmine import mining
from conceptmine.dataset import (PartFeatureDataset, SyntheticSpec,
                                 generate_synthetic, split_kfold, subset)
from conceptmine.errors import ValidationError
from conceptmine.mining import (ConceptBook, ConceptEntry, MergeConfig,
                                MiningConfig, NOISE, _dbscan_cells, dbscan,
                                load_book, merge_centroids, mine_concepts,
                                save_book)
from conceptmine.xaimetrics import stability
from oracles import (_reference_cells, broadcast_adaptive_eps,
                     brute_force_dbscan, canonical_labels,
                     reference_merge_centroids,
                     reference_mine_concepts, reference_stability,
                     squared_rule_dbscan)


class TestDbscan:
    def test_identical_points_one_cluster(self):
        pts = np.ones((5, 3))
        labels = dbscan(pts, MiningConfig(eps=0.5, min_pts=1))
        assert set(labels.tolist()) == {0}

    def test_two_separated_groups(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-0.05, 0.05, size=(3, 2))
        b = rng.uniform(-0.05, 0.05, size=(3, 2)) + 10.0
        labels = dbscan(np.vstack([a, b]), MiningConfig(eps=0.5, min_pts=2))
        assert (labels >= 0).all()
        assert len(set(labels.tolist())) == 2

    def test_empty_input(self):
        labels = dbscan(np.zeros((0, 2)), MiningConfig(eps=0.5, min_pts=2))
        assert labels.shape == (0,)

    @pytest.mark.parametrize("points", [
        np.arange(4.0),
        np.array([[0.0, 0], [0.1, 0], [np.nan, 0], [0.2, 0]]),
        np.array([[0.0, 0], [0.1, 0], [0.2, np.inf], [0.2, 0]]),
    ], ids=["1-D", "nan-row", "inf-row"])
    def test_refuses_points_not_finite_2d(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mining in (MiningConfig(eps=0.5, min_pts=2), MiningConfig()):
                with pytest.raises(ValidationError, match="finite 2-D array"):
                    dbscan(points, mining)

    @pytest.mark.parametrize("eps", ["abc", [1], True, None, float("nan"), 0])
    def test_params_refuse_bad_eps(self, eps):
        with pytest.raises(ValidationError, match="eps"):
            MiningConfig(eps=eps, min_pts=3)

    def test_noise_detected(self):
        pts = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [50.0, 50]])
        labels = dbscan(pts, MiningConfig(eps=0.3, min_pts=2))
        assert labels[3] == NOISE
        assert (labels[:3] == 0).all()

    def test_neighbors_by_squared_distance(self):
        # Two points are neighbors iff d2 <= eps * eps. At eps = sqrt(d2)
        # here eps * eps rounds below d2: no neighbors, though the test
        # sqrt(d2) <= eps would pass; one ulp more eps makes them neighbors.
        pts = np.random.default_rng(0).normal(size=(2, 3))
        d2 = np.sum((pts[0] - pts[1]) ** 2)
        eps = float(np.sqrt(d2))
        assert eps * eps < d2
        np.testing.assert_array_equal(
            dbscan(pts, MiningConfig(eps=eps, min_pts=2)), [NOISE, NOISE])
        np.testing.assert_array_equal(
            dbscan(pts, MiningConfig(eps=np.nextafter(eps, 2 * eps),
                                     min_pts=2)), [0, 0])

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, 5))
            pts = rng.uniform(0, 1, size=(n, d))
            eps = float(rng.uniform(0.05, 0.3))
            min_pts = int(rng.integers(1, 6))
            got = dbscan(pts, MiningConfig(eps=eps, min_pts=min_pts))
            want = brute_force_dbscan(pts, eps, min_pts)
            np.testing.assert_array_equal(canonical_labels(got),
                                          canonical_labels(want),
                                          err_msg=f"trial {trial}")

    def test_permutation_invariant_partition(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(80, 2))
        params = MiningConfig(eps=0.15, min_pts=4)
        labels = dbscan(pts, params)
        perm = rng.permutation(80)
        labels_p = dbscan(pts[perm], params)

        def clusters(lab):
            out = {}
            for i, l in enumerate(lab):
                if l >= 0:
                    out.setdefault(l, set()).add(i)
            return {frozenset(v) for v in out.values()}

        orig = clusters(labels)
        inv = np.empty(80, dtype=int)
        inv[perm] = np.arange(80)
        back = {frozenset(int(perm[i]) for i in c) for c in clusters(labels_p)}
        assert orig == back

    def test_nonnoise_points_near_core(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(100, 2))
        params = MiningConfig(eps=0.12, min_pts=4)
        labels = dbscan(pts, params)
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        core = (dist <= params.eps).sum(axis=1) >= params.min_pts
        for i in np.flatnonzero(labels >= 0):
            same = (labels == labels[i]) & core
            assert (dist[i, same] <= params.eps).any()


def adaptive_eps(cell):
    """The eps the kernel picks for ``cell`` mined adaptively, alone."""
    cell = np.asarray(cell, dtype=np.float64)
    _, eps, _ = _dbscan_cells(cell[None], np.array([len(cell)]),
                              MiningConfig())
    return eps[0]


def planted_cells(seed, feat_dim=16):
    """Every (class, part) cell of a planted dataset, as float64 [n, d]."""
    ds, _ = generate_synthetic(SyntheticSpec(
        n_classes=2, n_parts=2, feat_dim=feat_dim, samples_per_class=60,
        concepts_per_cell=3, noise_sigma=0.02, min_separation=1.0, seed=seed))
    feats = ds.part_features.astype(np.float64)
    return [feats[ds.labels == j, p] for j in range(2) for p in range(2)]


class TestDistanceKernel:
    """The Gram-form distances must decide every comparison exactly as the
    direct n x n x d broadcast does, including inside the rounding band."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_adaptive_eps_bit_identical_to_broadcast(self, offset):
        for seed in range(3):
            for cell in planted_cells(seed):
                got = adaptive_eps(cell + offset)
                assert got == broadcast_adaptive_eps(cell + offset)

    def test_adaptive_eps_with_duplicate_points(self):
        cell = np.repeat(planted_cells(5)[0][:20], 2, axis=0)
        assert adaptive_eps(cell) == 1e-12  # every NN distance is 0

    @pytest.mark.parametrize("offset", [0.0, 1e6 + 0.3])
    def test_dbscan_on_lattice_at_exactly_eps(self, offset):
        # Integer lattice: every axis neighbor lies at exactly eps = 1, and
        # the 3-4-5 pair at exactly eps = 5. The offset keeps coordinate
        # differences exact but makes the Gram form round.
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
        pts = np.vstack([grid, [[10.0, 0, 0], [13.0, 4, 0]]]) + offset
        for eps, min_pts in ((1.0, 3), (1.0, 7), (5.0, 2), (2.0, 5)):
            got = dbscan(pts, MiningConfig(eps=eps, min_pts=min_pts))
            np.testing.assert_array_equal(
                got, brute_force_dbscan(pts, eps, min_pts))

    def test_dbscan_on_offset_cells(self):
        for seed in range(3):
            for cell in planted_cells(seed):
                shifted = cell + 1e6
                eps = broadcast_adaptive_eps(shifted)
                for min_pts in (3, 6):
                    np.testing.assert_array_equal(
                        dbscan(shifted, MiningConfig(eps=eps, min_pts=min_pts)),
                        brute_force_dbscan(shifted, eps, min_pts))

    @pytest.mark.parametrize("scale", [1e-160, 1e-161, 1e-162])
    def test_dbscan_at_subnormal_scales_takes_the_squared_rule(self, scale):
        # Squared norms here are subnormal or underflow to 0, so the Gram
        # form loses every relative digit; only the band's absolute term
        # sends these comparisons to the direct sum.
        rng = np.random.default_rng(0)
        for trial in range(100):
            n, d = int(rng.integers(3, 31)), int(rng.integers(1, 8))
            pts = scale * rng.standard_normal((n, d))
            eps = scale * float(rng.uniform(0.2, 2.0))
            min_pts = int(rng.integers(2, 4))
            np.testing.assert_array_equal(
                dbscan(pts, MiningConfig(eps=eps, min_pts=min_pts)),
                squared_rule_dbscan(pts, eps, min_pts), err_msg=f"trial {trial}")

    def test_dbscan_past_squared_norm_overflow_takes_the_squared_rule(self):
        # Squared norms near 3e310 overflow, so the Gram form is inf - inf;
        # the squared distances, near 1e304, do not. Fixed and adaptive eps.
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for cell in range(50):
                pts = 1e155 * (1 + 1e-3 * rng.standard_normal((10, 3)))
                for eps, min_pts, mining in (
                        (2e152, 2, MiningConfig(eps=2e152, min_pts=2)),
                        (broadcast_adaptive_eps(pts), 3, MiningConfig())):
                    np.testing.assert_array_equal(
                        dbscan(pts, mining), squared_rule_dbscan(pts, eps, min_pts),
                        err_msg=f"cell {cell}, eps {eps}")

    def test_one_large_cell_memory_bounded(self):
        # The n x n x d broadcast needed 2 x 355 MB here.
        rng = np.random.default_rng(0)
        means = rng.normal(size=(4, 128))
        cell = means[rng.integers(0, 4, 600)] + 0.02 * rng.normal(size=(600, 128))
        tracemalloc.start()
        try:
            dbscan(cell, MiningConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def book_bytes(book):
    return b"".join(
        np.array([e.class_id, e.part, e.local_id, e.member_count]).tobytes()
        + e.centroid.tobytes() for e in book.entries)


def cell_bytes(cells):
    """Shape and bytes of each centroid matrix of a fold's cells."""
    return [(c.shape, c.tobytes()) for c in cells]


def reference_cell_bytes(book):
    """:func:`cell_bytes` of the cells of ``book`` grouped entry by entry,
    in (class, part) order."""
    return cell_bytes(c for _, (c, _) in sorted(_reference_cells(book).items()))


def fold_dataset(k, case):
    """Three planted classes of 23, 17 and k samples: the first two sizes
    divide by none of 2, 5 and 10, so fold cells differ in size within a
    batch, and the last class gives one-point fold cells (eps 1.0, all
    noise, the cell-mean fallback)."""
    ds, _ = generate_synthetic(SyntheticSpec(
        n_classes=3, n_parts=2, feat_dim=8, samples_per_class=23,
        concepts_per_cell=2, noise_sigma=0.05, seed=k))
    keep = np.r_[0:23, 23:40, 46:46 + k]
    parts = ds.part_features[keep].astype(np.float64)
    if case == "duplicates":  # two points, each repeated: eps 1e-12
        parts[:23] = parts[np.arange(23) % 2]
    elif case == "shifted":
        parts += 1e6
    elif case == "origin":  # zero padding rows lie amid class 1's points
        parts[23:40] = np.random.default_rng(k).normal(0.0, 0.05, (17, 2, 8))
    return PartFeatureDataset(parts, ds.nonproto_features[keep],
                              ds.labels[keep], 3)


class TestBatchedMining:
    """The batched kernel against the cell-by-cell brute-force reference:
    the book, the cells of every fold and stability, all bit for bit."""

    @pytest.mark.parametrize("case", ["planted", "duplicates", "shifted",
                                      "origin"])
    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("params", [MiningConfig(),
                                        MiningConfig(eps=0.3, min_pts=3)],
                             ids=["adaptive", "fixed"])
    def test_books_and_stability_match_reference(self, case, k, params,
                                                 monkeypatch):
        ds = fold_dataset(k, case)
        assert book_bytes(mine_concepts(ds, params)) == \
            book_bytes(reference_mine_concepts(ds, params))
        # Fold mining and stability build no book and no entry.
        monkeypatch.setattr(mining, "ConceptBook", None)
        monkeypatch.setattr(mining, "ConceptEntry", None)
        folds = split_kfold(ds, k, seed=1)
        cells = mine_concepts(ds, params, folds=folds)
        assert len(cells) == k
        for fold, fold_cells in zip(folds, cells):
            assert cell_bytes(fold_cells) == reference_cell_bytes(
                reference_mine_concepts(subset(ds, fold), params))
        assert stability(ds, k, params, seed=1) == \
            reference_stability(ds, k, params, seed=1)

    def test_duplicate_fold_cells_take_the_smallest_eps(self):
        ds = fold_dataset(5, "duplicates")
        for fold in split_kfold(ds, 5, seed=1):
            cell = ds.part_features[fold][ds.labels[fold] == 0, 0]
            assert adaptive_eps(cell) == 1e-12

    def test_fold_missing_a_class_refused(self, planted):
        ds, _ = planted(n_classes=2, samples_per_class=10)
        with pytest.raises(ValidationError, match="class 1 has no samples"):
            mine_concepts(ds, MiningConfig(), folds=[np.arange(10), np.arange(20)])

    @pytest.mark.parametrize("index", [-1, 20, 2**40])
    def test_fold_index_out_of_range_refused(self, planted, index):
        ds, _ = planted(n_classes=2, samples_per_class=10)
        fold = np.append(np.arange(20), index)
        with pytest.raises(ValidationError, match=r"fold 1 must be a 1-D array of integers "
                                                  r"in \[0, 20\), got -?\d+ at index 20"):
            mine_concepts(ds, MiningConfig(), folds=[np.arange(20), fold])


class TestMineConcepts:
    def test_planted_recovery(self):
        spec = SyntheticSpec(n_classes=2, n_parts=2, feat_dim=16,
                             samples_per_class=40, concepts_per_cell=2,
                             noise_sigma=0.01, min_separation=1.0, seed=4)
        ds, gt = generate_synthetic(spec)
        book = mine_concepts(ds, MiningConfig(eps=0.1, min_pts=3))
        for j in range(2):
            for p in range(2):
                cell = [e for e in book.entries
                        if e.class_id == j and e.part == p]
                assert len(cell) == 2
                means = gt.planted_means[j, p].astype(np.float64)
                matched = set()
                for e in cell:
                    dists = np.linalg.norm(means - e.centroid, axis=1)
                    g = int(np.argmin(dists))
                    assert dists[g] <= 0.05
                    matched.add(g)
                assert matched == {0, 1}

    def test_all_noise_cell_falls_back_to_mean(self):
        pts = np.diag([10.0, 20.0, 30.0])  # mutually >= 10 apart
        ds = PartFeatureDataset(pts[:, None, :], np.zeros((3, 3)),
                                np.zeros(3, dtype=np.uint32), 1)
        book = mine_concepts(ds, MiningConfig(eps=0.1, min_pts=2))
        assert book.d_c == 1
        e = book.entries[0]
        assert e.member_count == 3
        np.testing.assert_allclose(e.centroid, pts.mean(axis=0))

    def test_debug_log_has_one_line_per_cell(self, caplog):
        far = np.diag([10.0, 20.0, 30.0])  # mutually >= 10 apart
        near = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.01, 0.0]])
        parts = np.stack([
            np.vstack([near, [[5.0, 5.0, 5.0]], far]),  # part 0
            np.vstack([near, near[:1], near[:2], [[9.0, 9.0, 9.0]]]),  # part 1
        ], axis=1)
        ds = PartFeatureDataset(parts, np.zeros((7, 3)),
                                np.array([0, 0, 0, 0, 1, 1, 1], dtype=np.uint32), 2)
        with caplog.at_level("DEBUG", logger="conceptmine.mining"):
            book = mine_concepts(ds, MiningConfig(eps=0.1, min_pts=2))
        assert sorted(r.getMessage() for r in caplog.records) == [
            f"cell set=0 class={j} part={p} n={n} eps=0.1 min_pts=2 "
            f"clusters={clusters} noise={noise}"
            for j, p, n, clusters, noise in [(0, 0, 4, 1, 1), (0, 1, 4, 1, 0),
                                             (1, 0, 3, 0, 3), (1, 1, 3, 1, 1)]]
        (e,) = [e for e in book.entries if (e.class_id, e.part) == (1, 0)]
        assert (e.local_id, e.member_count) == (0, 3)
        np.testing.assert_array_equal(e.centroid, far.mean(axis=0))

    @pytest.mark.parametrize("d_f", [1, 2, 5])
    def test_means_match_reference_on_wide_ranging_features(self, d_f):
        """Values from about 1e-8 to 1e8 in one column round in the float64
        sums, so a summation order other than row by row shows in the bits,
        and so does the sign of a zero sum. Cells of 100 float32 values make
        the pairwise sum of ``ndarray.mean`` (at d_f = 1) and of
        ``np.add.reduceat`` differ in the bits of an eps-1e12 book."""
        rng = np.random.default_rng(d_f)
        parts = (rng.lognormal(0.0, 6.0, (300, 2, d_f))
                 * rng.choice([-1, 1], (300, 2, d_f)))
        parts[:, 1, 0] = rng.choice([0.0, -0.0], 300)
        ds = PartFeatureDataset(parts, np.zeros((300, d_f)),
                                np.repeat(np.arange(3), 100).astype(np.uint32), 3)
        for params in (MiningConfig(eps=1e12), MiningConfig()):
            assert book_bytes(mine_concepts(ds, params)) == \
                book_bytes(reference_mine_concepts(ds, params))

    def test_single_cell_single_concept(self):
        ds, _ = generate_synthetic(SyntheticSpec(
            n_classes=1, n_parts=1, feat_dim=8, samples_per_class=20,
            concepts_per_cell=1, noise_sigma=0.01, seed=5))
        book = mine_concepts(ds, MiningConfig(eps=0.2, min_pts=3))
        assert book.d_c == 1

    def test_member_counts_bounded_by_cell(self, planted):
        ds, _ = planted(samples_per_class=30, seed=6)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=3))
        for j in range(ds.n_classes):
            for p in range(ds.n_parts):
                total = sum(e.member_count for e in book.entries
                            if e.class_id == j and e.part == p)
                assert total <= 30

    def test_entries_ordered(self, planted):
        ds, _ = planted(seed=7)
        book = mine_concepts(ds)
        keys = [(e.class_id, e.part, e.local_id) for e in book.entries]
        assert keys == sorted(keys)

    def test_adaptive_defaults_work(self, planted):
        ds, _ = planted(seed=8)
        book = mine_concepts(ds)  # no params: per-cell adaptive
        assert book.d_c >= ds.n_classes * ds.n_parts
        book.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_names_the_first_non_finite_centroid(self, bad):
        e = lambda l, c: ConceptEntry(1, 0, l, np.array(c, dtype=np.float64), 1)
        book = ConceptBook(feat_dim=2, entries=[
            e(0, [0.0, 1.0]), e(1, [2.0, bad]), e(2, [bad, 0.0])])
        with pytest.raises(ValidationError,
                           match=r"concept \(1, 0, 1\) centroid is non-finite"):
            book.validate()

    def test_validate_refuses_a_centroid_not_an_ndarray(self):
        book = ConceptBook(feat_dim=2, entries=[ConceptEntry(0, 0, 0, [1.0, 2.0], 1)])
        with pytest.raises(ValidationError,
                           match=r"concept \(0, 0, 0\) centroid list is not an ndarray"):
            book.validate()


def small_book():
    """Cell (0,0) holds two close singleton centroids; cell (0,1) anchors
    D_max at exactly 1.0 from the origin centroid."""
    e = lambda j, p, l, c, m: ConceptEntry(j, p, l, np.array(c, dtype=np.float64), m)
    return ConceptBook(feat_dim=2, entries=[
        e(0, 0, 0, [0.0, 0.0], 1),
        e(0, 0, 1, [0.1, 0.0], 1),
        e(0, 1, 0, [1.0, 0.0], 1),
    ])


class TestMerge:
    def test_zero_threshold_identity(self):
        book = small_book()
        out = merge_centroids(book, MergeConfig(threshold_pct=0.0, level=1))
        assert out.d_c == book.d_c
        for a, b in zip(out.entries, book.entries):
            assert (a.class_id, a.part, a.local_id) == (b.class_id, b.part, b.local_id)
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert a.member_count == b.member_count

    def test_two_singletons_merge_at_weighted_mean(self):
        # D_max = 1.0, cutoff = 0.2; singleton Ward distance reduces to the
        # plain Euclidean distance 0.1 < 0.2.
        book = small_book()
        out = merge_centroids(book, MergeConfig(threshold_pct=20.0, level=1))
        assert out.d_c == 2
        merged = [e for e in out.entries if e.class_id == 0 and e.part == 0]
        assert len(merged) == 1
        np.testing.assert_allclose(merged[0].centroid, [0.05, 0.0])
        assert merged[0].member_count == 2

    def test_below_cut_no_merge(self):
        book = small_book()
        out = merge_centroids(book, MergeConfig(threshold_pct=5.0, level=1))
        assert out.d_c == 3  # 0.1 >= 0.05 cutoff

    def test_weighted_mean_uses_member_counts(self):
        e = lambda j, p, l, c, m: ConceptEntry(j, p, l, np.array(c, float), m)
        book = ConceptBook(feat_dim=1, entries=[
            e(0, 0, 0, [0.0], 3), e(0, 0, 1, [0.1], 1), e(0, 1, 0, [1.0], 1),
        ])
        out = merge_centroids(book, MergeConfig(threshold_pct=30.0, level=1))
        merged = [x for x in out.entries if x.part == 0]
        assert len(merged) == 1
        np.testing.assert_allclose(merged[0].centroid, [0.025])
        assert merged[0].member_count == 4

    def test_zero_threshold_identity_when_d_max_overflows(self):
        # D_max overflows to inf, so a zero threshold makes the cutoff
        # 0 * inf = nan; no Ward distance is below it.
        e = lambda j, l, c: ConceptEntry(j, 0, l, np.array([c]), 1)
        book = ConceptBook(feat_dim=1, entries=[
            e(0, 0, 0.0), e(0, 1, 1.0), e(1, 0, 1e200), e(1, 1, -1e200)])
        with np.errstate(over="ignore"):
            out = merge_centroids(book, MergeConfig(0.0, 1))
        assert [(x.class_id, x.local_id, x.member_count) for x in out.entries] \
            == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]

    def test_single_entry_unchanged(self):
        book = ConceptBook(feat_dim=1, entries=[
            ConceptEntry(0, 0, 0, np.array([1.0]), 2)])
        for pct in (0.0, 50.0, 100.0):
            for level in (1, 2, 3):
                out = merge_centroids(book, MergeConfig(pct, level))
                assert out.d_c == 1
                np.testing.assert_array_equal(out.entries[0].centroid, [1.0])

    def test_level_scopes(self):
        e = lambda j, p, l, c: ConceptEntry(j, p, l, np.array(c, float), 1)
        # Close pairs across parts (same class) and across classes,
        # plus a far anchor fixing D_max = 10.
        book = ConceptBook(feat_dim=1, entries=[
            e(0, 0, 0, [0.0]), e(0, 1, 0, [0.1]),
            e(1, 0, 0, [0.2]), e(1, 1, 0, [10.0]),
        ])
        assert merge_centroids(book, MergeConfig(5.0, 1)).d_c == 4
        assert merge_centroids(book, MergeConfig(5.0, 2)).d_c == 3
        assert merge_centroids(book, MergeConfig(5.0, 3)).d_c == 2

    def test_monotone_in_threshold_and_level(self, planted):
        ds, _ = planted(n_classes=3, n_parts=2, samples_per_class=30, seed=9)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=3))
        sizes = {}
        for pct in (0.0, 5.0, 10.0):
            for level in (1, 2, 3):
                sizes[(pct, level)] = merge_centroids(
                    book, MergeConfig(pct, level)).d_c
        for level in (1, 2, 3):
            assert sizes[(0.0, level)] >= sizes[(5.0, level)] >= sizes[(10.0, level)]
        for pct in (0.0, 5.0, 10.0):
            assert sizes[(pct, 1)] >= sizes[(pct, 2)] >= sizes[(pct, 3)]

    def test_idempotent(self, planted):
        ds, _ = planted(seed=10)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=3))
        cfg = MergeConfig(threshold_pct=15.0, level=2)
        once = merge_centroids(book, cfg)
        twice = merge_centroids(once, cfg)
        assert twice.d_c == once.d_c
        for a, b in zip(twice.entries, once.entries):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert (a.class_id, a.part, a.local_id, a.member_count) == \
                (b.class_id, b.part, b.local_id, b.member_count)

    def test_empty_book_rejected(self):
        with pytest.raises(ValidationError):
            merge_centroids(ConceptBook(feat_dim=2), MergeConfig(10.0, 1))


@functools.cache
def oracle_merge_books():
    """Books on which merge_centroids must match reference_merge_centroids."""
    def mined(spec, eps):
        ds, _ = generate_synthetic(spec)
        return mine_concepts(ds, MiningConfig(eps=eps,
                                              min_pts=None if eps is None else 3))

    def e(j, p, l, c, m=1):
        return ConceptEntry(j, p, l, np.array(c, dtype=np.float64), m)

    # The shapes of the mine-bigcell and report-dense benchmark books, with
    # fewer samples per class.
    bigcell = mined(SyntheticSpec(3, 2, 128, 60, 4, seed=0), 0.35)
    dense = mined(SyntheticSpec(6, 4, 32, 100, 8, seed=0), 0.3)
    order = np.random.default_rng(5).permutation(dense.d_c)
    shuffled = ConceptBook(dense.feat_dim, [
        e(x.class_id, x.part, 2 * x.local_id + 3, x.centroid, x.member_count)
        for x in (dense.entries[i] for i in order)])
    # Neither of those merges at any threshold (their member counts put every
    # Ward distance above D_max); adaptive eps splits this noisier set's
    # concepts into small fragments that do.
    noisy = mined(SyntheticSpec(5, 4, 24, 60, 6, noise_sigma=0.04, seed=3), None)
    return {
        "bigcell": bigcell,
        "dense": dense,
        "noisy-adaptive": noisy,
        "shuffled-gapped-ids": shuffled,
        "one-entry": ConceptBook(2, [e(0, 0, 0, [1.0, -2.0], 3)]),
        # equal weights on a unit grid: every nearest pair ties
        "tie-lattice": ConceptBook(2, [e(0, 0, 3 * a + b, [a, b])
                                       for a in range(3) for b in range(3)]),
        # cell (0, 0) merges down to one cluster; class 1 anchors D_max
        "merges-to-one": ConceptBook(1, [e(0, 0, l, [0.01 * l], l + 1)
                                         for l in range(4)]
                                     + [e(1, 0, 0, [1.0], 2), e(1, 0, 1, [0.5])]),
    }


class TestMergeOracle:
    def test_books_cover_their_cases(self):
        books = oracle_merge_books()
        assert books["dense"].d_c == 192
        assert books["one-entry"].d_c == 1
        out = merge_centroids(books["merges-to-one"], MergeConfig(10.0, 1))
        assert [(x.class_id, x.part, x.member_count) for x in out.entries] == \
            [(0, 0, 10), (1, 0, 2), (1, 0, 1)]
        assert merge_centroids(books["tie-lattice"], MergeConfig(50.0, 1)).d_c < 9
        sizes = {merge_centroids(books["noisy-adaptive"], MergeConfig(pct, 3)).d_c
                 for pct in (0.0, 20.0, 50.0, 100.0)}
        assert len(sizes) > 2

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("pct", [0.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    @pytest.mark.parametrize("name", ["bigcell", "dense", "noisy-adaptive",
                                      "shuffled-gapped-ids", "one-entry",
                                      "tie-lattice", "merges-to-one"])
    def test_matches_reference(self, name, pct, level):
        book = oracle_merge_books()[name]
        cfg = MergeConfig(pct, level)
        got, want = merge_centroids(book, cfg), reference_merge_centroids(book, cfg)
        assert got.feat_dim == want.feat_dim and got.meta == want.meta == {}
        assert [(x.class_id, x.part, x.local_id, x.member_count,
                 x.centroid.tobytes()) for x in got.entries] == \
            [(x.class_id, x.part, x.local_id, x.member_count,
              x.centroid.tobytes()) for x in want.entries]


class TestBookIo:
    def test_json_round_trip(self, planted, tmp_path):
        ds, _ = planted(seed=11)
        book = mine_concepts(ds)
        path = tmp_path / "book.json"
        book.meta = {"config_hash": "abc"}
        save_book(book, path, "json")
        out = load_book(path, "json")
        assert out.d_c == book.d_c
        for a, b in zip(out.entries, book.entries):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert (a.class_id, a.part, a.local_id, a.member_count) == \
                (b.class_id, b.part, b.local_id, b.member_count)

    def test_binary_round_trip(self, planted, tmp_path):
        ds, _ = planted(seed=12)
        book = mine_concepts(ds)
        path = tmp_path / "book.pcmb"
        save_book(book, path, "pcmb")
        out = load_book(path, "pcmb")
        for a, b in zip(out.entries, book.entries):
            np.testing.assert_array_equal(a.centroid, b.centroid)
