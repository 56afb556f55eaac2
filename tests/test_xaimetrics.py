import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conceptmine import head as head_module
from conceptmine import xaimetrics
from conceptmine.cav import compute_cav_batch
from conceptmine.dataset import PartFeatureDataset, SyntheticSpec, generate_synthetic
from conceptmine.errors import ValidationError
from conceptmine.head import HeadTrainConfig, SparseHead, accuracy, train_head
from conceptmine.mining import MiningConfig, mine_concepts
from conceptmine.xaimetrics import (_assignment_min_costs, config_hash,
                                    consistency, faithfulness, hungarian,
                                    metric_report, save_report,
                                    save_report_csv, sparseness, stability)
from oracles import (exhaustive_assignment, lexicographic_stability,
                     pairwise_consistency, reference_assignment_min_cost,
                     reference_faithfulness, reference_stability)


def orthogonal_concept_setup(n_classes=4, per_class=10, d_f=32, seed=0):
    """One part, one concept per class, orthogonal planted means, zero noise.

    Each class is decided by a single dominant concept; the indicator head
    (W1[e, class(e)] = 1, W2 = 0, b = 0) classifies perfectly, and deleting
    the top concept leaves an all-zero CAV row.
    """
    means = np.eye(n_classes, d_f, dtype=np.float32)
    n = n_classes * per_class
    labels = np.repeat(np.arange(n_classes, dtype=np.uint32), per_class)
    parts = means[labels.astype(int)][:, None, :]
    ds = PartFeatureDataset(parts, np.zeros((n, d_f), np.float32), labels,
                            n_classes)
    book = mine_concepts(ds, MiningConfig(eps=0.1, min_pts=1))
    z, g = compute_cav_batch(ds, book)
    w1 = np.zeros((book.d_c, n_classes))
    for idx, e in enumerate(book.entries):
        w1[idx, e.class_id] = 1.0
    head = SparseHead(w1, np.zeros((d_f, n_classes)), np.zeros(n_classes))
    return ds, book, z, g, head


def cost_stack(kind, c, m, rng):
    """A [c, m, m] stack of assignment problems of one kind."""
    if kind == "random":
        return rng.uniform(0, 1, size=(c, m, m))
    if kind == "ties":  # an integer lattice rounded to 0.1
        return np.round(rng.integers(0, 4, size=(c, m, m)) * 0.1, 1)
    if kind == "zero-rows":
        cost = rng.uniform(0, 1, size=(c, m, m))
        rows = rng.integers(0, 2, size=(c, m)).astype(bool)
        cost[rows] = 0.0
        return cost
    return np.full((c, m, m), 0.7)  # all equal


class TestBatchedAssignment:
    """The batched solver against exhaustive search (cost) and against the
    list solver one matrix at a time (bit for bit)."""

    @pytest.mark.parametrize("kind", ["random", "ties", "zero-rows", "equal"])
    @pytest.mark.parametrize("m", range(9))
    def test_matches_exhaustive_and_list_solver(self, kind, m):
        rng = np.random.default_rng(m)
        cost = cost_stack(kind, 5 if m == 8 else 20, m, rng)
        got = _assignment_min_costs(cost)
        want = np.array([reference_assignment_min_cost(c) for c in cost])
        assert got.shape == (len(cost),)
        assert got.tobytes() == want.tobytes()
        for c, value in zip(cost, got):
            assert value == pytest.approx(exhaustive_assignment(c)[0],
                                          rel=0, abs=1e-12)

    def test_problems_finishing_on_different_steps(self):
        # With 1 - I every row finds a free column in one step; with an
        # all-equal or upper-triangular matrix row i takes i steps.
        m = 6
        rng = np.random.default_rng(3)
        mixed = np.stack([1.0 - np.eye(m), np.full((m, m), 0.7),
                          np.triu(np.ones((m, m))),
                          *rng.uniform(0, 1, size=(4, m, m)),
                          *cost_stack("ties", 4, m, rng)])
        for cost in (mixed, mixed[::-1]):
            want = np.array([reference_assignment_min_cost(c) for c in cost])
            assert _assignment_min_costs(cost).tobytes() == want.tobytes()

    def test_empty_stack(self):
        assert _assignment_min_costs(np.zeros((0, 4, 4))).shape == (0,)


class TestHungarian:
    def test_zero_diagonal_forced(self):
        cost = np.ones((4, 4)) - np.eye(4)
        perm = hungarian(cost)
        np.testing.assert_array_equal(perm, [0, 1, 2, 3])

    def test_all_equal_tie_breaks_identity(self):
        perm = hungarian(np.full((5, 5), 3.7))
        np.testing.assert_array_equal(perm, np.arange(5))

    def test_matches_exhaustive_cost(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 4, 6):
            for _ in range(15):
                cost = rng.uniform(0, 10, size=(m, m))
                perm = hungarian(cost)
                assert sorted(perm.tolist()) == list(range(m))
                best, _ = exhaustive_assignment(cost)
                got = float(cost[np.arange(m), perm].sum())
                assert got == pytest.approx(best, abs=1e-9)

    def test_lexicographic_among_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            # Small integer costs create plenty of ties.
            cost = rng.integers(0, 3, size=(4, 4)).astype(float)
            perm = hungarian(cost)
            _, want = exhaustive_assignment(cost)
            np.testing.assert_array_equal(perm, want)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            hungarian(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        cost = np.zeros((2, 2))
        cost[0, 0] = np.inf
        with pytest.raises(ValidationError):
            hungarian(cost)

    def test_negative_costs_ok(self):
        rng = np.random.default_rng(2)
        cost = rng.normal(size=(5, 5))
        perm = hungarian(cost)
        best, _ = exhaustive_assignment(cost)
        assert float(cost[np.arange(5), perm].sum()) == pytest.approx(best, abs=1e-9)


class TestFaithfulness:
    def test_zero_n_exact_zero(self):
        _, book, z, g, head = orthogonal_concept_setup()
        _, drops = faithfulness(z, g, np.repeat(np.arange(4), 10), head, book, [0])
        assert drops[0] == 0.0

    def test_dominant_concept_drop_to_chance(self):
        ds, book, z, g, head = orthogonal_concept_setup(n_classes=4)
        y = ds.labels.astype(np.int64)
        acc, drops = faithfulness(z, g, y, head, book, [1])
        assert acc == 100.0
        assert drops[1] == pytest.approx(100.0 * (1 - 1 / 4), abs=1e-9)

    def test_monotone_in_n(self):
        ds, book, z, g, head = orthogonal_concept_setup(n_classes=5)
        y = ds.labels.astype(np.int64)
        _, drops = faithfulness(z, g, y, head, book, [1, 2, 3, 4, 5])
        vals = [drops[n] for n in (1, 2, 3, 4, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rescaling_invariance(self):
        ds, book, z, g, head = orthogonal_concept_setup()
        y = ds.labels.astype(np.int64)
        base = faithfulness(z, g, y, head, book, [1, 2])
        scaled_head = SparseHead(2.5 * head.W1, head.W2, head.b)
        scaled = faithfulness(0.5 * z, g, y, scaled_head, book, [1, 2])
        assert scaled == base

    def test_n_above_dc_clamped_with_warning(self, caplog):
        ds, book, z, g, head = orthogonal_concept_setup()
        y = ds.labels.astype(np.int64)
        with caplog.at_level("WARNING"):
            _, drops = faithfulness(z, g, y, head, book, [book.d_c + 5])
        assert "clamping" in caplog.text
        assert book.d_c + 5 in drops

    def test_width_mismatch(self):
        ds, book, z, g, head = orthogonal_concept_setup()
        with pytest.raises(ValidationError):
            faithfulness(z[:, :-1], g, ds.labels, head, book, [1])

    def test_one_predict_per_nonzero_n_and_one_clean(self, monkeypatch):
        """The clean base accuracy and the ranking class share one predict."""
        ds, book, z, g, head = orthogonal_concept_setup()
        calls, predict = [], head_module.predict

        def counted(*args):
            calls.append(args)
            return predict(*args)

        for module in (head_module, xaimetrics):
            monkeypatch.setattr(module, "predict", counted)
        faithfulness(z, g, ds.labels, head, book, [0, 1, 2, 3])
        assert len(calls) == 3 + 1

    def test_accuracy_is_the_clean_accuracy(self):
        from test_occlusion import fitted
        ds, book, head = fitted(seed=9, scrub_g=True)
        z, g = compute_cav_batch(ds, book)
        acc, drops = faithfulness(z, g, ds.labels, head, book, [1, 3])
        assert type(acc) is float and type(drops) is dict
        assert acc == accuracy(z, g, ds.labels, head)
        assert drops == reference_faithfulness(z, g, ds.labels, head, book,
                                               [1, 3])


def duplicated_location_dataset(seed=0, copies=30):
    """Every (class, part) cell holds exact copies of G fixed locations, so
    any stratified fold mines the identical concept book."""
    rng = np.random.default_rng(seed)
    n_classes, n_parts, G, d_f = 2, 2, 2, 8
    locs = rng.normal(size=(n_classes, n_parts, G, d_f))
    locs /= np.linalg.norm(locs, axis=-1, keepdims=True)
    n = n_classes * G * copies
    parts = np.zeros((n, n_parts, d_f), dtype=np.float32)
    labels = np.zeros(n, dtype=np.uint32)
    i = 0
    for j in range(n_classes):
        for concept in range(G):
            for _ in range(copies):
                for p in range(n_parts):
                    parts[i, p] = locs[j, p, concept]
                labels[i] = j
                i += 1
    return PartFeatureDataset(parts, np.zeros((n, d_f), np.float32), labels,
                              n_classes)


class TestStability:
    def test_identical_folds_score_exactly_100(self):
        ds = duplicated_location_dataset()
        s = stability(ds, 2, MiningConfig(eps=0.05, min_pts=1), seed=3)
        assert s == 100.0

    def test_identical_zero_centroids_score_zero(self):
        # Class 0's only part is all zeros, so every fold mines the same
        # all-zero centroid there. A zero vector has no direction: that
        # pair scores 0, not the 1 of identical nonzero centroids, and the
        # nonzero class 1 cell scores 1.
        n, d_f = 20, 8
        parts = np.zeros((n, 1, d_f), dtype=np.float32)
        parts[10:, 0, 0] = 1.0
        labels = np.repeat(np.arange(2, dtype=np.uint32), 10)
        ds = PartFeatureDataset(parts, np.zeros((n, d_f), np.float32),
                                labels, 2)
        params = MiningConfig(eps=0.05, min_pts=1)
        got = stability(ds, 2, params, seed=0)
        assert got == reference_stability(ds, 2, params, seed=0)
        assert got == 50.0

    def test_split_size_classes_give_the_same_score(self, monkeypatch):
        # One problem per batch scores exactly as whole size classes do.
        ds, _ = generate_synthetic(SyntheticSpec(
            n_classes=2, n_parts=2, feat_dim=16, samples_per_class=60,
            concepts_per_cell=4, noise_sigma=0.05, seed=5))
        params = MiningConfig(eps=0.3, min_pts=3)
        whole = stability(ds, 4, params, seed=2)
        monkeypatch.setattr(xaimetrics, "_STACK_ENTRIES", 1)
        assert stability(ds, 4, params, seed=2) == whole
        assert whole == reference_stability(ds, 4, params, seed=2)

    def test_planted_low_noise_high_stability(self):
        spec = SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16,
                             samples_per_class=100, concepts_per_cell=2,
                             noise_sigma=0.01, min_separation=1.0, seed=1)
        ds, _ = generate_synthetic(spec)
        assert stability(ds, 5, MiningConfig(eps=0.12, min_pts=3), seed=0) >= 99.0

    @pytest.mark.parametrize("concepts, k, eps", [(2, 5, 0.12), (8, 3, 0.3)])
    def test_matches_lexicographic_assignment(self, concepts, k, eps):
        # Planted (2 concepts per cell) and dense (8 per cell) datasets.
        spec = SyntheticSpec(n_classes=2, n_parts=2, feat_dim=16,
                             samples_per_class=120,
                             concepts_per_cell=concepts, noise_sigma=0.02,
                             min_separation=1.0, seed=concepts)
        ds, _ = generate_synthetic(spec)
        for params in (MiningConfig(eps=eps, min_pts=3), MiningConfig()):
            got = stability(ds, k, params, seed=1)
            want = lexicographic_stability(ds, k, params, seed=1)
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_random_unit_features_unstable(self):
        vals = []
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            n = 40
            pf = rng.normal(size=(n, 1, 64))
            pf /= np.linalg.norm(pf, axis=-1, keepdims=True)
            labels = np.repeat(np.arange(2), n // 2).astype(np.uint32)
            ds = PartFeatureDataset(pf.astype(np.float32),
                                    np.zeros((n, 64), np.float32), labels, 2)
            vals.append(stability(ds, 2, MiningConfig(eps=1e-3, min_pts=2),
                                  seed=seed))
        assert float(np.mean(vals)) < 30.0

    def test_memory_bounded_on_pipeline_m_shape(self):
        # 10 classes x 6 parts x 64 dims, 200 per class, k = 5: 300 fold
        # cells of 40 points mined in shared batches. Batches of 2^19-entry
        # temporaries would peak near 18 MiB here.
        ds, _ = generate_synthetic(SyntheticSpec(
            n_classes=10, n_parts=6, feat_dim=64, samples_per_class=200,
            concepts_per_cell=3, noise_sigma=0.02, seed=0))
        tracemalloc.start()
        try:
            stability(ds, 5, MiningConfig(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestConsistency:
    def test_orthogonal_classes(self):
        z = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
        intra, inter = consistency(z, np.array([0, 0, 1, 1]))
        assert intra == 100.0
        assert inter == 0.0

    def test_all_identical(self):
        z = np.tile(np.array([0.0, 1.0, 0.0]), (6, 1))
        intra, inter = consistency(z, np.array([0, 0, 0, 1, 1, 1]))
        assert intra == 100.0
        assert inter == 100.0

    def test_relabeling_symmetric(self, planted):
        ds, _ = planted(seed=2)
        book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=3))
        z, _ = compute_cav_batch(ds, book)
        y = ds.labels.astype(int)
        base = consistency(z, y)
        relabeled = consistency(z, (y + 1) % ds.n_classes)
        assert base == pytest.approx(relabeled, rel=1e-12)

    def test_planted_margin(self):
        spec = SyntheticSpec(n_classes=5, n_parts=4, feat_dim=32,
                             samples_per_class=40, concepts_per_cell=2,
                             noise_sigma=0.02, min_separation=1.0, seed=7)
        ds, _ = generate_synthetic(spec)
        book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
        z, _ = compute_cav_batch(ds, book)
        intra, inter = consistency(z, ds.labels)
        assert intra - inter >= 30.0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            consistency(np.ones((3, 2)), np.zeros(3, dtype=int))

    def test_all_singletons_rejected(self):
        with pytest.raises(ValidationError, match="singleton"):
            consistency(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_singleton_classes_skipped(self):
        z = np.array([[1.0, 0], [1.0, 0], [0, 1.0]])
        intra, inter = consistency(z, np.array([0, 0, 1]))
        assert intra == 100.0  # class 1 is a singleton and is skipped

    @pytest.mark.parametrize("concepts", [2, 8], ids=["planted", "dense"])
    def test_matches_pairwise_gram(self, concepts):
        spec = SyntheticSpec(n_classes=4, n_parts=3, feat_dim=16,
                             samples_per_class=40, concepts_per_cell=concepts,
                             noise_sigma=0.02, seed=3)
        ds, _ = generate_synthetic(spec)
        z, _ = compute_cav_batch(ds, mine_concepts(ds, MiningConfig(0.3, 3)))
        y = ds.labels.astype(np.int64)
        z[::7] = 0.0  # all-zero CAV rows have cosine 0 with everything
        y_single = y.copy()
        y_single[[5, 50]] = [ds.n_classes, ds.n_classes + 1]  # two singletons
        for labels in (y, y_single):
            got = consistency(z, labels)
            want = pairwise_consistency(z, labels)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_memory_linear_in_n(self):
        # The n x n float64 Gram matrix at n = 6000 alone is 288 MB.
        rng = np.random.default_rng(0)
        z = np.maximum(rng.normal(size=(6000, 40)), 0.0)
        y = np.arange(6000) % 12
        tracemalloc.start()
        try:
            consistency(z, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSparseness:
    def test_one_hot_rows(self):
        z = np.eye(4)
        assert sparseness(z) == 100.0

    def test_uniform_rows(self):
        z = np.ones((3, 4))
        assert sparseness(z) == 0.0

    def test_hand_value(self):
        z = np.array([[1.0, 1.0, 0.0, 0.0]])
        assert sparseness(z) == pytest.approx(58.58, abs=0.01)

    def test_all_zero_row_scores_100(self):
        z = np.vstack([np.zeros(4), np.eye(4)[0]])
        assert sparseness(z) == 100.0

    def test_range_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 1, size=(20, 6))
        s = sparseness(z)
        assert 0.0 <= s <= 100.0
        assert sparseness(4.0 * z) == s

    def test_needs_two_columns(self):
        with pytest.raises(ValidationError):
            sparseness(np.ones((3, 1)))


class TestReport:
    @pytest.fixture
    def report(self, planted):
        ds, _ = planted(samples_per_class=12, seed=2)
        book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
        z, g = compute_cav_batch(ds, book)
        head = train_head(z, g, ds.labels, HeadTrainConfig(epochs=20))
        return metric_report(ds, z, g, book, head, 3, MiningConfig(), 7,
                             [3, 1, 10], {"eps": 0.1, "k": 3})

    def test_json_round_shape(self, tmp_path, report):
        import json
        path = tmp_path / "r.json"
        save_report(report, path)
        payload = json.load(open(path))
        assert payload == report
        assert set(payload) == {
            "config", "config_hash", "seed", "faithfulness", "stability",
            "consistency_intra", "consistency_inter", "sparseness",
            "accuracies"}
        assert list(report["faithfulness"]) == ["1", "3", "10"]
        assert payload["config_hash"] == config_hash({"eps": 0.1, "k": 3})
        assert payload["seed"] == 7
        assert set(payload["accuracies"]) == {
            "full", "prototypical_only", "nonprototypical_only"}

    def test_csv_row(self, tmp_path, report):
        import csv
        path = tmp_path / "r.csv"
        save_report_csv(report, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["config_hash", "seed", "consistency_intra",
                           "consistency_inter", "F(1)", "F(3)", "F(10)",
                           "sparseness", "stability"]
        f = report["faithfulness"]
        assert rows[1] == [str(v) for v in (
            report["config_hash"], 7, report["consistency_intra"],
            report["consistency_inter"], f["1"], f["3"], f["10"],
            report["sparseness"], report["stability"])]

    def test_values_and_predicts_where_faithfulness_moves(self, monkeypatch):
        """On class-free g, F(n) is not 0; the report's full accuracy is the
        base of every F(n), from the one clean predict of faithfulness."""
        from test_occlusion import fitted
        ds, book, head = fitted(seed=9, scrub_g=True)
        z, g = compute_cav_batch(ds, book)
        ns = [1, 2, 3, 4, 5]
        calls, predict = [], head_module.predict

        def counted(*args):
            calls.append(args)
            return predict(*args)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "conceptmine"
                    and getattr(module, "predict", None) is predict):
                monkeypatch.setattr(module, "predict", counted)
        report = metric_report(ds, z, g, book, head, 3,
                               MiningConfig(eps=0.3, min_pts=3), 0, ns, {})
        monkeypatch.undo()

        want = reference_faithfulness(z, g, ds.labels, head, book, ns)
        assert report["faithfulness"] == {str(n): want[n] for n in ns}
        assert max(want.values()) > 0
        assert report["accuracies"] == {
            "full": accuracy(z, g, ds.labels, head),
            "prototypical_only": accuracy(
                z, g, ds.labels, replace(head, W2=np.zeros_like(head.W2))),
            "nonprototypical_only": accuracy(
                z, g, ds.labels, replace(head, W1=np.zeros_like(head.W1))),
        }
        # One clean predict, one per distinct nonzero clamped n, one per
        # one-sided head: 8 at ns 1..5.
        steps = {min(n, book.d_c) for n in ns if n}
        assert len(calls) == 1 + len(steps) + 2 == 8

    def test_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
