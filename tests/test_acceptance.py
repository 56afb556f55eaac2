"""Acceptance suite: one test per criterion, each with its stated tolerance
and runtime budget. Run with ``pytest tests/test_acceptance.py -v -s`` to see
one pass line per criterion.
"""

import json
import time

import numpy as np
import pytest

from conceptmine.cav import compute_cav_batch
from conceptmine.cli import main as cli_main
from conceptmine.dataset import (PartFeatureDataset, SyntheticSpec,
                                 generate_synthetic)
from conceptmine.head import (HeadTrainConfig, predict, soft_threshold,
                              train_head)
from conceptmine.mining import MergeConfig, MiningConfig, dbscan, merge_centroids, mine_concepts
from conceptmine.occlusion import OcclusionConfig, occlusion_eval
from conceptmine.partproto import PrototypeCenters, mcc_gradients, mcc_loss
from conceptmine.xaimetrics import consistency, faithfulness, hungarian, sparseness, stability
from oracles import (brute_force_dbscan, canonical_labels,
                     central_difference_grad, exhaustive_assignment,
                     gd_softmax_oracle, mcc_instance_away_from_kinks)
from test_xaimetrics import duplicated_location_dataset


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.2f}s exceeds {self.limit}s budget"
        return False


def report(criterion, timer, detail):
    print(f"\n[PASS] criterion {criterion} ({timer.elapsed:.2f}s "
          f"< {timer.limit:.0f}s): {detail}")


def test_criterion_1_dbscan_oracle_equivalence():
    rng = np.random.default_rng(101)
    with Timer(10.0) as t:
        for trial in range(100):
            n = int(rng.integers(10, 201))
            d = int(rng.integers(1, 9))
            if trial % 2 == 0:
                pts = rng.uniform(0, 1, size=(n, d))
            else:
                centers = rng.uniform(0, 1, size=(4, d)) * 3
                pts = centers[rng.integers(0, 4, size=n)] \
                    + 0.1 * rng.standard_normal((n, d))
            eps = float(rng.uniform(0.05, 0.5)) * np.sqrt(d)
            min_pts = int(rng.integers(1, 8))
            got = dbscan(pts, MiningConfig(eps=eps, min_pts=min_pts))
            want = brute_force_dbscan(pts, eps, min_pts)
            np.testing.assert_array_equal(
                canonical_labels(got), canonical_labels(want),
                err_msg=f"trial {trial}: n={n} d={d} eps={eps} min_pts={min_pts}")
    report(1, t, "100 random instances identical to brute-force DBSCAN "
                 "up to relabeling")


def test_criterion_2_hungarian_optimality():
    rng = np.random.default_rng(202)
    with Timer(5.0) as t:
        for trial in range(200):
            m = 2 + trial % 6  # m in 2..7
            cost = rng.uniform(-5, 10, size=(m, m))
            perm = hungarian(cost)
            assert sorted(perm.tolist()) == list(range(m))
            got = float(cost[np.arange(m), perm].sum())
            best, _ = exhaustive_assignment(cost)
            assert got == pytest.approx(best, abs=1e-9), f"trial {trial}, m={m}"
    report(2, t, "200 matrices (m <= 7) match exhaustive search exactly")


def test_criterion_3_mcc_gradient_check():
    rng = np.random.default_rng(303)
    with Timer(5.0) as t:
        for trial in range(100):
            b = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(2, 7))
            batch, centers = mcc_instance_away_from_kinks(rng, b=b, k=k, d=d)
            analytic = mcc_gradients(batch, PrototypeCenters(centers), 0.3, 1.5)
            numeric = central_difference_grad(
                lambda c: mcc_loss(batch, PrototypeCenters(c), 0.3, 1.5),
                centers, h=1e-5)
            rel = np.abs(analytic - numeric).max() / \
                max(np.abs(numeric).max(), 1e-12)
            assert rel <= 1e-4, f"trial {trial}: rel err {rel:.2e}"
    report(3, t, "analytic MCC gradient within 1e-4 of central differences "
                 "on 100 instances")


def _separable_cavs(seed=0):
    spec = SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16,
                         samples_per_class=10, concepts_per_cell=1,
                         noise_sigma=0.02, seed=seed)
    ds, _ = generate_synthetic(spec)
    book = mine_concepts(ds, MiningConfig(eps=0.2, min_pts=2))
    z, g = compute_cav_batch(ds, book)
    return z, g, ds.labels.astype(np.int64)


def test_criterion_4_elastic_net_head():
    with Timer(30.0) as t:
        z, g, y = _separable_cavs()

        # (a) lambda = 0 separable fit vs independent optimizer oracle.
        objs = []
        head = train_head(z, g, y, HeadTrainConfig(lam=0.0, gamma=0.5, lr=2.0,
                                                   epochs=800),
                          on_epoch=lambda e, o, s, u, w: objs.append(o))
        assert float(np.mean(predict(z, g, head) == y)) == 1.0
        assert all(a >= b for a, b in zip(objs, objs[1:]))
        *_, obj_ref = gd_softmax_oracle(z, g, y, lr=2.0, iters=20000)
        assert abs(objs[-1] - obj_ref) <= 1e-3

        # (b) monotone objective and the dead-zone invariant with an
        # active penalty, checked after every prox step.
        cfg = HeadTrainConfig(lam=0.1, gamma=0.8, lr=2.0, epochs=200)
        objs2 = []

        def check(epoch, obj, step, pre_prox, w1):
            objs2.append(obj)
            thresh = step * cfg.lam * cfg.gamma
            assert (w1[np.abs(pre_prox) <= thresh] == 0.0).all()
            np.testing.assert_array_equal(w1, soft_threshold(pre_prox, thresh))

        train_head(z, g, y, cfg, on_epoch=check)
        assert len(objs2) == cfg.epochs
        assert all(a >= b for a, b in zip(objs2, objs2[1:]))
    report(4, t, "monotone objective; lambda=0 fit within 1e-3 of oracle at "
                 "100% accuracy; dead zone holds every step")


def test_criterion_5_planted_concept_recovery(tmp_path):
    with Timer(60.0) as t:
        spec = SyntheticSpec(n_classes=5, n_parts=4, feat_dim=32,
                             samples_per_class=40, concepts_per_cell=3,
                             noise_sigma=0.02, min_separation=1.0, seed=17)
        ds, gt = generate_synthetic(spec)
        params = MiningConfig(eps=0.3, min_pts=3)
        book = mine_concepts(ds, params)

        feats = ds.part_features.astype(np.float64)
        pure = 0
        total = 0
        for j in range(spec.n_classes):
            idx = np.flatnonzero(ds.labels == j)
            for p in range(spec.n_parts):
                cell_entries = [e for e in book.entries
                                if e.class_id == j and e.part == p]
                assert len(cell_entries) == spec.concepts_per_cell, \
                    f"cell ({j},{p}) has {len(cell_entries)} clusters"
                means = gt.planted_means[j, p].astype(np.float64)
                for e in cell_entries:
                    err = np.linalg.norm(means - e.centroid, axis=1).min()
                    assert err <= 0.05, f"cell ({j},{p}) centroid error {err:.3f}"
                # Re-run the cell clustering to recover memberships and
                # score them against the planted assignment.
                labels = dbscan(feats[idx, p, :], params)
                for l in range(int(labels.max()) + 1):
                    members = idx[labels == l]
                    planted = gt.assignment[members, p]
                    counts = np.bincount(planted, minlength=spec.concepts_per_cell)
                    pure += int(counts.max())
                    total += len(members)
        purity = pure / total
        assert purity >= 0.99, f"assignment purity {purity:.4f}"

        out = tmp_path / "acc5"
        ds_path = tmp_path / "acc5.pfd"
        from conceptmine.dataset import save_dataset
        save_dataset(ds, ds_path)
        rc = cli_main(["pipeline", "--data", str(ds_path), "--seed", "17",
                       "--epochs", "40", "--eps", "0.3", "--min-pts", "3",
                       "--lam", "0.001", "--k", "5", "-o", str(out)])
        assert rc == 0
        manifest = json.load(open(out / "manifest.json"))
        acc = manifest["accuracies"]["full"]
        assert acc >= 95.0, f"pipeline training accuracy {acc:.2f}%"
    report(5, t, f"G clusters per cell, purity {purity:.4f} >= 0.99, "
                 f"centroid error <= 0.05, pipeline accuracy {acc:.1f}%")


def _scrubbed_planted(seed, n_parts=4):
    """Planted dataset whose g carries no class signal, so faithfulness
    reflects the concept route only."""
    spec = SyntheticSpec(n_classes=4, n_parts=n_parts, feat_dim=24,
                         samples_per_class=25, concepts_per_cell=2,
                         noise_sigma=0.02, min_separation=1.0, seed=seed)
    ds, _ = generate_synthetic(spec)
    rng = np.random.default_rng(seed + 999)
    noise = 0.05 * rng.standard_normal((ds.n_samples, ds.feat_dim))
    return PartFeatureDataset(ds.part_features, noise.astype(np.float32),
                              ds.labels, ds.n_classes)


def test_criterion_6_metric_sanity():
    from test_xaimetrics import orthogonal_concept_setup
    with Timer(60.0) as t:
        # F(0) = 0 exactly and the chance-drop construction.
        ds0, book0, z0, g0, head0 = orthogonal_concept_setup(n_classes=4)
        y0 = ds0.labels.astype(np.int64)
        drops0 = faithfulness(z0, g0, y0, head0, book0, [0, 1])
        assert drops0[0] == 0.0
        assert drops0[1] == pytest.approx(75.0, abs=1e-9)

        # F(n) non-decreasing in n for >= 95% of 20 seeds.
        monotone = 0
        for seed in range(20):
            ds = _scrubbed_planted(seed)
            book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
            z, g = compute_cav_batch(ds, book)
            head = train_head(z, g, ds.labels,
                              HeadTrainConfig(lam=0.001, gamma=0.5, epochs=120))
            drops = faithfulness(z, g, ds.labels.astype(np.int64), head, book,
                                 [1, 2, 3, 4, 5])
            vals = [drops[n] for n in (1, 2, 3, 4, 5)]
            monotone += all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert monotone >= 19, f"monotone for only {monotone}/20 seeds"

        # Consistency margin on planted data.
        spec = SyntheticSpec(n_classes=5, n_parts=4, feat_dim=32,
                             samples_per_class=40, concepts_per_cell=2,
                             noise_sigma=0.02, min_separation=1.0, seed=7)
        dsc, _ = generate_synthetic(spec)
        bookc = mine_concepts(dsc, MiningConfig(eps=0.3, min_pts=3))
        zc, _ = compute_cav_batch(dsc, bookc)
        intra, inter = consistency(zc, dsc.labels)
        assert intra - inter >= 30.0, f"margin {intra - inter:.1f}"

        # Hoyer hand value.
        assert sparseness(np.array([[1.0, 1.0, 0.0, 0.0]])) == \
            pytest.approx(58.58, abs=0.01)

        # Stability: exactly 100 on duplicated folds, >= 99 on planted
        # sigma = 0.01 data.
        dup = duplicated_location_dataset()
        assert stability(dup, 2, MiningConfig(eps=0.05, min_pts=1), seed=3) \
            == 100.0
        spec_s = SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16,
                               samples_per_class=100, concepts_per_cell=2,
                               noise_sigma=0.01, min_separation=1.0, seed=1)
        ds_s, _ = generate_synthetic(spec_s)
        stab = stability(ds_s, 5, MiningConfig(eps=0.12, min_pts=3), seed=0)
        assert stab >= 99.0, f"stability {stab:.2f}"
    report(6, t, f"F(0)=0, F(1) chance drop, monotone {monotone}/20, "
                 f"margin {intra - inter:.0f}, Hoyer 58.58, "
                 f"stability 100 / {stab:.2f}")


def _duplicate_rich_book():
    """Handcrafted book with near-duplicate centroids inside cells, across
    parts, and across classes, plus a far anchor pinning D_max = 100
    (cutoffs 5 and 10 at the 5% and 10% thresholds)."""
    from conceptmine.mining import ConceptBook, ConceptEntry

    def e(j, p, l, x, y):
        return ConceptEntry(j, p, l, np.array([x, y], dtype=np.float64), 1)

    return ConceptBook(feat_dim=2, entries=[
        # cell (0,0): chain 0 -- 3 -- 8: one merge at 5%, full merge at 10%
        e(0, 0, 0, 0.0, 0.0), e(0, 0, 1, 3.0, 0.0), e(0, 0, 2, 8.0, 0.0),
        # cell (0,1): pair 4 apart, merges at 5%
        e(0, 1, 0, 0.0, 50.0), e(0, 1, 1, 4.0, 50.0),
        # class 1 duplicates across parts (distance 2): only level >= 2 merges
        e(1, 0, 0, 0.0, 20.0), e(1, 1, 0, 2.0, 20.0),
        # cross-class duplicates (distance 3): only level 3 merges
        e(1, 0, 1, 0.0, 30.0), e(2, 0, 0, 3.0, 30.0),
        # far anchor fixing the book-wide maximum distance
        e(2, 1, 0, 0.0, -50.0), e(2, 1, 1, 0.0, 50.0),
    ])


def test_criterion_7_merging_monotonicity():
    with Timer(10.0) as t:
        spec = SyntheticSpec(n_classes=4, n_parts=3, feat_dim=16,
                             samples_per_class=30, concepts_per_cell=2,
                             noise_sigma=0.02, min_separation=1.0, seed=23)
        ds, _ = generate_synthetic(spec)
        mined = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))

        grids = {}
        for name, book in (("mined", mined), ("crafted", _duplicate_rich_book())):
            sizes = {}
            for pct in (0.0, 5.0, 10.0):
                for level in (1, 2, 3):
                    sizes[(pct, level)] = merge_centroids(
                        book, MergeConfig(pct, level)).d_c
            for level in (1, 2, 3):
                assert sizes[(0.0, level)] >= sizes[(5.0, level)] \
                    >= sizes[(10.0, level)], name
            for pct in (0.0, 5.0, 10.0):
                assert sizes[(pct, 1)] >= sizes[(pct, 2)] >= sizes[(pct, 3)], name
            grids[name] = sizes

        # The duplicate-rich book must show genuine compression.
        crafted = grids["crafted"]
        assert crafted[(10.0, 3)] < crafted[(5.0, 3)] < crafted[(0.0, 1)]
        assert crafted[(5.0, 2)] < crafted[(5.0, 1)]
        assert crafted[(5.0, 3)] < crafted[(5.0, 2)]

        identity = merge_centroids(mined, MergeConfig(0.0, 1))
        assert identity.d_c == mined.d_c
        for a, b in zip(identity.entries, mined.entries):
            assert (a.class_id, a.part, a.local_id, a.member_count) == \
                (b.class_id, b.part, b.local_id, b.member_count)
            np.testing.assert_array_equal(a.centroid, b.centroid)
    report(7, t, f"crafted grid {sorted(crafted.items())} strictly "
                 f"compresses and stays monotone; 0%/level-1 is the identity")


def test_criterion_8_occlusion_trend():
    with Timer(60.0) as t:
        cfg = OcclusionConfig(fractions=(0.1, 0.2, 0.3))
        strict = 0
        monotone = 0
        drops8 = []
        drops1 = []
        for seed in range(10):
            curves = {}
            for k in (8, 1):
                ds = _scrubbed_planted(seed, n_parts=k)
                book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
                z, g = compute_cav_batch(ds, book)
                head = train_head(z, g, ds.labels,
                                  HeadTrainConfig(lam=0.001, gamma=0.5,
                                                  epochs=120))
                curves[k] = occlusion_eval(ds, head, book, cfg)
            acc8 = [r[1] for r in curves[8]]
            acc1 = [r[1] for r in curves[1]]
            drops8.append(acc8[0] - acc8[-1])
            drops1.append(acc1[0] - acc1[-1])
            strict += drops8[-1] < drops1[-1]
            monotone += all(a >= b - 1e-9 for a, b in zip(acc8, acc8[1:])) \
                and all(a >= b - 1e-9 for a, b in zip(acc1, acc1[1:]))
        assert float(np.mean(drops8)) < float(np.mean(drops1))
        assert strict >= 9, f"strictly smaller drop in only {strict}/10 seeds"
        assert monotone >= 9, f"monotone in only {monotone}/10 seeds"
    report(8, t, f"K=8 mean drop {np.mean(drops8):.1f} < K=1 "
                 f"{np.mean(drops1):.1f}; strict {strict}/10, "
                 f"monotone {monotone}/10")


def test_criterion_9_pipeline_determinism(tmp_path):
    with Timer(120.0) as t:
        ds_path = tmp_path / "d.pfd"
        rc = cli_main(["gen", "--classes", "4", "--parts", "3", "--dim", "16",
                       "--per-class", "25", "--concepts", "2", "--seed", "5",
                       "-o", str(ds_path)])
        assert rc == 0
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = cli_main(["pipeline", "--data", str(ds_path), "--seed", "5",
                           "--epochs", "25", "--eps", "0.3", "--min-pts", "3",
                           "--k", "5", "-o", str(out)])
            assert rc == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files
        for name in files:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"artifact {name} differs between reruns"
    report(9, t, f"{len(files)} artifacts byte-identical across reruns")
