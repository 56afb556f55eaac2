"""Row-blocked passes: the same bits at every block size, and one work copy.

The CAV batch, faithfulness, consistency, sparseness, occlusion, the
synthetic generator, mining's Gram, exact-sum and neighbour passes and the
center fit's loss and bounds work in row blocks from ``dataset._row_blocks``,
of at most ``dataset._BLOCK_ENTRIES`` entries. Each must give the bits of
its whole-matrix form (the ``reference_*`` oracles) with one-row blocks, at
the default bound and with one block of every row, and its tracemalloc peak
must stay within a named multiple of its largest matrix.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (pairwise_consistency, per_sample_occlusion_curve,
                     reference_cav_batch, reference_faithfulness,
                     reference_generate_synthetic, reference_mine_concepts,
                     reference_stability, unblocked_mcc_loss)
from test_mining import book_bytes, cell_bytes, fold_dataset, reference_cell_bytes

from conceptmine import dataset, mining, partproto
from conceptmine.cav import compute_cav_batch
from conceptmine.dataset import (PartFeatureDataset, SyntheticSpec,
                                 generate_synthetic, save_dataset, split_kfold,
                                 subset)
from conceptmine.head import HeadTrainConfig, SparseHead, train_head
from conceptmine.mining import ConceptBook, ConceptEntry, MiningConfig, mine_concepts
from conceptmine.occlusion import OcclusionConfig, occlusion_eval
from conceptmine.partproto import (_GROUP, McmConfig, PrototypeCenters, _loss_bounds,
                                   best_epoch, descend, fit_prototype_centers,
                                   mcc_loss)
from conceptmine.xaimetrics import consistency, faithfulness, sparseness, stability

# One row per block, the default, and one block of every row.
BOUNDS = {"one-row": 1, "default": dataset._BLOCK_ENTRIES, "whole": 1 << 62}

# Largest tracemalloc peak of each pass, as a multiple of the bytes of the
# CAV matrix z it scores (or, for the CAV batch, returns). On the data of
# test_one_work_copy_of_the_largest_matrix the blocked passes peak at about
# 1.74, 1.23, 0.27, 0.13 and 2.6 times z; the whole-matrix forms they replace
# peaked at 2.45, 4.0, 2.0, 1.0 and 5.6 times.
CAV_BATCH_PEAK = 2.0
FAITHFULNESS_PEAK = 1.5
CONSISTENCY_PEAK = 0.5
SPARSENESS_PEAK = 0.5
OCCLUSION_PEAK = 3.0
# generate_synthetic's peak over the bytes of the dataset it returns: about
# 1.3 blocked and 3.7 for one draw over the whole arrays.
GENERATE_PEAK = 1.5
# Largest tracemalloc peak of the center fit's loss and of its bounds. On 300
# samples of 8 parts of 2,048 float32 features (19.7 MB, a ResNet-50 stage)
# they take about 2.5 and 4.5 MiB, and took 34.0 and 36.1 MiB in blocks of
# 256 samples; on 60,000 samples of one 1-D part the bounds take 3.1 MiB, and
# 38.5 MiB in blocks sized by K * d_f alone.
FIT_PEAK = 8 << 20


@pytest.fixture(params=list(BOUNDS))
def bound(request, monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", BOUNDS[request.param])
    return request.param


def unblocked(fn, *args):
    """``fn(*args)`` with one block of every row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_ENTRIES", BOUNDS["whole"])
        return fn(*args)


def scored(seed=4):
    """A planted dataset with zero part vectors, its book and a trained head
    with W2 zeroed: g carries the class, so a full head's F(n) all read 0."""
    ds, _ = generate_synthetic(SyntheticSpec(n_classes=3, n_parts=3, feat_dim=6,
                                             samples_per_class=25, seed=seed))
    parts = ds.part_features.copy()
    parts[:3] = 0.0  # whole samples
    parts[3:12, 1] = -0.0  # one part of others
    ds = PartFeatureDataset(parts, ds.nonproto_features, ds.labels, ds.n_classes)
    book = mine_concepts(ds, MiningConfig(eps=0.15, min_pts=2))
    z, g = compute_cav_batch(ds, book)
    head = train_head(z, g, ds.labels, HeadTrainConfig(lam=0.001, epochs=40))
    return ds, book, replace(head, W2=np.zeros_like(head.W2)), z, g


class TestSameBitsAtEveryBlockSize:
    def test_cav_batch(self, bound):
        ds, book, _, _, _ = scored()
        z, g = compute_cav_batch(ds, book)
        assert z.tobytes() == reference_cav_batch(ds, book).tobytes()
        # A zero part reads +0.0 on each of its concepts, never -0.0.
        assert not np.signbit(z).any()
        assert g.tobytes() == ds.nonproto_features.astype(np.float64).tobytes()

    def test_faithfulness(self, bound, caplog):
        ds, book, head, z, g = scored()
        n_list = [3, 0, 1, book.d_c + 2, 3, 5, book.d_c]
        with caplog.at_level("WARNING"):
            got = faithfulness(z, g, ds.labels, head, book, n_list)
        assert caplog.text.count("clamping") == 1
        want = reference_faithfulness(z, g, ds.labels, head, book, n_list)
        assert list(got) == list(want) and got == want
        assert got[0] == 0.0 and len(set(got.values())) > 3

    def test_consistency(self, bound):
        ds, _, _, z, _ = scored()
        got = consistency(z, ds.labels)
        assert got == unblocked(consistency, z, ds.labels)
        np.testing.assert_allclose(got, pairwise_consistency(z, ds.labels),
                                   rtol=0, atol=1e-12)

    def test_sparseness(self, bound):
        _, _, _, z, _ = scored()
        z = z.copy()
        z[5] *= 2.0 ** -1070  # squares underflow: the rescaled branch
        got = sparseness(z)
        assert got == unblocked(sparseness, z)
        assert 0.0 <= got <= 100.0

    def test_occlusion(self, bound):
        ds, book, head, _, _ = scored()
        fractions = (0.25, 0.5, 1.0)
        curve = occlusion_eval(ds, head, book, OcclusionConfig(fractions))
        assert curve == per_sample_occlusion_curve(ds, head, book, fractions)
        assert len({row[1:] for row in curve}) == len(curve)


def assert_same_dataset(got, want):
    (ds, gt), (ref, ref_gt) = got, want
    for a, b in ((ds.part_features, ref.part_features),
                 (ds.nonproto_features, ref.nonproto_features),
                 (ds.labels, ref.labels), (gt.planted_means, ref_gt.planted_means),
                 (gt.assignment, ref_gt.assignment)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert ds.n_classes == ref.n_classes


class TestGenerator:
    # 2,250 samples of 2 x 64 part entries: at the default bound the parts
    # take 5 blocks of 512 rows and g 3 of 1,024, each last block partial.
    SPEC = SyntheticSpec(n_classes=5, n_parts=2, feat_dim=64,
                         samples_per_class=450, seed=3)

    @pytest.mark.parametrize("noise", [0.0, 0.02, 0.5])
    def test_matches_one_draw_at_the_default_bound(self, noise):
        spec = replace(self.SPEC, noise_sigma=noise)
        n = spec.n_classes * spec.samples_per_class
        part_rows = dataset._BLOCK_ENTRIES // (spec.n_parts * spec.feat_dim)
        g_rows = dataset._BLOCK_ENTRIES // spec.feat_dim
        assert n > 3 * part_rows and n % part_rows
        assert n > 2 * g_rows and n % g_rows
        assert_same_dataset(generate_synthetic(spec), reference_generate_synthetic(spec))

    @pytest.mark.parametrize("entries", [1, 7, 100])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_matches_one_draw_at_small_bounds(self, entries, noise, monkeypatch):
        monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", entries)
        spec = SyntheticSpec(n_classes=3, n_parts=3, feat_dim=5,
                             samples_per_class=11, noise_sigma=noise, seed=8)
        assert_same_dataset(generate_synthetic(spec), reference_generate_synthetic(spec))

    def test_saved_file_is_the_array_bytes(self, tmp_path, monkeypatch):
        # 15 samples of 5 x 32 entries: blocks of 6, 6 and 3 rows.
        monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", 1000)
        ds, _ = generate_synthetic(SyntheticSpec(samples_per_class=3))
        save_dataset(ds, tmp_path / "d.pfd")
        raw = (tmp_path / "d.pfd").read_bytes()
        merged = np.concatenate([ds.part_features, ds.nonproto_features[:, None]],
                                axis=1)
        body = merged.astype("<f4").tobytes() + ds.labels.astype("<u4").tobytes()
        assert raw.endswith(body) and len(raw) == 24 + len(body)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_work_copy_of_the_largest_matrix():
    """Peaks on 3,000 samples and d_c 180: z is 4.1 MiB and every blocked
    pass over it takes 9 blocks at the default bound."""
    spec = SyntheticSpec(n_classes=10, n_parts=6, feat_dim=64, samples_per_class=300,
                         concepts_per_cell=3, seed=0)
    ds, gt = generate_synthetic(spec)
    book = ConceptBook(spec.feat_dim, [
        ConceptEntry(j, p, c, gt.planted_means[j, p, c].astype(np.float64), 1)
        for j in range(spec.n_classes) for p in range(spec.n_parts)
        for c in range(spec.concepts_per_cell)])
    z, g = compute_cav_batch(ds, book)
    assert z.shape[0] > 8 * (dataset._BLOCK_ENTRIES // z.shape[1])
    rng = np.random.default_rng(0)
    head = SparseHead(rng.normal(size=(book.d_c, spec.n_classes)),
                      rng.normal(size=(spec.feat_dim, spec.n_classes)),
                      np.zeros(spec.n_classes))
    peaks = {
        "cav batch": (peak_bytes(lambda: compute_cav_batch(ds, book)), CAV_BATCH_PEAK),
        "faithfulness": (peak_bytes(lambda: faithfulness(
            z, g, ds.labels, head, book, [1, 2, 3, 4, 5])), FAITHFULNESS_PEAK),
        "consistency": (peak_bytes(lambda: consistency(z, ds.labels)), CONSISTENCY_PEAK),
        "sparseness": (peak_bytes(lambda: sparseness(z)), SPARSENESS_PEAK),
        "occlusion": (peak_bytes(lambda: occlusion_eval(ds, head, book, OcclusionConfig())),
                      OCCLUSION_PEAK),
    }
    over = {name: round(peak / z.nbytes, 2) for name, (peak, bound) in peaks.items()
            if peak > bound * z.nbytes}
    data_bytes = (ds.part_features.nbytes + ds.nonproto_features.nbytes
                  + ds.labels.nbytes)
    gen_peak = peak_bytes(lambda: generate_synthetic(spec))
    if gen_peak > GENERATE_PEAK * data_bytes:
        over["generate_synthetic"] = round(gen_peak / data_bytes, 2)
    assert not over


class TestMiningAndFitAtEveryBlockSize:
    @pytest.mark.parametrize("entries", [1, 64, dataset._BLOCK_ENTRIES, 1 << 62])
    @pytest.mark.parametrize("case", ["planted", "duplicates", "shifted", "origin"])
    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("params", [MiningConfig(),
                                        MiningConfig(eps=0.3, min_pts=3)],
                             ids=["adaptive", "fixed"])
    def test_books_and_stability_match_reference(self, entries, case, k, params,
                                                 monkeypatch):
        """At one row, at 64 entries (row blocks of a few rows of one cell),
        at the default and with every cell in one batch."""
        ds = fold_dataset(k, case)
        folds = split_kfold(ds, k, seed=1)
        want = book_bytes(reference_mine_concepts(ds, params))
        want_cells = [reference_cell_bytes(reference_mine_concepts(
            subset(ds, fold), params)) for fold in folds]
        want_stability = reference_stability(ds, k, params, seed=1)
        monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", entries)
        assert book_bytes(mine_concepts(ds, params)) == want
        assert [cell_bytes(cells) for cells
                in mine_concepts(ds, params, folds=folds)] == want_cells
        assert stability(ds, k, params, seed=1) == want_stability

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_classes=2, n_parts=3, feat_dim=5, samples_per_class=20, seed=1),
        SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16, samples_per_class=30, seed=2),
        SyntheticSpec(n_classes=2, n_parts=1, feat_dim=1, samples_per_class=19, seed=3),
        SyntheticSpec(n_classes=5, n_parts=6, feat_dim=64, samples_per_class=12,
                      concepts_per_cell=3, seed=4),
    ], ids=["k3-d5", "k2-d16", "k1-d1", "k6-d64"])
    @pytest.mark.parametrize("cfg", [
        McmConfig(epochs=20), McmConfig(lr=0.005, epochs=35),
        McmConfig(lr=0.5, epochs=20), McmConfig(m1=0.0, m2=50.0, epochs=20),
    ], ids=["default", "slow", "fast", "pair-term"])
    def test_best_epoch_keeps_its_centers(self, spec, cfg, monkeypatch):
        ds, _ = generate_synthetic(spec)
        trajectory = list(descend(ds, cfg))
        want = best_epoch(ds, cfg, iter(trajectory)).centers.tobytes()
        for entries in (1, 1 << 62):
            monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", entries)
            assert best_epoch(ds, cfg, iter(trajectory)).centers.tobytes() == want

    def test_each_pass_walks_the_row_blocks(self, monkeypatch):
        """Mining's Gram, exact-sum and neighbour passes and the fit's loss
        and bounds take their blocks from ``dataset._row_blocks``, so
        ``dataset._BLOCK_ENTRIES`` alone sizes them all."""
        walked = set()

        def row_blocks(n, width):
            walked.add(sys._getframe(1).f_code.co_name)
            return dataset._row_blocks(n, width)

        for module in (mining, partproto):
            monkeypatch.setattr(module, "_row_blocks", row_blocks)
        ds = fold_dataset(5, "planted")
        mine_concepts(ds, MiningConfig())
        fit_prototype_centers(ds, McmConfig(epochs=3))
        assert walked == {"_sq_dist_blocks", "_exact_sq_dists", "_neighbor_min",
                          "mcc_loss", "_loss_bounds"}


@pytest.mark.parametrize("n, k, d", [(300, 8, 2048), (60_000, 1, 1)],
                         ids=["wide", "narrow"])
def test_fit_loss_and_bounds_peak_in_row_blocks(n, k, d):
    """Wide features bound the rows of a block by K * d_f; narrow ones by
    the group's K x G Gram entries per sample."""
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((n, k, d), dtype=np.float32)
    cs = (feats.mean(axis=0, dtype=np.float64)
          + 0.1 * rng.standard_normal((_GROUP, k, d)))
    centers = PrototypeCenters(cs[0])
    loss, bounds = [], []
    loss_peak = peak_bytes(lambda: loss.append(mcc_loss(feats, centers, 0.3, 1.5)))
    bounds_peak = peak_bytes(lambda: bounds.extend(_loss_bounds(feats, cs, 0.3, 1.5)))
    assert max(loss_peak, bounds_peak) < FIT_PEAK, (loss_peak, bounds_peak)
    assert loss[0] == unblocked_mcc_loss(feats, cs[0], 0.3, 1.5)
    lo, hi = bounds
    assert lo[0] <= loss[0] <= hi[0]
