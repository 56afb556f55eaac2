import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conceptmine import occlusion
from conceptmine.cav import compute_cav, compute_cav_batch
from conceptmine.dataset import PartFeatureDataset, SyntheticSpec, generate_synthetic
from conceptmine.errors import ValidationError
from conceptmine import head as head_module
from conceptmine import xaimetrics
from conceptmine.head import HeadTrainConfig, train_head
from conceptmine.mining import ConceptBook, MiningConfig, mine_concepts
from conceptmine.occlusion import (OcclusionConfig, _occlusion_order,
                                   _top_parts, occlude_sample, occlusion_eval,
                                   save_curve_csv, save_curve_svg)
from conceptmine.xaimetrics import _accuracy_and_faithfulness
from oracles import per_sample_occlusion, per_sample_occlusion_curve


def fitted(n_parts=4, seed=0, scrub_g=False):
    spec = SyntheticSpec(n_classes=3, n_parts=n_parts, feat_dim=16,
                         samples_per_class=20, concepts_per_cell=2,
                         noise_sigma=0.02, min_separation=1.0, seed=seed)
    ds, _ = generate_synthetic(spec)
    if scrub_g:
        # Class-independent g isolates the part-feature contribution.
        rng = np.random.default_rng(seed + 999)
        noise = 0.05 * rng.standard_normal((ds.n_samples, ds.feat_dim))
        ds = PartFeatureDataset(ds.part_features, noise.astype(np.float32),
                                ds.labels, ds.n_classes)
    book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
    z, g = compute_cav_batch(ds, book)
    head = train_head(z, g, ds.labels,
                      HeadTrainConfig(lam=0.001, gamma=0.5, epochs=120))
    return ds, book, head


class TestOccludeSample:
    def test_fraction_zero_identity(self):
        ds, book, head = fitted()
        out = occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                             head, book, 0.0)
        np.testing.assert_array_equal(out, ds.part_features[0].astype(np.float64))

    def test_ceiling_part_count(self):
        ds, book, head = fitted(n_parts=8, seed=1)
        out = occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                             head, book, 0.3)
        zeroed = np.flatnonzero((out == 0).all(axis=1))
        assert len(zeroed) == 3  # ceil(0.3 * 8)

    def test_single_part_minimum_one(self):
        ds, book, head = fitted(n_parts=1, seed=2)
        out = occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                             head, book, 0.1)
        assert (out == 0).all()

    def test_zeroed_part_kills_its_cav_entries(self):
        ds, book, head = fitted(seed=3)
        out = occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                             head, book, 0.3)
        cav = compute_cav(out, ds.nonproto_features[0], book)
        entry_parts = book.parts()
        for p in np.flatnonzero((out == 0).all(axis=1)):
            cols = np.flatnonzero(entry_parts == p)
            assert (cav.z[cols] == 0.0).all()

    def test_g_untouched(self):
        ds, book, head = fitted(seed=4)
        g_before = ds.nonproto_features[0].copy()
        occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                       head, book, 0.5)
        np.testing.assert_array_equal(ds.nonproto_features[0], g_before)

    def test_bad_fraction(self):
        ds, book, head = fitted(seed=5)
        with pytest.raises(ValidationError):
            occlude_sample(ds.part_features[0], ds.nonproto_features[0],
                           head, book, 1.5)

    def test_deterministic(self):
        ds, book, head = fitted(seed=6)
        a = occlude_sample(ds.part_features[1], ds.nonproto_features[1],
                           head, book, 0.4)
        b = occlude_sample(ds.part_features[1], ds.nonproto_features[1],
                           head, book, 0.4)
        np.testing.assert_array_equal(a, b)


class TestOcclusionEval:
    @pytest.mark.parametrize("n_parts, seed", [(4, 11), (7, 12), (1, 13)])
    def test_batch_equals_per_sample_reference(self, n_parts, seed):
        ds, book, head = fitted(n_parts=n_parts, seed=seed)
        fractions = (0.1, 0.3, 0.5, 1.0)
        z, g = compute_cav_batch(ds, book)
        order = _occlusion_order(z, g, head, book, ds.n_parts)
        for f in fractions:
            want = per_sample_occlusion(ds, head, book, f)
            hit = _top_parts(order, f)
            np.testing.assert_array_equal(
                np.where(hit[:, :, None], 0.0, ds.part_features), want)
            for i in (0, ds.n_samples - 1):
                np.testing.assert_array_equal(
                    occlude_sample(ds.part_features[i],
                                   ds.nonproto_features[i], head, book, f),
                    want[i])
        assert (occlusion_eval(ds, head, book, OcclusionConfig(fractions))
                == per_sample_occlusion_curve(ds, head, book, fractions))

    @pytest.mark.parametrize("case", ["part-without-concepts",
                                      "zero-part-vectors"])
    def test_masked_cavs_match_reference(self, case, monkeypatch):
        ds, book, head = fitted(seed=14)
        if case == "part-without-concepts":
            # Part 2 keeps its features but has no concepts: it ranks last
            # and, once occluded, moves no CAV entry.
            book = ConceptBook(book.feat_dim,
                               [e for e in book.entries if e.part != 2])
            z, g = compute_cav_batch(ds, book)
            head = train_head(z, g, ds.labels,
                              HeadTrainConfig(lam=0.001, gamma=0.5, epochs=60))
        else:
            # All-zero part vectors read 0 on every concept before occlusion.
            parts = ds.part_features.copy()
            parts[:5] = 0.0  # whole samples
            parts[5:20, 1] = 0.0  # one part of others
            ds = PartFeatureDataset(parts, ds.nonproto_features, ds.labels,
                                    ds.n_classes)
        fractions = (0.25, 0.5, 1.0)
        seen = []

        def recording_scores(z, *args):
            seen.append(z)
            return _accuracy_and_faithfulness(z, *args)

        monkeypatch.setattr(occlusion, "_accuracy_and_faithfulness",
                            recording_scores)
        rows = occlusion_eval(ds, head, book, OcclusionConfig(fractions))
        assert rows == per_sample_occlusion_curve(ds, head, book, fractions)
        # The masked CAVs equal those recomputed from occluded features.
        assert len(seen) == 1 + len(fractions)
        for f, z in zip((0.0, *fractions), seen):
            occluded = PartFeatureDataset(
                per_sample_occlusion(ds, head, book, f).astype(np.float32),
                ds.nonproto_features, ds.labels, ds.n_classes)
            np.testing.assert_array_equal(z, compute_cav_batch(occluded, book)[0])

    def test_two_predicts_per_curve_point_and_one_for_the_ranking(
            self, monkeypatch):
        """Each point's accuracy is F(3)'s clean base accuracy: one predict
        on the occluded CAVs, one on those with their top 3 deleted."""
        ds, book, head = fitted(seed=9)
        calls, predict = [], head_module.predict

        def counted(*args):
            calls.append(args)
            return predict(*args)

        for module in (head_module, xaimetrics, occlusion):
            monkeypatch.setattr(module, "predict", counted)
        rows = occlusion_eval(ds, head, book, OcclusionConfig((0.1, 0.2, 0.3)))
        assert len(rows) == 4
        assert len(calls) == 1 + 2 * len(rows)

    def test_fraction_zero_only_equals_clean(self):
        ds, book, head = fitted(seed=7)
        rows = occlusion_eval(ds, head, book, OcclusionConfig(fractions=(0.0,)))
        assert len(rows) == 1
        z, g = compute_cav_batch(ds, book)
        from conceptmine.head import predict
        clean_acc = 100.0 * float(np.mean(predict(z, g, head)
                                          == ds.labels.astype(int)))
        assert rows[0][0] == 0.0
        assert rows[0][1] == clean_acc

    def test_baseline_prepended(self):
        ds, book, head = fitted(seed=8)
        rows = occlusion_eval(ds, head, book,
                              OcclusionConfig(fractions=(0.1, 0.2, 0.3)))
        assert [r[0] for r in rows] == [0.0, 0.1, 0.2, 0.3]

    def test_accuracy_monotone_nonincreasing(self):
        ds, book, head = fitted(seed=9, scrub_g=True)
        rows = occlusion_eval(ds, head, book,
                              OcclusionConfig(fractions=(0.1, 0.2, 0.3)))
        accs = [r[1] for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(accs, accs[1:]))

    def test_many_parts_degrade_less(self):
        ds8, book8, head8 = fitted(n_parts=8, seed=10, scrub_g=True)
        ds1, book1, head1 = fitted(n_parts=1, seed=10, scrub_g=True)
        r8 = occlusion_eval(ds8, head8, book8, OcclusionConfig())
        r1 = occlusion_eval(ds1, head1, book1, OcclusionConfig())
        drop8 = r8[0][1] - r8[-1][1]
        drop1 = r1[0][1] - r1[-1][1]
        assert drop8 < drop1

    def test_unsorted_fractions_rejected(self):
        with pytest.raises(ValidationError):
            OcclusionConfig(fractions=(0.3, 0.1))


class TestCurveIo:
    def test_csv(self, tmp_path):
        rows = [(0.0, 100.0, 50.0), (0.1, 90.0, 45.0)]
        path = tmp_path / "curve.csv"
        save_curve_csv(rows, path)
        got = list(csv.reader(open(path)))
        assert got[0] == ["fraction", "accuracy", "F3"]
        assert len(got) == 3
        assert float(got[2][1]) == 90.0

    def test_svg_parses(self, tmp_path):
        rows = [(0.0, 100.0, 50.0), (0.1, 90.0, 45.0), (0.3, 70.0, 40.0)]
        path = tmp_path / "curve.svg"
        save_curve_svg(rows, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
