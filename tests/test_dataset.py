import tracemalloc

import numpy as np
import pytest

from conceptmine.dataset import (PartFeatureDataset, SyntheticSpec,
                                 generate_synthetic, load_dataset,
                                 save_dataset, split_kfold, subset)
from conceptmine.errors import (FormatError, GenerationError,
                                StratificationError, ValidationError)


def tiny_dataset():
    rng = np.random.default_rng(42)
    return PartFeatureDataset(
        part_features=rng.normal(size=(6, 2, 3)),
        nonproto_features=rng.normal(size=(6, 3)),
        labels=np.array([0, 0, 1, 1, 2, 2]),
        n_classes=3,
    )


class TestBinaryRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = tiny_dataset()
        p1 = tmp_path / "a.pfd"
        p2 = tmp_path / "b.pfd"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.part_features, ds.part_features)
        np.testing.assert_array_equal(loaded.nonproto_features, ds.nonproto_features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.n_classes == ds.n_classes

    def test_labels_file_bytes_kept_and_int64_in_memory(self, tmp_path):
        path = tmp_path / "a.pfd"
        save_dataset(tiny_dataset(), path)
        raw = path.read_bytes()
        loaded = load_dataset(path)
        assert loaded.labels.dtype == np.int64
        save_dataset(loaded, path)
        assert path.read_bytes()[-4 * 6:] == raw[-4 * 6:] == np.array(
            [0, 0, 1, 1, 2, 2], dtype="<u4").tobytes()

    def test_file_size_formula(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "a.pfd"
        save_dataset(ds, path)
        n, k, d = ds.n_samples, ds.n_parts, ds.feat_dim
        assert path.stat().st_size == 24 + 4 * n * ((k + 1) * d) + 4 * n

    def test_minimal_layout(self, tmp_path):
        # N=2, K=1, d_f=2, L=1: 2*2*2 part floats + 2*2 g floats + 2 labels
        ds = PartFeatureDataset(np.zeros((2, 1, 2)), np.zeros((2, 2)),
                                np.zeros(2, dtype=np.uint32), 1)
        path = tmp_path / "m.pfd"
        save_dataset(ds, path)
        payload = path.stat().st_size - 24
        assert payload == 4 * (2 * 1 * 2 + 2 * 2) + 4 * 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfd"
        ds = tiny_dataset()
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.pfd"
        save_dataset(tiny_dataset(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="size"):
            load_dataset(path)


class TestCsv:
    def test_round_trip_values(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "a.csv"
        save_dataset(ds, path, "csv")
        loaded = load_dataset(path, "csv")
        np.testing.assert_array_equal(loaded.part_features, ds.part_features)
        np.testing.assert_array_equal(loaded.nonproto_features, ds.nonproto_features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_label_gap_names_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        header = "part0_0,part0_1,g_0,g_1,label"
        rows = ["0,0,0,0,0", "1,1,1,1,1", "2,2,2,2,3"]  # label 3 with L=3 distinct
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_dataset(path, "csv")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label, row", [("1.5", 1), ("-1", 0), ("nan", 2),
                                            ("1e400", 1), ("4294967297", 2)])
    def test_bad_label_names_file_and_row(self, tmp_path, label, row):
        path = tmp_path / "bad.csv"
        labels = ["0", "1", "0"]
        labels[row] = label
        path.write_text("part0_0,g_0,label\n"
                        + "".join(f"0.5,0.5,{c}\n" for c in labels))
        with pytest.raises(ValidationError, match=f"bad.csv: row {row}: labels"):
            load_dataset(path, "csv")

    def test_labels_int64_after_csv_gen_and_subset(self, tmp_path):
        path = tmp_path / "a.csv"
        save_dataset(tiny_dataset(), path, "csv")
        ds, _ = generate_synthetic(SyntheticSpec(n_classes=2, n_parts=1,
                                                 feat_dim=2, samples_per_class=3))
        for got in (load_dataset(path, "csv"), ds, subset(ds, [0, 3])):
            assert got.labels.dtype == np.int64

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            load_dataset(path, "csv")

    # Each header differs from the one save_dataset writes for the K and d_f
    # it implies; values are never taken by position under another header.
    @pytest.mark.parametrize("text", [
        "part1_0,part0_0,g_0,label\n1,2,3,0\n",
        "part0_0,part0_1,g_1,g_0,label\n1,2,3,4,0\n",
        "id,part0_0,g_0,label\n0,1,2,0\n",
        "part0_0_1,g_0,label\n1,2,0\n",
    ], ids=["swapped-parts", "swapped-g", "leading-id", "three-index-name"])
    def test_header_must_be_exact(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="h.csv: header"):
            load_dataset(path, "csv")


class TestInvariants:
    def test_nonfinite_named_sample(self):
        parts = np.zeros((3, 1, 2))
        parts[1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="sample 1"):
            PartFeatureDataset(parts, np.zeros((3, 2)), np.array([0, 1, 2]), 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["part_features", "nonproto_features"])
    def test_finite_value_past_float32_names_value_and_row(self, where):
        parts, g = np.zeros((3, 1, 2)), np.zeros((3, 2))
        (parts[2, 0] if where == "part_features" else g[2])[1] = -1e39
        with pytest.raises(ValidationError, match=rf"^{where} must be a \d-D "
                           r"array of real numbers, got -1e\+39 at row 2, "
                           r"outside the float32 range$") as info:
            PartFeatureDataset(parts, g, np.array([0, 1, 2]), 3)
        assert info.value.index == 2

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError, match=r"labels must be a 1-D array of "
                                                  r"integers in \[0, 2\), got 5 at index 1"):
            PartFeatureDataset(np.zeros((2, 1, 2)), np.zeros((2, 2)),
                               np.array([0, 5]), 2)

    def test_missing_class(self):
        with pytest.raises(ValidationError, match="class 1"):
            PartFeatureDataset(np.zeros((2, 1, 2)), np.zeros((2, 2)),
                               np.array([0, 2]), 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="nonproto"):
            PartFeatureDataset(np.zeros((2, 1, 2)), np.zeros((2, 3)),
                               np.array([0, 0]), 1)


class TestSynthetic:
    def test_zero_noise_features_equal_means(self):
        spec = SyntheticSpec(n_classes=2, n_parts=2, feat_dim=8,
                             samples_per_class=5, concepts_per_cell=2,
                             noise_sigma=0.0, seed=3)
        ds, gt = generate_synthetic(spec)
        for i in range(ds.n_samples):
            j = int(ds.labels[i])
            for p in range(ds.n_parts):
                mean = gt.planted_means[j, p, gt.assignment[i, p]]
                np.testing.assert_array_equal(ds.part_features[i, p], mean)

    def test_counts(self):
        ds, _ = generate_synthetic(SyntheticSpec(n_classes=3, samples_per_class=10,
                                                 seed=0))
        assert ds.n_samples == 30
        assert np.bincount(ds.labels.astype(int)).tolist() == [10, 10, 10]

    def test_determinism(self):
        spec = SyntheticSpec(seed=11)
        ds1, gt1 = generate_synthetic(spec)
        ds2, gt2 = generate_synthetic(spec)
        np.testing.assert_array_equal(ds1.part_features, ds2.part_features)
        np.testing.assert_array_equal(gt1.assignment, gt2.assignment)
        ds3, _ = generate_synthetic(SyntheticSpec(seed=12))
        assert not np.array_equal(ds1.part_features, ds3.part_features)

    def test_separation_respected(self):
        _, gt = generate_synthetic(SyntheticSpec(n_classes=2, n_parts=2,
                                                 concepts_per_cell=3,
                                                 min_separation=1.0, seed=5))
        for j in range(2):
            for p in range(2):
                means = gt.planted_means[j, p].astype(np.float64)
                for a in range(3):
                    for b in range(a + 1, 3):
                        assert np.linalg.norm(means[a] - means[b]) >= 1.0 - 1e-6

    def test_impossible_placement(self):
        spec = SyntheticSpec(n_classes=1, n_parts=1, feat_dim=2,
                             concepts_per_cell=50, min_separation=1.9, seed=0)
        with pytest.raises(GenerationError, match="separation"):
            generate_synthetic(spec)

    def test_nearest_mean_recovers_assignment(self):
        spec = SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16,
                             samples_per_class=20, concepts_per_cell=3,
                             noise_sigma=0.0, seed=9)
        ds, gt = generate_synthetic(spec)
        for i in range(ds.n_samples):
            j = int(ds.labels[i])
            for p in range(ds.n_parts):
                dists = np.linalg.norm(
                    gt.planted_means[j, p].astype(np.float64)
                    - ds.part_features[i, p].astype(np.float64), axis=1)
                assert int(np.argmin(dists)) == gt.assignment[i, p]


class TestKfold:
    def test_single_class_counts(self):
        ds = PartFeatureDataset(np.zeros((10, 1, 2)), np.zeros((10, 2)),
                                np.zeros(10, dtype=np.uint32), 1)
        folds = split_kfold(ds, 5, seed=0)
        assert [len(f) for f in folds] == [2] * 5
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(10))

    def test_k1_rejected(self):
        with pytest.raises(ValidationError):
            split_kfold(tiny_dataset(), 1, seed=0)

    def test_small_class_named(self):
        with pytest.raises(StratificationError, match="class 0"):
            split_kfold(tiny_dataset(), 3, seed=0)

    def test_huge_k_refused_before_the_folds_exist(self):
        ds = tiny_dataset()
        tracemalloc.start()
        try:
            with pytest.raises(StratificationError,
                               match="class 0 has 2 samples, fewer than k=1000000"):
                split_kfold(ds, 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_deterministic(self):
        ds = tiny_dataset()
        f1 = split_kfold(ds, 2, seed=4)
        f2 = split_kfold(ds, 2, seed=4)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)

    def test_stratified_balance(self, planted):
        ds, _ = planted(n_classes=3, samples_per_class=25, seed=2)
        folds = split_kfold(ds, 4, seed=1)
        for f in folds:
            counts = np.bincount(ds.labels[f].astype(int), minlength=3)
            assert counts.max() - counts.min() <= 1
        union = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(union, np.arange(ds.n_samples))

    def test_subset_keeps_classes(self, planted):
        ds, _ = planted(seed=8)
        fold = split_kfold(ds, 3, seed=0)[0]
        sub = subset(ds, fold)
        assert sub.n_samples == len(fold)
        assert set(np.unique(sub.labels)) == set(range(ds.n_classes))
