import tracemalloc

import numpy as np
import pytest

from conceptmine.dataset import PartFeatureDataset, SyntheticSpec, generate_synthetic
from conceptmine.errors import FormatError, ValidationError
from conceptmine.partproto import (McmConfig, PrototypeCenters,
                                   fit_prototype_centers, load_centers,
                                   mcc_gradients, mcc_loss, save_centers)
from oracles import (central_difference_grad, mcc_instance_away_from_kinks,
                     mcc_loss_reference, reference_fit_prototype_centers,
                     unblocked_mcc_loss)

random_instance = mcc_instance_away_from_kinks


class TestMccLoss:
    def test_single_part_at_center(self):
        c = PrototypeCenters(np.array([[1.0, 2.0]]))
        batch = np.array([[[1.0, 2.0]]])
        assert mcc_loss(batch, c, m1=0.3, m2=1.5) == 0.0

    def test_collapsed_centers_hand_value(self):
        # K=2, f_p = c_p, c_1 = c_2: each p contributes (1/2) * 1.5
        c = PrototypeCenters(np.array([[0.5, 0.5], [0.5, 0.5]]))
        batch = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        assert mcc_loss(batch, c, m1=0.3, m2=1.5) == pytest.approx(1.5)

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = rng.normal(size=(4, 3, 5))
            centers = rng.normal(size=(3, 5))
            got = mcc_loss(batch, PrototypeCenters(centers), 0.3, 1.5)
            want = mcc_loss_reference(batch, centers, 0.3, 1.5)
            assert got == pytest.approx(want, rel=1e-12)
            assert got >= 0.0

    def test_empty_batch(self):
        with pytest.raises(ValidationError, match="empty"):
            mcc_loss(np.zeros((0, 2, 3)), PrototypeCenters(np.zeros((2, 3))),
                     0.3, 1.5)

    def test_full_data_loss_is_computed_in_blocks(self):
        # pipeline-M size: n=2000, K=6, d_f=64. One [n, K, d_f] float64
        # residual is 6.1 MB, and the norm squares it into a second one.
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(2000, 6, 64))
        centers = PrototypeCenters(rng.normal(size=(6, 64)))
        residual_bytes = feats.nbytes
        tracemalloc.start()
        try:
            loss = mcc_loss(feats, centers, 0.3, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < residual_bytes / 2
        assert loss == unblocked_mcc_loss(feats, centers.centers, 0.3, 1.5)

    def test_zero_iff_margins_satisfied(self):
        rng = np.random.default_rng(1)
        # Distant centers, features within m1 of their center.
        centers = np.eye(3) * 10.0
        batch = centers[None] + 0.05 * rng.normal(size=(6, 3, 3))
        assert mcc_loss(batch, PrototypeCenters(centers), m1=0.3, m2=1.5) == 0.0
        # Violating either margin makes it positive.
        assert mcc_loss(batch * 3, PrototypeCenters(centers), 0.3, 1.5) > 0
        assert mcc_loss(batch, PrototypeCenters(centers), 0.3, m2=25.0) > 0


class TestMccGradients:
    def test_shape_mismatch_refused(self):
        # [2, 1, 4] would broadcast against [3, 4] centers.
        with pytest.raises(ValidationError, match="does not match"):
            mcc_gradients(np.zeros((2, 1, 4)), PrototypeCenters(np.ones((3, 4))),
                          0.3, 1.5)

    def test_zero_when_hinges_inactive(self):
        rng = np.random.default_rng(2)
        centers = np.eye(2) * 5.0
        batch = centers[None] + 0.01 * rng.normal(size=(4, 2, 2))
        g = mcc_gradients(batch, PrototypeCenters(centers), m1=0.3, m2=1.5)
        np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            batch, centers = random_instance(rng)
            analytic = mcc_gradients(batch, PrototypeCenters(centers), 0.3, 1.5)
            numeric = central_difference_grad(
                lambda c: mcc_loss(batch, PrototypeCenters(c), 0.3, 1.5),
                centers, h=1e-5)
            err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            assert err <= 1e-4

    def test_coincident_centers_descend(self):
        # Pair hinge active with zero distance: the subgradient convention
        # must still yield a direction that does not increase the loss.
        batch = np.array([[[0.0, 0.0], [0.0, 0.0]]])
        centers = np.zeros((2, 2))
        pc = PrototypeCenters(centers)
        g = mcc_gradients(batch, pc, m1=0.3, m2=1.5)
        assert np.isfinite(g).all()
        before = mcc_loss(batch, pc, 0.3, 1.5)
        after = mcc_loss(batch, PrototypeCenters(centers - 0.01 * g), 0.3, 1.5)
        assert after <= before

    def test_small_step_descends(self):
        rng = np.random.default_rng(4)
        ok = 0
        for _ in range(100):
            batch, centers = random_instance(rng)
            pc = PrototypeCenters(centers)
            g = mcc_gradients(batch, pc, 0.3, 1.5)
            before = mcc_loss(batch, pc, 0.3, 1.5)
            after = mcc_loss(batch, PrototypeCenters(centers - 1e-4 * g), 0.3, 1.5)
            ok += after <= before + 1e-12
        assert ok >= 95


class TestFit:
    def test_fixed_point(self):
        # Data pre-clustered at K mutually distant points, init there.
        points = np.eye(3) * 5.0
        batch = np.repeat(points[None], 8, axis=0)
        ds = PartFeatureDataset(batch, np.zeros((8, 3)),
                                np.zeros(8, dtype=np.uint32), 1)
        init = PrototypeCenters(points.copy())
        cfg = McmConfig(m1=0.3, m2=1.5, lr=0.05, epochs=5, seed=0)
        out = fit_prototype_centers(ds, cfg, init=init)
        np.testing.assert_array_equal(out.centers, points)
        assert mcc_loss(batch, out, 0.3, 1.5) == 0.0

    def test_recovers_planted_means_from_displaced_init(self):
        spec = SyntheticSpec(n_classes=1, n_parts=3, feat_dim=16,
                             samples_per_class=60, concepts_per_cell=1,
                             noise_sigma=0.01, seed=6)
        ds, gt = generate_synthetic(spec)
        means = gt.planted_means[0, :, 0, :].astype(np.float64)  # [K, d_f]
        rng = np.random.default_rng(7)
        offset = rng.normal(size=means.shape)
        offset /= np.linalg.norm(offset, axis=1, keepdims=True)
        init = PrototypeCenters(means + 0.5 * offset)
        cfg = McmConfig(m1=0.02, m2=1.0, lr=0.05, epochs=60, batch_size=16, seed=0)
        out = fit_prototype_centers(ds, cfg, init=init)
        errs = np.linalg.norm(out.centers - means, axis=1)
        assert errs.max() <= 0.05

    def test_final_loss_not_above_initial(self, planted):
        ds, _ = planted(seed=10)
        feats = ds.part_features.astype(np.float64)
        init = PrototypeCenters(np.zeros((ds.n_parts, ds.feat_dim)))
        cfg = McmConfig(lr=0.1, epochs=10, seed=1)
        out = fit_prototype_centers(ds, cfg, init=init)
        assert mcc_loss(feats, out, cfg.m1, cfg.m2) <= \
            mcc_loss(feats, init, cfg.m1, cfg.m2)

    def test_deterministic(self, planted):
        ds, _ = planted(seed=20)
        cfg = McmConfig(epochs=8, seed=5)
        a = fit_prototype_centers(ds, cfg)
        b = fit_prototype_centers(ds, cfg)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_m2_not_above_m1_warns(self, caplog):
        with caplog.at_level("WARNING"):
            McmConfig(m1=1.5, m2=0.3)
        assert "collapsed" in caplog.text

    def test_bad_lr(self):
        with pytest.raises(ValidationError):
            McmConfig(lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -3), ("epochs", 2.5),
        ("batch_size", 0), ("batch_size", -5), ("batch_size", 2.5),
        ("seed", -1), ("seed", 2.5)])
    def test_counts_and_seed_are_bounded_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            McmConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr", "m1", "m2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValidationError, match=field):
            McmConfig(**{field: value})


# Regimes of the fast loop on planted(seed) data (90 samples, K=2), at 6
# epochs. "default": the pair hinge is active in some steps only, and 32
# does not divide 90. "intra-partly-inactive": no step has every intra hinge
# active. "pairs-always-active": every step has an active pair hinge.
FIT_REGIMES = {
    "default": {},
    "intra-partly-inactive": {"m1": 1.0},
    "pairs-always-active": {"m2": 50.0},
    "batch-7": {"batch_size": 7},
}


class TestFitMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("regime", sorted(FIT_REGIMES))
    def test_bit_identical(self, planted, seed, regime):
        ds, _ = planted(seed=seed)
        cfg = McmConfig(epochs=6, seed=seed, **FIT_REGIMES[regime])
        got = fit_prototype_centers(ds, cfg)
        assert got.centers.tobytes() == \
            reference_fit_prototype_centers(ds, cfg).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_from_init(self, planted, seed):
        ds, _ = planted(seed=seed, n_parts=4)
        init = np.random.default_rng(seed).normal(size=(ds.n_parts, ds.feat_dim))
        cfg = McmConfig(epochs=6, batch_size=20, seed=seed)
        got = fit_prototype_centers(ds, cfg, init=PrototypeCenters(init))
        assert got.centers.tobytes() == \
            reference_fit_prototype_centers(ds, cfg, init=init).tobytes()


class TestCentersIo:
    def test_binary_round_trip(self, tmp_path):
        pc = PrototypeCenters(np.random.default_rng(0).normal(size=(4, 7)))
        path = tmp_path / "c.pcmc"
        save_centers(pc, path, "pcmc")
        out = load_centers(path, "pcmc")
        np.testing.assert_array_equal(out.centers, pc.centers)

    def test_json_round_trip(self, tmp_path):
        pc = PrototypeCenters(np.random.default_rng(1).normal(size=(2, 3)))
        path = tmp_path / "c.json"
        save_centers(pc, path, "json")
        out = load_centers(path, "json")
        np.testing.assert_array_equal(out.centers, pc.centers)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "c.pcmc"
        save_centers(PrototypeCenters(np.ones((2, 3))), path, "pcmc")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="c.pcmc"):
            load_centers(path, "pcmc")

    @pytest.mark.parametrize("text", ["[[1.0, 2.0], [3.0", "[[1.0, 2.0], [3.0]]"],
                             ids=["malformed", "ragged"])
    def test_bad_json(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="c.json"):
            load_centers(path, "json")
