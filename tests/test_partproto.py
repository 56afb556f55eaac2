import logging
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptmine import dataset
from conceptmine.dataset import PartFeatureDataset, SyntheticSpec, generate_synthetic
from conceptmine.errors import DivergenceError, FormatError, ValidationError
from conceptmine.partproto import (_GROUP, McmConfig, PrototypeCenters,
                                   _loss_bounds, best_epoch, descend,
                                   fit_prototype_centers, load_centers,
                                   mcc_gradients, mcc_loss, save_centers)
from oracles import (central_difference_grad, mcc_instance_away_from_kinks,
                     mcc_loss_reference, reference_best_epoch,
                     reference_fit_prototype_centers, unblocked_mcc_loss)

random_instance = mcc_instance_away_from_kinks

# The scoring tests run the loss and its bounds in row blocks of at most
# SMALL_BLOCK entries, so MANY_ROWS samples span several blocks of 64 rows or
# fewer; it is prime, so the last block of 2 or more rows is partial.
SMALL_BLOCK = 64
MANY_ROWS = 263


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

    def test_float32_input_is_upcast_one_block_at_a_time(self):
        # pipeline-M size. The upcast is exact, so the loss is the float64
        # input's bit for bit, and no whole float64 copy is ever made.
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2000, 6, 64)).astype(np.float32)
        centers = PrototypeCenters(rng.normal(size=(6, 64)))
        copy_bytes = feats.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            loss = mcc_loss(feats, centers, 0.3, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes / 2
        assert loss == mcc_loss(feats.astype(np.float64), centers, 0.3, 1.5)

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
        cfg = McmConfig(m1=0.3, m2=1.5, lr=0.05, epochs=5)
        out = fit_prototype_centers(ds, cfg, init=init, seed=0)
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
        cfg = McmConfig(m1=0.02, m2=1.0, lr=0.05, epochs=60, batch_size=16)
        out = fit_prototype_centers(ds, cfg, init=init, seed=0)
        errs = np.linalg.norm(out.centers - means, axis=1)
        assert errs.max() <= 0.05

    def test_final_loss_not_above_initial(self, planted):
        ds, _ = planted(seed=10)
        feats = ds.part_features.astype(np.float64)
        init = PrototypeCenters(np.zeros((ds.n_parts, ds.feat_dim)))
        cfg = McmConfig(lr=0.1, epochs=10)
        out = fit_prototype_centers(ds, cfg, init=init, seed=1)
        assert mcc_loss(feats, out, cfg.m1, cfg.m2) <= \
            mcc_loss(feats, init, cfg.m1, cfg.m2)

    def test_deterministic(self, planted):
        ds, _ = planted(seed=20)
        cfg = McmConfig(epochs=8)
        a = fit_prototype_centers(ds, cfg, seed=5)
        b = fit_prototype_centers(ds, cfg, seed=5)
        np.testing.assert_array_equal(a.centers, b.centers)
        other = fit_prototype_centers(ds, cfg, seed=6)
        assert other.centers.tobytes() != a.centers.tobytes()

    def test_m2_not_above_m1_warns(self, caplog):
        with caplog.at_level("WARNING"):
            McmConfig(m1=1.5, m2=0.3)
        assert "collapsed" in caplog.text

    def test_bad_lr(self):
        with pytest.raises(ValidationError):
            McmConfig(lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -3), ("epochs", 2.5),
        ("batch_size", 0), ("batch_size", -5), ("batch_size", 2.5)])
    def test_counts_are_bounded_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            McmConfig(**{field: value})

    def test_seed_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            McmConfig(seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, 2**63, True, "0"])
    def test_descend_refuses_a_seed_out_of_range(self, planted, seed):
        ds, _ = planted()
        with pytest.raises(ValidationError, match="seed"):
            next(descend(ds, McmConfig(epochs=1), seed=seed))
        with pytest.raises(ValidationError, match="seed"):
            fit_prototype_centers(ds, McmConfig(epochs=1), seed=seed)

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
        cfg = McmConfig(epochs=6, **FIT_REGIMES[regime])
        got = fit_prototype_centers(ds, cfg, seed=seed)
        assert got.centers.tobytes() == \
            reference_fit_prototype_centers(ds, cfg, seed=seed).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_from_init(self, planted, seed):
        ds, _ = planted(seed=seed, n_parts=4)
        init = np.random.default_rng(seed).normal(size=(ds.n_parts, ds.feat_dim))
        cfg = McmConfig(epochs=6, batch_size=20)
        got = fit_prototype_centers(ds, cfg, init=PrototypeCenters(init), seed=seed)
        assert got.centers.tobytes() == \
            reference_fit_prototype_centers(ds, cfg, init=init, seed=seed).tobytes()


class TestDescentAndScoring:
    def test_descend_yields_the_start_and_every_epoch(self, planted):
        ds, _ = planted()
        snapshots = list(descend(ds, McmConfig(epochs=4)))
        assert len(snapshots) == 5
        assert all(c.shape == (ds.n_parts, ds.feat_dim) for c in snapshots)
        assert all(c.dtype == np.float64 for c in snapshots)

    def test_descend_starts_at_init(self, planted):
        ds, _ = planted()
        init = np.ones((ds.n_parts, ds.feat_dim))
        first = next(descend(ds, McmConfig(epochs=2), PrototypeCenters(init)))
        assert first.tobytes() == init.tobytes()

    def test_descend_start_makes_no_float64_copy(self):
        # pipeline-M size. The start is the float64 mean of the float32
        # features bit for bit, reduced without a float64 copy of them.
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(2000, 6, 64)).astype(np.float32)
        ds = PartFeatureDataset(feats, feats[:, 0], np.arange(2000) % 2, 2)
        copy_bytes = feats.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            start = next(descend(ds, McmConfig(), seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes
        jitter = 0.01 * np.random.default_rng(5).standard_normal((6, 64))
        assert start.tobytes() == \
            (feats.astype(np.float64).mean(axis=0) + jitter).tobytes()

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("regime", sorted(FIT_REGIMES))
    def test_best_epoch_of_descend_matches_reference(self, planted, seed, regime):
        ds, _ = planted(seed=seed)
        cfg = McmConfig(epochs=5, **FIT_REGIMES[regime])
        got = best_epoch(ds, cfg, descend(ds, cfg, seed=seed))
        assert got.centers.tobytes() == \
            reference_fit_prototype_centers(ds, cfg, seed=seed).tobytes()

    def test_best_epoch_picks_the_lowest_loss_snapshot(self, planted):
        ds, _ = planted()
        cfg = McmConfig()
        good = ds.part_features.astype(np.float64).mean(axis=0)
        trajectory = [good + 3.0, good + 1.0, good, good + 2.0]
        got = best_epoch(ds, cfg, iter(trajectory))
        assert got.centers.tobytes() == good.tobytes()

    def test_non_finite_start_is_not_refused(self, planted):
        ds, _ = planted()
        start = np.full((ds.n_parts, ds.feat_dim), 1e300)
        got = best_epoch(ds, McmConfig(), iter([start]))
        assert got.centers.tobytes() == start.tobytes()

    def test_diverging_fit_is_typed_and_silent(self, planted):
        ds, _ = planted()
        cfg = McmConfig(lr=1e300, epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                fit_prototype_centers(ds, cfg)
        assert (info.value.epoch, info.value.lr) == (0, 1e300)

    def test_best_epoch_stops_at_the_first_divergence(self, planted):
        ds, _ = planted()
        ok = np.zeros((ds.n_parts, ds.feat_dim))
        seen = []

        def trajectory():
            for c in (ok, ok, np.full_like(ok, 1e300), ok):
                seen.append(c)
                yield c

        with pytest.raises(DivergenceError, match="at epoch 1 ") as info:
            best_epoch(ds, McmConfig(lr=0.5), trajectory())
        assert (info.value.epoch, info.value.lr, len(seen)) == (1, 0.5, 3)


@st.composite
def scoring_cases(draw):
    """A dataset, a config and a trajectory that stress the bounded scoring:
    exact ties and one-ulp neighbours, Gram cancellation (everything shifted
    by 1e6), margins that leave every hinge inactive (the bounds then meet),
    d_f = 1, K = 1, a sample count that is not a multiple of the row block
    (at ``SMALL_BLOCK``), more snapshots than one group, and a huge, an
    infinite or a NaN one."""
    n = draw(st.sampled_from([1, 7, MANY_ROWS]))
    k = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.sampled_from([1, 2, 5]))
    shift = draw(st.sampled_from([0.0, 1e6]))
    spread = draw(st.sampled_from([0.01, 1.0]))
    cfg = McmConfig(m1=draw(st.sampled_from([0.0, 0.3, 1.0])),
                    m2=draw(st.sampled_from([0.0, 1.5, 50.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = (shift + spread * rng.standard_normal((n, k, d))).astype(np.float32)
    ds = PartFeatureDataset(feats, np.zeros((n, d)), np.zeros(n), 1)
    mean = feats.astype(np.float64).mean(axis=0)
    snapshots = []
    for _ in range(draw(st.integers(1, 2 * _GROUP + 3))):
        kind = draw(st.sampled_from(["fresh", "repeat", "ulp"]) if snapshots
                    else st.just("fresh"))
        if kind == "fresh":
            jitter = draw(st.sampled_from([1e-6, 1e-3, 0.1]))
            snapshots.append(mean + jitter * spread * rng.standard_normal((k, d)))
        else:
            base = snapshots[draw(st.integers(0, len(snapshots) - 1))]
            if kind == "ulp":
                base = np.nextafter(base, draw(st.sampled_from([np.inf, -np.inf])))
            snapshots.append(base.copy())
    special = draw(st.sampled_from([None, None, 1e300, np.inf, np.nan]))
    if special is not None:
        at = draw(st.integers(0, len(snapshots) - 1))
        snapshots[at] = np.full((k, d), special)
    return ds, cfg, snapshots


def outcome(score, ds, cfg, snapshots):
    """What ``score`` returns or raises on the snapshots, and how many of
    them it read."""
    read = []

    def trajectory():
        for c in snapshots:
            read.append(c)
            yield c

    try:
        with np.errstate(invalid="ignore"):
            result = score(ds, cfg, trajectory()).centers.tobytes()
    except (DivergenceError, ValidationError) as e:
        result = (type(e), str(e), getattr(e, "epoch", None))
    return result, len(read)


class TestBoundedScoring:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_scoring_every_snapshot(self, case):
        want = outcome(reference_best_epoch, *case)
        with mock.patch.object(dataset, "_BLOCK_ENTRIES", SMALL_BLOCK):
            assert outcome(best_epoch, *case) == want

    @settings(max_examples=150, deadline=None)
    @given(scoring_cases())
    def test_bounds_hold_the_loss(self, case):
        ds, cfg, snapshots = case
        finite = [c for c in snapshots if np.abs(c).max() <= 1e6 + 1]
        if finite:
            with mock.patch.object(dataset, "_BLOCK_ENTRIES", SMALL_BLOCK):
                lo, hi = _loss_bounds(ds.part_features, np.stack(finite),
                                      cfg.m1, cfg.m2)
                losses = [mcc_loss(ds.part_features, PrototypeCenters(c),
                                   cfg.m1, cfg.m2) for c in finite]
            assert (lo <= losses).all() and (losses <= hi).all()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 7, MANY_ROWS]), st.sampled_from([1, 2, 3]),
           st.sampled_from([1, 2, 5]), st.sampled_from([1e-162, 1e-160, 1e-155]),
           st.sampled_from([0.0, 1e6]), st.integers(0, 2**32 - 1))
    def test_bounds_hold_the_loss_near_underflow(self, n, k, d, scale, shift, seed):
        # float64 features and centers whose squared distances are subnormal
        # or underflow, with margins at their scale so hinges are live.
        rng = np.random.default_rng(seed)
        feats = scale * (shift + rng.standard_normal((n, k, d)))
        cs = feats.mean(axis=0) + scale * rng.standard_normal((3, k, d))
        for m1, m2 in ((0.0, 0.0), (scale, 2 * scale)):
            with mock.patch.object(dataset, "_BLOCK_ENTRIES", SMALL_BLOCK):
                lo, hi = _loss_bounds(feats, cs, m1, m2)
                losses = [mcc_loss(feats, PrototypeCenters(c), m1, m2) for c in cs]
            assert (lo <= losses).all() and (losses <= hi).all()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_snapshot_is_a_divergence(self, planted, value):
        ds, _ = planted()
        ok = np.zeros((ds.n_parts, ds.feat_dim))
        bad = ok.copy()
        bad[-1, -1] = value
        for snapshot in (np.full_like(ok, value), bad):
            with pytest.raises(DivergenceError, match="at epoch 0 ") as info:
                best_epoch(ds, McmConfig(), iter([ok, snapshot]))
            assert (info.value.epoch, info.value.lr) == (0, 0.05)

    def test_snapshot_of_another_shape_refused(self, planted):
        ds, _ = planted()
        ok = np.zeros((ds.n_parts, ds.feat_dim))
        with pytest.raises(ValidationError, match="do not match"):
            best_epoch(ds, McmConfig(), iter([ok, ok[:, :-1]]))

    def test_debug_lines_give_exact_losses_and_bounds(self, planted, caplog):
        ds, _ = planted()
        cfg = McmConfig(epochs=2 * _GROUP)
        with caplog.at_level(logging.DEBUG, logger="conceptmine.partproto"):
            got = best_epoch(ds, cfg, descend(ds, cfg))
        *lines, summary = [r.getMessage() for r in caplog.records
                           if r.name == "conceptmine.partproto"]
        total, exact = map(int, re.fullmatch(
            r"scored (\d+) snapshots, (\d+) of them exactly", summary).groups())
        assert total == 2 * _GROUP + 1 and 1 <= exact < total
        exact_lines = 0
        for epoch, line in enumerate(lines):
            bounded = re.fullmatch(rf"epoch {epoch}: mcc loss in \[(\S+), (\S+)\]", line)
            if bounded:
                assert float(bounded[1]) <= float(bounded[2])
            else:
                assert re.fullmatch(rf"epoch {epoch}: mcc loss \S+", line)
                exact_lines += 1
        assert len(lines) == 2 * _GROUP and exact_lines in (exact - 1, exact)
        assert f"mcc loss {mcc_loss(ds.part_features, got, cfg.m1, cfg.m2):.6g}" \
            in caplog.text


class TestCentersIo:
    def test_binary_round_trip(self, tmp_path):
        pc = PrototypeCenters(np.random.default_rng(0).normal(size=(4, 7)))
        path = tmp_path / "c.pcmc"
        save_centers(pc, path, "pcmc")
        out = load_centers(path, "pcmc")
        np.testing.assert_array_equal(out.centers, pc.centers)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "c.pcmc"
        save_centers(PrototypeCenters(np.ones((2, 3))), path, "pcmc")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="c.pcmc"):
            load_centers(path, "pcmc")

    def test_other_formats_refused(self, tmp_path):
        path = tmp_path / "c.json"
        with pytest.raises(ValidationError, match="'json'"):
            save_centers(PrototypeCenters(np.ones((2, 3))), path, "json")
        assert not path.exists()
        path.write_text("[[1.0, 2.0]]")
        with pytest.raises(ValidationError, match="'json'"):
            load_centers(path, "json")
