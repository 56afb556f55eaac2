import numpy as np
import pytest

import conceptmine.head as head_module
from conceptmine.cav import compute_cav_batch
from conceptmine.dataset import SyntheticSpec, generate_synthetic
from conceptmine.errors import ValidationError
from conceptmine.head import (HeadTrainConfig, SparseHead, _smooth_objective_and_grads,
                              concept_contributions, elastic_net_penalty,
                              head_forward, load_head, predict,
                              save_head, soft_threshold, train_head)
from conceptmine.mining import MiningConfig, mine_concepts
from oracles import central_difference_grad, gd_softmax_oracle, reference_train_head


def separable_cavs(seed=0):
    spec = SyntheticSpec(n_classes=3, n_parts=2, feat_dim=16, samples_per_class=10,
                         concepts_per_cell=1, noise_sigma=0.02, seed=seed)
    ds, _ = generate_synthetic(spec)
    book = mine_concepts(ds, MiningConfig(eps=0.2, min_pts=2))
    z, g = compute_cav_batch(ds, book)
    return z, g, ds.labels.astype(np.int64)


class TestForward:
    def test_bias_only(self):
        head = SparseHead(np.zeros((3, 2)), np.zeros((2, 2)), np.array([0.1, 0.2]))
        o = head_forward(np.zeros(3), np.zeros(2), head)
        np.testing.assert_allclose(o, [0.1, 0.2])
        assert int(np.argmax(o)) == 1

    def test_matches_hand_arithmetic(self):
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(3, 2))
        w2 = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        z = rng.normal(size=3)
        g = rng.normal(size=2)
        head = SparseHead(w1, w2, b)
        want = np.array([
            sum(w1[k, c] * z[k] for k in range(3))
            + sum(w2[d, c] * g[d] for d in range(2)) + b[c]
            for c in range(2)
        ])
        np.testing.assert_allclose(head_forward(z, g, head), want, rtol=1e-12)

    def test_zero_inputs_give_bias(self):
        rng = np.random.default_rng(1)
        head = SparseHead(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)),
                          rng.normal(size=3))
        np.testing.assert_array_equal(head_forward(np.zeros(4), np.zeros(2), head),
                                      head.b)

    def test_dim_mismatch(self):
        head = SparseHead(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            head_forward(np.zeros(4), np.zeros(2), head)

    def test_argmax_tie_breaks_low(self):
        head = SparseHead(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(3))
        preds = predict(np.zeros((2, 1)), np.zeros((2, 1)), head)
        assert (preds == 0).all()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_logits_name_the_first_sample(self):
        # A finite head whose logits overflow on some inputs: rows 0 to 2 are
        # zero and score by b alone, row 3 sums 1e308 four times.
        head = SparseHead(np.full((4, 2), 1e308), np.full((2, 2), -1e308),
                          np.zeros(2))
        z, g = np.zeros((6, 4)), np.zeros((6, 2))
        z[3:] = 1.0
        assert (predict(z[:3], g[:3], head) == 0).all()
        with pytest.raises(ValidationError, match="sample 3 are not finite") as e:
            predict(z, g, head)
        assert e.value.index == 3
        g[4] = 1.0  # inf - inf is NaN
        with pytest.raises(ValidationError, match="sample 0 are not finite"):
            head_forward(z[4], g[4], head)


class TestPenalty:
    def test_pure_l1(self):
        assert elastic_net_penalty(np.array([[1.0], [-2.0]]), lam=2.0, gamma=1.0) \
            == pytest.approx(2.0 * 3.0)

    def test_pure_l2_squared_frobenius(self):
        assert elastic_net_penalty(np.array([[3.0], [4.0]]), lam=1.0, gamma=0.0) \
            == pytest.approx(12.5)

    def test_mixed_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 4))
        lam, gamma = 0.3, 0.5
        want = lam * ((1 - gamma) * 0.5 * sum(v * v for v in w.ravel())
                      + gamma * sum(abs(v) for v in w.ravel()))
        assert elastic_net_penalty(w, lam, gamma) == pytest.approx(want, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            elastic_net_penalty(np.zeros((1, 1)), lam=-1.0, gamma=0.5)
        with pytest.raises(ValidationError):
            elastic_net_penalty(np.zeros((1, 1)), lam=1.0, gamma=1.5)


class TestSoftThreshold:
    def test_dead_zone_exact_zero(self):
        u = np.array([-0.75, -0.25, 0.0, 0.125, 0.25, 0.75])
        out = soft_threshold(u, 0.25)
        np.testing.assert_array_equal(out, [-0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
        assert (out[1:5] == 0.0).all()

    def test_shrinks_by_exactly_t(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=100) * 3
        t = 0.4
        out = soft_threshold(u, t)
        outside = np.abs(u) > t
        np.testing.assert_array_equal(out[outside],
                                      u[outside] - np.sign(u[outside]) * t)
        assert (out[~outside] == 0.0).all()


class TestTraining:
    def test_separable_matches_oracle(self):
        z, g, y = separable_cavs()
        cfg = HeadTrainConfig(lam=0.0, gamma=0.5, lr=2.0, epochs=800)
        objs = []
        head = train_head(z, g, y, cfg, on_epoch=lambda e, o, s, u, w: objs.append(o))
        assert float(np.mean(predict(z, g, head) == y)) == 1.0
        *_, obj_ref = gd_softmax_oracle(z, g, y, lr=2.0, iters=20000)
        assert abs(objs[-1] - obj_ref) <= 1e-3

    def test_objective_monotone(self):
        z, g, y = separable_cavs(seed=1)
        objs = []
        cfg = HeadTrainConfig(lam=0.05, gamma=0.7, lr=4.0, epochs=150)
        train_head(z, g, y, cfg, on_epoch=lambda e, o, s, u, w: objs.append(o))
        assert all(a >= b for a, b in zip(objs, objs[1:]))

    def test_huge_lambda_kills_w1(self):
        z, g, y = separable_cavs(seed=2)
        cfg = HeadTrainConfig(lam=1e6, gamma=1.0, lr=1.0, epochs=100)
        head = train_head(z, g, y, cfg)
        assert np.abs(head.W1).sum() <= 1e-6
        # The classifier still works through W2 and b.
        assert float(np.mean(predict(z, g, head) == y)) == 1.0

    def test_deterministic(self):
        z, g, y = separable_cavs(seed=3)
        cfg = HeadTrainConfig(lam=0.01, gamma=0.5, epochs=60)
        h1 = train_head(z, g, y, cfg)
        h2 = train_head(z, g, y, cfg)
        np.testing.assert_array_equal(h1.W1, h2.W1)
        np.testing.assert_array_equal(h1.W2, h2.W2)
        np.testing.assert_array_equal(h1.b, h2.b)

    def test_prox_dead_zone_invariant_every_step(self):
        z, g, y = separable_cavs(seed=4)
        cfg = HeadTrainConfig(lam=0.1, gamma=0.8, lr=2.0, epochs=120)
        checked = []

        def check(epoch, obj, step, pre_prox, w1):
            t = step * cfg.lam * cfg.gamma
            inside = np.abs(pre_prox) <= t
            assert (w1[inside] == 0.0).all()
            np.testing.assert_array_equal(w1, soft_threshold(pre_prox, t))
            checked.append(epoch)

        train_head(z, g, y, cfg, on_epoch=check)
        assert len(checked) == cfg.epochs

    def test_sparsity_monotone_in_lambda(self):
        z, g, y = separable_cavs(seed=5)
        zero_fracs = []
        for lam in (0.0, 0.01, 0.1, 1.0):
            head = train_head(z, g, y,
                              HeadTrainConfig(lam=lam, gamma=0.9, epochs=150))
            zero_fracs.append(float(np.mean(head.W1 == 0.0)))
        assert all(a <= b + 1e-12 for a, b in zip(zero_fracs, zero_fracs[1:]))
        assert zero_fracs[-1] > zero_fracs[0]

    def test_smooth_grad_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(12, 5))
        g = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        y[:3] = [0, 1, 2]
        onehot = np.eye(3)[y]
        w1 = rng.normal(size=(5, 3))
        w2 = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        lam, gamma = 0.2, 0.4
        _, g1, g2, gb = _smooth_objective_and_grads(z, g, onehot, w1, w2, b,
                                                    lam, gamma)

        def fd(setter):
            def f(x):
                args = dict(w1=w1, w2=w2, b=b)
                args[setter] = x
                val, *_ = _smooth_objective_and_grads(
                    z, g, onehot, args["w1"], args["w2"], args["b"], lam, gamma)
                return val
            return f

        for analytic, name, x in ((g1, "w1", w1), (g2, "w2", w2), (gb, "b", b)):
            numeric = central_difference_grad(fd(name), x)
            rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            assert rel <= 1e-4, name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lr", [1e20, 1e100, 1e200, 1e300])
    def test_overflowing_step_is_rejected_without_a_warning(self, lr):
        """A trial step whose objective overflows is a worse point to reject,
        not a numpy warning. The halvings have no cap, so every epoch finds
        a step that trains (lr / 2^60 is still too large for each lr here)."""
        z, g, y = separable_cavs()
        objs, steps = [], []
        head = train_head(z, g, y, HeadTrainConfig(lr=lr, epochs=3),
                          on_epoch=lambda e, o, s, u, w: (objs.append(o),
                                                          steps.append(s)))
        assert len(objs) == 3 and np.isfinite(objs).all()
        assert all(a >= b for a, b in zip(objs, objs[1:]))
        for w in (head.W1, head.W2, head.b):
            assert np.isfinite(w).all()
        assert min(steps) > 0
        assert (predict(z, g, head) == y).all()

    @pytest.mark.filterwarnings("error")
    def test_huge_lr_is_halved_down_once(self, monkeypatch):
        """Each epoch's search starts at twice the last accepted step, so lr
        1e300 pays its thousand-odd halvings about once in 20 epochs, not in
        every epoch (19,415 objective evaluations when each search restarted
        at lr)."""
        ds, _ = generate_synthetic(SyntheticSpec(n_classes=3, n_parts=2,
                                                 feat_dim=8, samples_per_class=20))
        z, g = compute_cav_batch(ds, mine_concepts(ds, MiningConfig()))
        calls = []

        def counted(*args):
            calls.append(None)
            return _smooth_objective_and_grads(*args)

        monkeypatch.setattr(head_module, "_smooth_objective_and_grads", counted)
        head = train_head(z, g, ds.labels, HeadTrainConfig(lr=1e300, epochs=20))
        assert len(calls) <= 1100
        assert (predict(z, g, head) == ds.labels).all()

    def test_step_search_starts_at_twice_the_last_step(self):
        """No epoch accepts a step above lr or above twice the step accepted
        before it; at an ordinary lr every epoch accepts lr itself."""
        z, g, y = separable_cavs()
        for lr in (1.0, 1e100):
            steps = []
            train_head(z, g, y, HeadTrainConfig(lr=lr, epochs=10),
                       on_epoch=lambda e, o, s, u, w: steps.append(s))
            assert all(0 < s <= lr for s in steps)
            assert all(b <= 2.0 * a for a, b in zip(steps, steps[1:]))
            if lr == 1.0:
                assert steps == [1.0] * 10

    @pytest.mark.parametrize("field", ["lam", "lr", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_refused(self, field, value):
        with pytest.raises(ValidationError, match=field):
            HeadTrainConfig(**{field: value})

    def test_fractional_epochs_refused(self):
        with pytest.raises(ValidationError, match="epochs"):
            HeadTrainConfig(epochs=2.5)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            train_head(np.zeros((2, 3)), np.zeros((2, 2)), np.array([0, 2]),
                       HeadTrainConfig(epochs=1))


class TestTrainingMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lr, lam", [(1.0, 0.007), (512.0, 0.05)],
                             ids=["no-halvings", "halvings"])
    def test_bit_identical(self, seed, lr, lam):
        z, g, y = separable_cavs(seed)
        cfg = HeadTrainConfig(lr=lr, lam=lam, epochs=30)
        runs = []
        for train in (train_head, reference_train_head):
            epochs = []
            head = train(z, g, y, cfg, on_epoch=lambda e, obj, step, pre, w1:
                         epochs.append((e, obj, step, pre.tobytes(), w1.tobytes())))
            runs.append((head, epochs))
        (fast, fast_epochs), (ref, ref_epochs) = runs
        for name in ("W1", "W2", "b"):
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes()
        assert fast_epochs == ref_epochs
        halvings = sum(step < lr for _, _, step, _, _ in fast_epochs)
        assert (halvings > 0) == (lr > 1.0)


class TestContributions:
    def test_zero_weights(self):
        head = SparseHead(np.zeros((3, 2)), np.zeros((1, 2)), np.zeros(2))
        np.testing.assert_array_equal(
            concept_contributions(np.ones(3), head, 0), np.zeros(3))

    def test_hand_product(self):
        w1 = np.array([[2.0], [7.0]])
        head = SparseHead(w1, np.zeros((1, 1)), np.zeros(1))
        scores = concept_contributions(np.array([0.5, 0.0]), head, 0)
        np.testing.assert_array_equal(scores, [1.0, 0.0])

    def test_sum_recovers_logit(self):
        rng = np.random.default_rng(7)
        head = SparseHead(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)),
                          rng.normal(size=3))
        z = rng.uniform(size=4)
        g = rng.normal(size=2)
        c = 2
        logit = head_forward(z, g, head)[c]
        total = concept_contributions(z, head, c).sum() + g @ head.W2[:, c] + head.b[c]
        assert total == pytest.approx(logit, rel=1e-12)

    def test_class_out_of_range(self):
        head = SparseHead(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ValidationError, match="class must be an integer >= 0 and <= 1"):
            concept_contributions(np.zeros(2), head, 2)


class TestHeadIo:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        head = SparseHead(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)),
                          rng.normal(size=2))
        path = tmp_path / "h.json"
        head.meta = {"lambda": 0.01, "gamma": 0.5}
        save_head(head, path, "json")
        out = load_head(path, "json")
        np.testing.assert_array_equal(out.W1, head.W1)
        np.testing.assert_array_equal(out.W2, head.W2)
        np.testing.assert_array_equal(out.b, head.b)
        import json as _json
        payload = _json.load(open(path))
        assert payload["lambda"] == 0.01 and payload["gamma"] == 0.5

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        head = SparseHead(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)),
                          rng.normal(size=3))
        path = tmp_path / "h.pcmh"
        head.meta = {"lambda": 0.1, "gamma": 0.9}
        save_head(head, path, "pcmh")
        out = load_head(path, "pcmh")
        np.testing.assert_array_equal(out.W1, head.W1)
        np.testing.assert_array_equal(out.W2, head.W2)
        np.testing.assert_array_equal(out.b, head.b)
