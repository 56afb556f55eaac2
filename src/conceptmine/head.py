"""Sparse linear classification over (z, g): softmax cross-entropy with an
elastic-net penalty on the concept weights W1 only.

Training is full-batch proximal gradient descent: a gradient step on the
smooth part (cross-entropy + L2), then soft-thresholding of W1 by
step * lambda * gamma. The step size is halved until the objective does not
increase (or the step reaches 0.0, which holds still), so the recorded
objective is non-increasing by construction. Each epoch's search starts at
min(lr, 2 * the last accepted step).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DivergenceError, FormatError, ValidationError,
                     check_array, check_int, check_real, read_container,
                     read_json_object, write_container, write_json)

HEAD_MAGIC = b"PCMH"


@dataclass
class SparseHead:
    """What a head file holds: weights, logits = W1^T z + W2^T g + b, and
    ``meta``, the file's other top-level keys (config_hash, lambda, gamma),
    empty for a trained head."""

    W1: np.ndarray  # [d_c, L]
    W2: np.ndarray  # [d_f, L]
    b: np.ndarray  # [L]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.W1 = check_array("W1", self.W1, 2, finite=True)
        self.W2 = check_array("W2", self.W2, 2, finite=True)
        self.b = check_array("b", self.b, 1, finite=True)
        if not (self.W1.shape[1] == self.W2.shape[1] == self.b.shape[0]):
            raise ValidationError(
                f"inconsistent class counts: W1 {self.W1.shape}, "
                f"W2 {self.W2.shape}, b {self.b.shape}"
            )

    @property
    def n_classes(self) -> int:
        return self.b.shape[0]


@dataclass
class HeadTrainConfig:
    lam: float = 0.007
    gamma: float = 0.5
    beta: float = 2.0  # staged-objective weight; the pipeline folds it into lr
    lr: float = 1.0
    epochs: int = 200

    def __post_init__(self):
        check_real("lam", self.lam, 0)
        check_real("gamma", self.gamma, 0, 1)
        for name in ("beta", "lr"):
            check_real(name, getattr(self, name), 0, low_open=True)
        check_int("epochs", self.epochs, 1)


def head_forward(z: np.ndarray, g: np.ndarray, head: SparseHead) -> np.ndarray:
    """Logits for one sample. Prediction is argmax (lowest index wins ties)."""
    z = check_array("z", z, 1)
    g = check_array("g", g, 1)
    if z.shape != (head.W1.shape[0],) or g.shape != (head.W2.shape[0],):
        raise ValidationError(
            f"input dims z{z.shape}/g{g.shape} do not match head "
            f"({head.W1.shape[0]}, {head.W2.shape[0]})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        logits = head.W1.T @ z + head.W2.T @ g + head.b
    return _finite_logits(logits[None])[0]


def predict(z: np.ndarray, g: np.ndarray, head: SparseHead) -> np.ndarray:
    """Predicted class per sample row, by :func:`head_forward`'s rule."""
    z = check_array("z", z, 2)
    g = check_array("g", g, 2)
    if z.shape[1] != head.W1.shape[0] or g.shape[1] != head.W2.shape[0]:
        raise ValidationError("batch dims do not match head")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = z @ head.W1 + g @ head.W2 + head.b
    return np.argmax(_finite_logits(logits), axis=1)


def _finite_logits(logits: np.ndarray) -> np.ndarray:
    """``logits [n, L]``, refused if any overflowed: a finite head can still
    be too large for its inputs, and an inf or NaN logit ranks nothing."""
    bad = ~np.isfinite(logits).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(f"head logits of sample {row} are not finite; the "
                              f"head weights are too large for its inputs", row)
    return logits


def accuracy(cavs: np.ndarray, gs: np.ndarray, labels: np.ndarray,
             head: SparseHead) -> float:
    """Percent of samples whose predicted class equals their label."""
    return percent_correct(predict(cavs, gs, head), labels, head.n_classes)


def percent_correct(pred: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Percent of predicted classes ``pred`` equal to their labels, one
    label in [0, n_classes) per prediction and at least one prediction."""
    y = check_array("labels", labels, 1, np.int64, high=n_classes)
    if len(y) != len(pred):
        raise ValidationError(f"{len(y)} labels for {len(pred)} predictions")
    if not len(y):
        raise ValidationError("accuracy needs at least one prediction")
    return 100.0 * float(np.mean(pred == y))


def elastic_net_penalty(W1: np.ndarray, lam: float, gamma: float) -> float:
    """lambda * ((1 - gamma) * 0.5 * ||W1||_F^2 + gamma * ||W1||_1)."""
    check_real("lam", lam, 0)
    check_real("gamma", gamma, 0, 1)
    W1 = check_array("W1", W1, 2)
    return float(lam * ((1 - gamma) * 0.5 * np.sum(W1 * W1)
                        + gamma * np.sum(np.abs(W1))))


def soft_threshold(u: np.ndarray, t: float) -> np.ndarray:
    """Proximal operator of t * ||.||_1; entries with |u| <= t become exactly 0."""
    return np.where(np.abs(u) <= t, 0.0, u - np.sign(u) * t)


def _log_softmax(o: np.ndarray) -> np.ndarray:
    shifted = o - o.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _smooth_objective_and_grads(z, g, onehot, W1, W2, b, lam, gamma):
    """Mean cross-entropy plus the L2 part of the penalty, with gradients."""
    n = z.shape[0]
    o = z @ W1 + g @ W2 + b
    logp = _log_softmax(o)
    ce = -float((onehot * logp).sum()) / n
    l2 = lam * (1 - gamma) * 0.5 * float(np.sum(W1 * W1))

    d_o = (np.exp(logp) - onehot) / n
    g_w1 = z.T @ d_o + lam * (1 - gamma) * W1
    g_w2 = g.T @ d_o
    g_b = d_o.sum(axis=0)
    return ce + l2, g_w1, g_w2, g_b


def train_head(cavs: np.ndarray, gs: np.ndarray, labels: np.ndarray,
               cfg: HeadTrainConfig, on_epoch=None) -> SparseHead:
    """Fit the sparse head by full-batch proximal gradient descent with
    backtracking.

    Weights start at zero and the objective is convex, so the run is
    deterministic. ``on_epoch(epoch, objective, step, pre_prox, w1)`` is
    invoked after every epoch, exposing the pre-threshold W1 for diagnostics.
    """
    z = check_array("cavs", cavs, 2)
    g = check_array("gs", gs, 2)
    # A label below n leaves room for a sample of every class.
    y = check_array("labels", labels, 1, np.int64, high=len(z))
    if not len(z) == len(g) == len(y):
        raise ValidationError("cavs, gs and labels shapes are inconsistent")
    if not len(y):
        raise ValidationError("train_head needs at least one sample")
    n_classes = int(y.max()) + 1
    onehot = np.eye(n_classes)[y]

    w1 = np.zeros((z.shape[1], n_classes))
    w2 = np.zeros((g.shape[1], n_classes))
    b = np.zeros(n_classes)

    def objective_and_grads(w1_, w2_, b_):
        smooth, *grads = _smooth_objective_and_grads(z, g, onehot, w1_, w2_, b_,
                                                     cfg.lam, cfg.gamma)
        return smooth + cfg.lam * cfg.gamma * float(np.sum(np.abs(w1_))), grads

    # The accepted trial's gradients are the next epoch's: one forward pass
    # per trial point, none repeated.
    obj, (g_w1, g_w2, g_b) = objective_and_grads(w1, w2, b)
    step = cfg.lr
    for epoch in range(cfg.epochs):
        # From twice the last accepted step: a huge lr is halved down once.
        step = min(cfg.lr, 2.0 * step)
        while step > 0:
            # An overflowing trial's inf or NaN objective is rejected below.
            with np.errstate(over="ignore", invalid="ignore"):
                pre_prox = w1 - step * g_w1
                w1_new = soft_threshold(pre_prox, step * cfg.lam * cfg.gamma)
                w2_new = w2 - step * g_w2
                b_new = b - step * g_b
                obj_new, grads_new = objective_and_grads(w1_new, w2_new, b_new)
            if obj_new <= obj:
                w1, w2, b, obj = w1_new, w2_new, b_new, obj_new
                g_w1, g_w2, g_b = grads_new
                break
            step /= 2.0
        else:
            # No float-representable step improves the objective; hold
            # still. The step stays 0.0: every later trial would be the same.
            pre_prox = w1
        if not np.isfinite(obj):
            raise DivergenceError(f"non-finite head objective at epoch {epoch}",
                                  epoch=epoch, lr=cfg.lr)
        if on_epoch is not None:
            on_epoch(epoch, obj, step, pre_prox, w1)
    return SparseHead(W1=w1, W2=w2, b=b)


def concept_contributions(z: np.ndarray, head: SparseHead, c: int) -> np.ndarray:
    """Per-concept evidence for class c: z_k * W1[k, c]."""
    check_int("class", c, 0, head.n_classes - 1)
    z = check_array("z", z, 1)
    if z.shape != (head.W1.shape[0],):
        raise ValidationError(f"z shape {z.shape} does not match head d_c")
    return z * head.W1[:, c]


def save_head(head: SparseHead, path, format: str = "json"):
    """Write a head as JSON {W1, W2, b} plus its ``meta`` keys, or as a PCMH
    container whose W1, W2 and b follow ``meta`` as the JSON header. A head
    loaded from a file this wrote saves to that file's bytes."""
    payload = dict(head.meta)
    if format == "json":
        payload.update({"W1": head.W1.tolist(), "W2": head.W2.tolist(),
                        "b": head.b.tolist()})
        write_json(path, payload)
    elif format == "pcmh":
        write_container(path, HEAD_MAGIC, payload, [head.W1, head.W2, head.b])
    else:
        raise ValidationError(f"unknown head format {format!r}")


def load_head(path, format: str = "json") -> SparseHead:
    """Read a head written by :func:`save_head`, with its other top-level
    keys as ``meta``; a JSON head with a missing key or a wrongly typed value
    raises :class:`FormatError`."""
    if format != "json":
        meta, (W1, W2, b) = read_container(path, HEAD_MAGIC, 3)
        return SparseHead(W1, W2, b, meta)
    payload = read_json_object(path)
    try:
        weights = [np.array(payload.pop(k), dtype=np.float64)
                   for k in ("W1", "W2", "b")]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed head JSON ({e!r})") from None
    return SparseHead(*weights, payload)
