"""Prototype-center learning via the marginal cluster-center loss.

The loss pulls each part feature to within m1 of its part's center and
pushes distinct centers at least m2 apart:

    mean_i sum_p ( [||f_ip - c_p|| - m1]_+  +  (1/K) sum_{q!=p} [m2 - ||c_p - c_q||]_+ )

Only the centers are trainable; part features are fixed inputs.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import PartFeatureDataset
from .errors import DivergenceError, FormatError, ValidationError

log = logging.getLogger(__name__)

CENTERS_MAGIC = b"PCMC"
_CENTERS_HEADER = struct.Struct("<4s3I")
_LOSS_ROWS = 256  # samples per block of the full-data loss


@dataclass
class McmConfig:
    """Margins and optimizer settings for center fitting."""

    m1: float = 0.3
    m2: float = 1.5
    lr: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "m1", "m2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.m1 < 0 or self.m2 < 0:
            raise ValidationError("margins must be >= 0")
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.m2 <= self.m1:
            log.warning("m2=%g <= m1=%g: collapsed-margin regime", self.m2, self.m1)


@dataclass
class PrototypeCenters:
    """Learned centers, one per part: [K, d_f]."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise ValidationError(f"centers must be 2-D, got {self.centers.shape}")
        if not np.isfinite(self.centers).all():
            raise ValidationError("centers contain non-finite values")


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: what ``np.linalg.norm(x, axis=-1)``
    computes for real input, without its dispatch overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _pair_hinges(centers: np.ndarray, m2: float):
    """Pairwise center distances and the active-hinge mask (d < m2, p != q)."""
    diff = centers[:, None, :] - centers[None, :, :]
    dist = _norms(diff)
    active = dist < m2
    np.fill_diagonal(active, False)
    return diff, dist, active


def _check_batch(batch, centers: PrototypeCenters) -> np.ndarray:
    """The batch as float64 [B, K, d_f], refusing an empty batch or one whose
    per-sample shape is not the centers' shape."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValidationError(f"empty or malformed batch of shape {batch.shape}")
    if batch.shape[1:] != centers.centers.shape:
        raise ValidationError(
            f"batch shape {batch.shape[1:]} does not match centers "
            f"{centers.centers.shape}"
        )
    return batch


def mcc_loss(batch: np.ndarray, centers: PrototypeCenters,
             m1: float, m2: float) -> float:
    """Marginal cluster-center loss, averaged over the batch.

    The intra term is computed in blocks of ``_LOSS_ROWS`` samples, so a
    large batch never allocates its full [B, K, d_f] residual.
    """
    batch = _check_batch(batch, centers)
    c = centers.centers
    k = c.shape[0]

    rows = np.empty(batch.shape[0])  # per-sample intra hinge sums
    for start in range(0, batch.shape[0], _LOSS_ROWS):
        block = batch[start:start + _LOSS_ROWS]
        intra_dist = _norms(block - c[None, :, :])  # [b, K]
        rows[start:start + len(block)] = np.maximum(intra_dist - m1, 0.0).sum(axis=1)
    intra = rows.mean()

    _, dist, _ = _pair_hinges(c, m2)
    pair_h = np.maximum(m2 - dist, 0.0)
    np.fill_diagonal(pair_h, 0.0)
    pair = pair_h.sum() / k
    return float(intra + pair)


def mcc_gradients(batch: np.ndarray, centers: PrototypeCenters,
                  m1: float, m2: float) -> np.ndarray:
    """Gradient of :func:`mcc_loss` with respect to the centers, [K, d_f].

    Hinge derivatives are taken as 0 at the kink; the unit direction between
    coincident centers is taken as the zero vector.
    """
    batch = _check_batch(batch, centers)
    c = centers.centers
    k = c.shape[0]

    resid = batch - c[None, :, :]  # [B, K, d]
    dist = _norms(resid)
    active = dist > m1
    safe = np.where(dist > 0, dist, 1.0)
    unit = resid / safe[:, :, None]
    if not active.all():  # multiplying by an all-True mask changes nothing
        unit *= active[:, :, None]
    grad = -unit.sum(axis=0) / batch.shape[0]

    diff, pdist, pactive = _pair_hinges(c, m2)
    if not pactive.any():  # the pair term would add -0.0 everywhere
        return grad
    psafe = np.where(pdist > 0, pdist, 1.0)
    punit = np.where(pactive[:, :, None] & (pdist[:, :, None] > 0),
                     diff / psafe[:, :, None], 0.0)
    # Each unordered pair appears in both p's and q's sums, hence the factor 2.
    grad += -(2.0 / k) * punit.sum(axis=1)
    return grad


def fit_prototype_centers(ds: PartFeatureDataset, cfg: McmConfig,
                          init: PrototypeCenters | None = None) -> PrototypeCenters:
    """Fit centers by mini-batch gradient descent on the MCC loss.

    Centers start at the per-part feature means plus seeded jitter unless
    ``init`` is given. The returned centers are the best (lowest full-data
    loss) seen at any epoch boundary, so the final loss never exceeds the
    initial one. Deterministic per cfg.seed.
    """
    feats = ds.part_features.astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    if init is not None:
        c = init.centers.copy()
    else:
        c = feats.mean(axis=0) + 0.01 * rng.standard_normal((ds.n_parts, ds.feat_dim))

    def full_loss(centers_arr):
        return mcc_loss(feats, PrototypeCenters(centers_arr), cfg.m1, cfg.m2)

    best = c.copy()
    best_loss = full_loss(c)
    n = ds.n_samples
    for epoch in range(cfg.epochs):
        # Indexing each batch out of feats measured faster than making one
        # shuffled copy of feats per epoch (a fresh multi-MB allocation).
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            g = mcc_gradients(feats[idx], PrototypeCenters(c), cfg.m1, cfg.m2)
            c = c - cfg.lr * g
        loss = full_loss(c)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite MCC loss at epoch {epoch} (lr={cfg.lr})",
                epoch=epoch, lr=cfg.lr,
            )
        log.debug("epoch %d: mcc loss %.6g", epoch, loss)
        if loss < best_loss:
            best_loss = loss
            best = c.copy()
    return PrototypeCenters(best)


def save_centers(pc: PrototypeCenters, path, format: str = "pcmc"):
    """Write centers as PCMC binary or a JSON array-of-arrays."""
    if format == "pcmc":
        k, d_f = pc.centers.shape
        with open(path, "wb") as fh:
            fh.write(_CENTERS_HEADER.pack(CENTERS_MAGIC, 1, k, d_f))
            fh.write(np.ascontiguousarray(pc.centers, dtype="<f8").tobytes())
    elif format == "json":
        with open(path, "w") as fh:
            json.dump(pc.centers.tolist(), fh)
    else:
        raise ValidationError(f"unknown centers format {format!r}")


def load_centers(path, format: str = "pcmc") -> PrototypeCenters:
    """Read centers written by :func:`save_centers`. A truncated PCMC file, or
    JSON that is not a numeric array of equal-length rows, raises
    :class:`FormatError` naming the path."""
    if format == "json":
        with open(path) as fh:
            try:
                centers = np.array(json.load(fh), dtype=np.float64)
            except (TypeError, ValueError) as e:  # bad JSON, ragged or non-numeric
                raise FormatError(f"{path}: malformed centers JSON ({e})") from None
        return PrototypeCenters(centers)
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CENTERS_HEADER.size:
        raise FormatError(f"{path}: file shorter than PCMC header")
    magic, version, k, d_f = _CENTERS_HEADER.unpack_from(raw)
    if magic != CENTERS_MAGIC or version != 1:
        raise FormatError(f"{path}: bad PCMC header")
    expected = _CENTERS_HEADER.size + 8 * k * d_f
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != {expected}")
    centers = np.frombuffer(raw, dtype="<f8", offset=_CENTERS_HEADER.size)
    return PrototypeCenters(centers.reshape(k, d_f).copy())
