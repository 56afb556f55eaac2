"""Prototype-center learning via the marginal cluster-center loss.

The loss pulls each part feature to within m1 of its part's center and
pushes distinct centers at least m2 apart:

    mean_i sum_p ( [||f_ip - c_p|| - m1]_+  +  (1/K) sum_{q!=p} [m2 - ||c_p - c_q||]_+ )

Only the centers are trainable; part features are fixed inputs.

Fitting is two steps that can run in different processes: :func:`descend`
runs mini-batch gradient descent and yields the centers at every epoch
boundary without computing a loss, and :func:`best_epoch` scores those
snapshots on the full data and keeps the best. ``cli.run_pipeline`` runs
the descent in a forked child and scores its snapshots in the parent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import PartFeatureDataset
from .errors import (SEED_MAX, DivergenceError, ValidationError, check_int,
                     check_real, read_container, write_container)

log = logging.getLogger(__name__)

CENTERS_MAGIC = b"PCMC"
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
        check_real("lr", self.lr, 0, low_open=True)
        for name in ("m1", "m2"):
            check_real(name, getattr(self, name), 0)
        for name in ("epochs", "batch_size"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0, SEED_MAX)
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


def _check_batch(batch, centers: PrototypeCenters,
                 dtype=np.float64) -> np.ndarray:
    """The batch as a [B, K, d_f] array of ``dtype`` (None keeps its own),
    refusing an empty batch or one whose per-sample shape is not the
    centers' shape."""
    batch = np.asarray(batch, dtype=dtype)
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

    The intra term is computed in blocks of ``_LOSS_ROWS`` samples, each
    upcast to float64 on its own (exact for float32 input), so a large
    batch never allocates its full [B, K, d_f] residual or float64 copy.
    """
    batch = _check_batch(batch, centers, dtype=None)
    c = centers.centers
    k = c.shape[0]

    rows = np.empty(batch.shape[0])  # per-sample intra hinge sums
    for start in range(0, batch.shape[0], _LOSS_ROWS):
        block = batch[start:start + _LOSS_ROWS].astype(np.float64, copy=False)
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


def descend(ds: PartFeatureDataset, cfg: McmConfig,
            init: PrototypeCenters | None = None):
    """Mini-batch gradient descent on the MCC loss, as a generator.

    Centers start at the per-part feature means plus seeded jitter unless
    ``init`` is given. Yields the [K, d_f] float64 centers before the first
    epoch and after each of the ``cfg.epochs`` epochs, ``epochs + 1`` arrays
    that are never written to afterwards. Computes no loss. Deterministic
    per cfg.seed.
    """
    feats = ds.part_features.astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    if init is not None:
        c = init.centers.copy()
    else:
        c = feats.mean(axis=0) + 0.01 * rng.standard_normal((ds.n_parts, ds.feat_dim))
    yield c
    n = ds.n_samples
    for _ in range(cfg.epochs):
        # Indexing each batch out of feats measured faster than making one
        # shuffled copy of feats per epoch (a fresh multi-MB allocation).
        order = rng.permutation(n)
        # A diverging step overflows; best_epoch reports it as a typed error.
        with np.errstate(over="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                g = mcc_gradients(feats[idx], PrototypeCenters(c), cfg.m1, cfg.m2)
                c = c - cfg.lr * g
        yield c


def best_epoch(ds: PartFeatureDataset, cfg: McmConfig,
               trajectory) -> PrototypeCenters:
    """The lowest full-data-loss centers of ``trajectory``, the snapshots
    that :func:`descend` yields, scored one at a time as they arrive.

    Raises :class:`DivergenceError` at the first non-finite loss after an
    epoch. The first snapshot (the start) is never refused, so the result's
    loss never exceeds the start's.
    """
    best = best_loss = None
    for epoch, c in enumerate(trajectory, -1):
        with np.errstate(over="ignore"):
            loss = mcc_loss(ds.part_features, PrototypeCenters(c), cfg.m1, cfg.m2)
        if epoch >= 0:
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite MCC loss at epoch {epoch} (lr={cfg.lr})",
                    epoch=epoch, lr=cfg.lr,
                )
            log.debug("epoch %d: mcc loss %.6g", epoch, loss)
        if best is None or loss < best_loss:
            best, best_loss = c, loss
    # A copy: a snapshot read from the fit pipe is a read-only view of its bytes.
    return PrototypeCenters(np.array(best, dtype=np.float64))


def fit_prototype_centers(ds: PartFeatureDataset, cfg: McmConfig,
                          init: PrototypeCenters | None = None) -> PrototypeCenters:
    """Fit centers by mini-batch gradient descent on the MCC loss and return
    the best (lowest full-data loss) seen at any epoch boundary."""
    return best_epoch(ds, cfg, descend(ds, cfg, init))


def save_centers(pc: PrototypeCenters, path, format: str = "pcmc"):
    """Write centers as a PCMC container, the one centers format."""
    if format != "pcmc":
        raise ValidationError(f"unknown centers format {format!r}")
    write_container(path, CENTERS_MAGIC, {}, [pc.centers])


def load_centers(path, format: str = "pcmc") -> PrototypeCenters:
    """Read centers written by :func:`save_centers`; a malformed file raises
    :class:`FormatError` naming the path."""
    if format != "pcmc":
        raise ValidationError(f"unknown centers format {format!r}")
    _, (centers,) = read_container(path, CENTERS_MAGIC, 1)
    return PrototypeCenters(centers)
