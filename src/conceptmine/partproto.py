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

from .dataset import _row_blocks, PartFeatureDataset
from .errors import (SEED_MAX, DivergenceError, ValidationError, check_array,
                     check_int, check_real, read_container, write_container)
from .mining import _UNIT_ROUNDOFF, _gram_band

log = logging.getLogger(__name__)

CENTERS_MAGIC = b"PCMC"
_GROUP = 16  # snapshots bounded by one Gram pass over the features
_SCREEN = 2.0 ** 400  # no larger centers can overflow the loss or its bounds


@dataclass
class McmConfig:
    """Margins and optimizer settings for center fitting."""

    m1: float = 0.3
    m2: float = 1.5
    lr: float = 0.05
    epochs: int = 50
    batch_size: int = 32

    def __post_init__(self):
        check_real("lr", self.lr, 0, low_open=True)
        for name in ("m1", "m2"):
            check_real(name, getattr(self, name), 0)
        for name in ("epochs", "batch_size"):
            check_int(name, getattr(self, name), 1)
        if self.m2 <= self.m1:
            log.warning("m2=%g <= m1=%g: collapsed-margin regime", self.m2, self.m1)


@dataclass
class PrototypeCenters:
    """Learned centers, one per part: [K, d_f]."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = check_array("centers", self.centers, 2, finite=True)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: what ``np.linalg.norm(x, axis=-1)``
    computes for real input, without its dispatch overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _pair_dists(centers: np.ndarray):
    """Pairwise center differences [K, K, d_f] and distances [K, K]."""
    diff = centers[:, None, :] - centers[None, :, :]
    return diff, _norms(diff)


def _check_batch(batch, centers: PrototypeCenters) -> np.ndarray:
    """The batch as a [B, K, d_f] array of its own dtype, refusing an empty
    batch or one whose per-sample shape is not the centers' shape."""
    batch = check_array("batch", batch, 3, dtype=None)
    if not len(batch) or batch.shape[1:] != centers.centers.shape:
        raise ValidationError(f"batch of shape {batch.shape} is empty or does "
                              f"not match centers {centers.centers.shape}")
    return batch


def _pair_term(c: np.ndarray, m2: float) -> np.float64:
    """The pair term of the loss, (1/K) sum_{p != q} [m2 - ||c_p - c_q||]_+."""
    pair_h = np.maximum(m2 - _pair_dists(c)[1], 0.0)
    np.fill_diagonal(pair_h, 0.0)
    return pair_h.sum() / c.shape[0]


def mcc_loss(batch: np.ndarray, centers: PrototypeCenters,
             m1: float, m2: float) -> float:
    """Marginal cluster-center loss, averaged over the batch.

    The intra term is computed in row blocks of samples (``_row_blocks``),
    each subtracted in float64 (exact for float32 input), so a large batch
    never allocates its full [B, K, d_f] residual or float64 copy.
    """
    batch = _check_batch(batch, centers)
    c = centers.centers
    hinges = np.empty(len(batch))  # per-sample intra hinge sums
    for rows in _row_blocks(len(batch), c.size):
        resid = np.subtract(batch[rows], c, dtype=np.float64)
        resid *= resid
        intra_dist = np.sqrt(np.add.reduce(resid, axis=-1))  # [b, K]
        hinges[rows] = np.maximum(intra_dist - m1, 0.0).sum(axis=1)
    return float(hinges.mean() + _pair_term(c, m2))


def _gradient(batch: np.ndarray, c: np.ndarray, m1: float, m2: float,
              off_diagonal: np.ndarray) -> np.ndarray:
    """The MCC gradient at centers ``c`` for a [B, K, d_f] batch of any real
    dtype, upcast to float64 (exact for float32) before the subtraction;
    ``off_diagonal`` is ``~np.eye(K, dtype=bool)``."""
    k = c.shape[0]
    # A copy and an in-place subtraction measured faster than a casting
    # np.subtract on a batch of 32.
    resid = batch.astype(np.float64)  # [B, K, d]
    resid -= c
    dist = _norms(resid)
    active = dist > m1
    resid /= np.where(dist > 0, dist, 1.0)[:, :, None]  # unit directions
    if np.count_nonzero(active) < active.size:  # an all-True mask changes nothing
        resid *= active[:, :, None]
    grad = -resid.sum(axis=0) / batch.shape[0]

    diff, pdist = _pair_dists(c)
    pactive = (pdist < m2) & off_diagonal
    if not np.count_nonzero(pactive):  # the pair term would add -0.0 everywhere
        return grad
    psafe = np.where(pdist > 0, pdist, 1.0)
    punit = np.where(pactive[:, :, None] & (pdist[:, :, None] > 0),
                     diff / psafe[:, :, None], 0.0)
    # Each unordered pair appears in both p's and q's sums, hence the factor 2.
    grad += -(2.0 / k) * punit.sum(axis=1)
    return grad


def mcc_gradients(batch: np.ndarray, centers: PrototypeCenters,
                  m1: float, m2: float) -> np.ndarray:
    """Gradient of :func:`mcc_loss` with respect to the centers, [K, d_f].

    Hinge derivatives are taken as 0 at the kink; the unit direction between
    coincident centers is taken as the zero vector.
    """
    batch = _check_batch(batch, centers)
    k = centers.centers.shape[0]
    return _gradient(batch, centers.centers, m1, m2, ~np.eye(k, dtype=bool))


def descend(ds: PartFeatureDataset, cfg: McmConfig,
            init: PrototypeCenters | None = None, seed: int = 0):
    """Mini-batch gradient descent on the MCC loss, as a generator.

    Centers start at the per-part feature means plus seeded jitter unless
    ``init`` is given. Yields the [K, d_f] float64 centers before the first
    epoch and after each of the ``cfg.epochs`` epochs, ``epochs + 1`` arrays
    that are never written to afterwards. Computes no loss and calls no
    BLAS routine. Deterministic per seed, an integer in [0, 2^63).
    """
    check_int("seed", seed, 0, SEED_MAX)
    feats = ds.part_features  # float32: each step upcasts only its batch
    rng = np.random.default_rng(seed)
    if init is not None:
        c = init.centers.copy()
    else:
        c = (feats.mean(axis=0, dtype=np.float64)
             + 0.01 * rng.standard_normal((ds.n_parts, ds.feat_dim)))
    yield c
    off_diagonal = ~np.eye(ds.n_parts, dtype=bool)
    n = ds.n_samples
    for _ in range(cfg.epochs):
        # Indexing each batch out of feats measured faster than making one
        # shuffled copy of feats per epoch (a fresh multi-MB allocation).
        order = rng.permutation(n)
        # A diverging step overflows, and later steps then meet inf - inf;
        # best_epoch reports the snapshot as a typed error.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, cfg.batch_size):
                batch = feats[order[start:start + cfg.batch_size]]
                c = c - cfg.lr * _gradient(batch, c, cfg.m1, cfg.m2, off_diagonal)
        yield c


def _loss_bounds(feats: np.ndarray, cs: np.ndarray, m1: float, m2: float):
    """Bounds ``(lo, hi)``, each [G], on the value ``mcc_loss(feats, c, m1, m2)``
    returns for each snapshot ``c`` of ``cs [G, K, d_f]``, from one batched
    Gram ``matmul`` per row block (``_row_blocks``) of ``feats [n, K, d_f]``.
    The squared distance s = |f - c|^2 of a feature f and its center c lies
    within ``band`` of the ``gram`` that :func:`mining._gram_band` gives, so
    the hinge h = [sqrt(s) - m1]_+ lies between [sqrt(gram - band) - m1]_+
    and [sqrt(gram + band) - m1]_+.

    Where ``sqrt(gram + band) * grow <= m1`` the hinge is 0, and so is the
    value :func:`mcc_loss` computes for it: its distance is within
    (d/2 + 2) u of sqrt(s), relatively. Every other ("live") hinge it
    computes within (d + 6) u (sqrt(gram + band) + m1) of h, and its two
    sums and the division add (n + K + 1) u of T = (1/n) sum over live
    hinges of (sqrt(gram + band) + m1); the bounds' own sums of nK terms
    add (nK + 4) u T. ``err = 4 (nK + d + 8) u T`` covers both twice, since
    n + K <= nK + 1. So its intra term lies in [low - err, high + err], and
    because rounding is monotone, the loss, that term plus the pair term
    rounded once, lies in [lo, hi]. Where no hinge is live, err is 0 and
    lo == hi is the loss itself. No overflow: :func:`best_epoch` scores
    larger centers exactly.
    """
    n, k, d = feats.shape
    grow = 1.0 + 2.0 * (d + 8) * _UNIT_ROUNDOFF
    csq = np.einsum("gkd,gkd->kg", cs, cs)[:, None, :]  # [K, 1, G]
    ct = np.ascontiguousarray(cs.transpose(1, 2, 0))  # [K, d, G]
    sums = np.zeros((3, len(cs)))  # low hinges, high hinges, T; per snapshot
    # A block's largest temporaries: its [K, r, d] features, [K, r, G] Gram.
    blocks = list(_row_blocks(n, k * max(d, len(cs))))
    buffer = np.empty((k, blocks[0].stop, d))
    for rows in blocks:
        f = buffer[:, :rows.stop - rows.start]
        np.copyto(f, feats[rows].transpose(1, 0, 2))
        fsq = np.einsum("krd,krd->kr", f, f)[:, :, None]
        gram, band = _gram_band(f, ct, fsq, csq)  # [K, r, G]
        high = np.sqrt(gram + band)
        gram -= band
        low = np.sqrt(np.maximum(gram, 0.0, out=gram), out=gram)
        live = high * grow > m1
        sums[0] += np.maximum(low - m1, 0.0).sum(axis=(0, 1))
        sums[2] += np.where(live, high + m1, 0.0).sum(axis=(0, 1))
        high -= m1
        sums[1] += np.maximum(high, 0.0, out=high).sum(axis=(0, 1))
    low, high, t = sums / n
    err = 4.0 * (n * k + d + 8) * _UNIT_ROUNDOFF * t
    pair = np.array([_pair_term(c, m2) for c in cs])
    return np.maximum(low - err, 0.0) + pair, (high + err) + pair


def best_epoch(ds: PartFeatureDataset, cfg: McmConfig,
               trajectory) -> PrototypeCenters:
    """The lowest full-data-loss centers of ``trajectory``, the snapshots
    that :func:`descend` yields, read one at a time as they arrive.

    The snapshots are scored in groups of ``_GROUP``. :func:`_loss_bounds`
    brackets the loss of each, and in epoch order only those whose lower
    bound reaches both the best exact loss so far and the group's smallest
    upper bound are scored exactly by :func:`mcc_loss`. No other snapshot
    can have a lower loss, so the first lowest-loss snapshot wins, as if
    every one had been scored exactly. A snapshot that is not finite, or
    whose magnitude could overflow the loss, is scored exactly as it is
    read, after the group before it.

    Raises :class:`DivergenceError` at the first non-finite loss after an
    epoch, without reading further. The first snapshot (the start) is never
    refused, so the result's loss never exceeds the start's.
    """
    feats = ds.part_features
    best, best_loss, exact_calls = None, np.inf, 0
    group = []  # (epoch, centers) not yet scored

    def diverged(epoch):
        return DivergenceError(
            f"non-finite MCC loss at epoch {epoch} (lr={cfg.lr})",
            epoch=epoch, lr=cfg.lr)

    def exact(epoch, c):
        nonlocal exact_calls
        exact_calls += 1
        with np.errstate(over="ignore"):
            loss = mcc_loss(feats, PrototypeCenters(c), cfg.m1, cfg.m2)
        if epoch >= 0 and not np.isfinite(loss):
            raise diverged(epoch)
        return loss

    def consider(epoch, c, loss):
        nonlocal best, best_loss
        if epoch >= 0:
            log.debug("epoch %d: mcc loss %.6g", epoch, loss)
        if best is None or loss < best_loss:
            best, best_loss = c, loss

    def settle():
        if not group:
            return
        lo, hi = _loss_bounds(feats, np.stack([c for _, c in group]),
                              cfg.m1, cfg.m2)
        limit = hi.min()
        for (epoch, c), low, high in zip(group, lo, hi):
            if low <= min(best_loss, limit):
                consider(epoch, c, exact(epoch, c))
            elif epoch >= 0:
                log.debug("epoch %d: mcc loss in [%.6g, %.6g]", epoch, low, high)
        group.clear()

    epoch = -2  # the start is epoch -1
    for epoch, c in enumerate(trajectory, -1):
        c = check_array("centers", c, 2)
        if c.shape != feats.shape[1:]:
            raise ValidationError(f"centers of shape {c.shape} do not match "
                                  f"the parts' {feats.shape[1:]}")
        if np.abs(c).max() <= _SCREEN:
            group.append((epoch, c))
            if len(group) == _GROUP:
                settle()
            continue
        # Not finite, or too large to bound: scored now, so that a divergence
        # is raised before the next snapshot is read.
        if epoch >= 0 and not np.isfinite(c).all():
            raise diverged(epoch)
        loss = exact(epoch, c)  # refuses a non-finite start as invalid centers
        settle()
        consider(epoch, c, loss)
    settle()
    log.debug("scored %d snapshots, %d of them exactly", epoch + 2, exact_calls)
    # A copy: a snapshot read from the fit pipe is a read-only view of its bytes.
    return PrototypeCenters(np.array(best, dtype=np.float64))


def fit_prototype_centers(ds: PartFeatureDataset, cfg: McmConfig,
                          init: PrototypeCenters | None = None,
                          seed: int = 0) -> PrototypeCenters:
    """Fit centers by mini-batch gradient descent on the MCC loss and return
    the best (lowest full-data loss) seen at any epoch boundary."""
    return best_epoch(ds, cfg, descend(ds, cfg, init, seed))


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
