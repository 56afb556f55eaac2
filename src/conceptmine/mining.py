"""Per-class concept mining: DBSCAN over part-feature bags, centroid books,
and agglomerative centroid merging.

For every (class j, part p) cell the features of that class's samples at
that part are clustered with DBSCAN; each cluster's arithmetic mean becomes
one concept centroid. The flat list of centroids over all cells is the
concept book of size d_c.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .dataset import _row_blocks, PartFeatureDataset
from .errors import (FormatError, ValidationError, check_array, check_int,
                     check_real, read_container, read_json_object,
                     write_container, write_json)

log = logging.getLogger(__name__)

NOISE = -1

BOOK_MAGIC = b"PCMB"


@dataclass(frozen=True)
class MiningConfig:
    """The DBSCAN settings of a mining run; without eps each cell takes the
    adaptive defaults of :func:`_dbscan_cells`. Two points are neighbors
    when ``sum((a - b) ** 2) <= eps * eps`` in float64."""

    eps: float | None = None
    min_pts: int | None = None

    def __post_init__(self):
        if self.eps is None:
            if self.min_pts is not None:
                raise ValidationError(
                    f"min_pts={self.min_pts!r} needs eps; without eps mining "
                    f"is adaptive and sets its own min_pts per cell")
            return
        check_real("eps", self.eps, 0, low_open=True)
        if self.min_pts is not None:
            check_int("min_pts", self.min_pts, 1)


@dataclass
class ConceptEntry:
    """One mined concept: the centroid of cluster ``local_id`` of (class, part)."""

    class_id: int
    part: int
    local_id: int
    centroid: np.ndarray  # [d_f] float64
    member_count: int


@dataclass
class ConceptBook:
    """What a book file holds: a flat list of concept centroids, the entry
    position being the CAV index, and ``meta``, the file's other top-level
    keys (config_hash, eps, min_pts), empty for a mined book."""

    feat_dim: int
    entries: list[ConceptEntry] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def d_c(self) -> int:
        return len(self.entries)

    def validate(self):
        check_int("d_f", self.feat_dim, 1)
        if not self.entries:
            raise ValidationError("a concept book needs at least one entry")
        seen = set()
        for i, e in enumerate(self.entries):
            for name, value, low in (("class", e.class_id, 0), ("part", e.part, 0),
                                     ("local_id", e.local_id, 0),
                                     ("member_count", e.member_count, 1)):
                if type(value) is not int or value < low:  # call only to raise
                    check_int(f"entry {i} {name}", value, low)
            key = (e.class_id, e.part, e.local_id)
            if key in seen:
                raise ValidationError(f"duplicate concept key {key}")
            seen.add(key)
            got = getattr(e.centroid, "shape", type(e.centroid).__name__)
            if not isinstance(e.centroid, np.ndarray) or got != (self.feat_dim,):
                raise ValidationError(f"concept {key} centroid {got} is not an "
                                      f"ndarray of shape ({self.feat_dim},)")
        finite = np.isfinite(self.centroid_matrix()).all(axis=1)
        if not finite.all():
            e = self.entries[int(np.argmin(finite))]
            raise ValidationError(f"concept {(e.class_id, e.part, e.local_id)} "
                                  f"centroid is non-finite")

    def centroid_matrix(self) -> np.ndarray:
        return np.array([e.centroid for e in self.entries],
                        dtype=np.float64).reshape(self.d_c, self.feat_dim)

    def parts(self) -> np.ndarray:
        return np.array([e.part for e in self.entries], dtype=np.int64)

    def classes(self) -> np.ndarray:
        return np.array([e.class_id for e in self.entries], dtype=np.int64)


@dataclass(frozen=True)
class MergeConfig:
    """Dendrogram cut as a percentage of the book-wide max centroid distance.

    Level 1 merges only within a (class, part) cell, level 2 within a class
    across parts, level 3 across everything.
    """

    threshold_pct: float = field(metadata={
        "flag": "--threshold",
        "help": "percent of max pairwise centroid distance"})
    level: int = 1

    def __post_init__(self):
        check_real("threshold_pct", self.threshold_pct, 0, 100)
        check_int("level", self.level, 1)
        if self.level > 3:
            raise ValidationError(f"level must be 1, 2 or 3, got {self.level}")


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = 2.0 ** -900  # exceeds any underflow error of a squared distance
# dataset._BLOCK_ENTRIES bounds the largest float or int temporary of one
# block of the kernel below: it sets how many cells share a batch, and
# _row_blocks how many rows of one large cell share a row block.


def _gram_band(a: np.ndarray, bt: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray):
    """``gram = a_sq + b_sq - 2 a @ bt``, the squared distances between the
    rows of ``a [..., r, d]`` and the columns of ``bt [..., d, c]`` from
    their squared norms ``a_sq [..., r, 1]`` and ``b_sq [..., 1, c]``, and a
    ``band >= |gram - direct|`` for the float64 direct sum
    ``sum((a_i - b_j) ** 2)`` in any summation order.

    With S = |a_i|^2 + |b_j|^2 and unit roundoff u, to first order
    ``|gram - exact| <= (2d + 3) u S`` and ``|direct - exact| <= (2d + 4) u S``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 3). ``band = 4 (d + 3) u S + _TINY`` keeps 5uS for the second-order
    terms, the computed norms and the comparisons against the band, and
    _TINY for underflow, at most 2^-1075 per operation. S must be finite.
    """
    norms = a_sq + b_sq
    gram = a @ bt
    gram *= 2.0
    np.subtract(norms, gram, out=gram)
    norms *= 4.0 * (a.shape[-1] + 3) * _UNIT_ROUNDOFF
    norms += _TINY
    return gram, norms


def _sq_dist_blocks(x: np.ndarray, counts: np.ndarray):
    """Row blocks ``(lo, gram, band)`` of :func:`_gram_band` over a
    zero-padded batch of cells ``x [B, m, d]``, cell b holding its first
    ``counts[b]`` rows, with ``inf`` where a padding row is involved. A
    comparison outside the band is decided as the direct sum decides it, one
    inside by :func:`_exact_sq_dists`. An entry whose Gram form overflows
    (float64 points past about 1e154, so never mining's float32 features in
    a padded cell) reads gram 0 and band inf: the direct sum decides it."""
    b, m, _ = x.shape
    sq = np.einsum("bij,bij->bi", x, x)
    overflow = sq.max() >= 2.0 ** 1020  # else every Gram term is finite
    padding = np.arange(m) >= counts[:, None]
    xt = x.transpose(0, 2, 1)
    for rows in _row_blocks(m, b * m):
        gram, band = _gram_band(x[:, rows], xt, sq[:, rows, None], sq[:, None, :])
        if overflow:
            lost = ~np.isfinite(gram + band)
            gram[lost], band[lost] = 0.0, np.inf
        if padding.any():
            np.copyto(gram, np.inf, where=padding[:, None, :])
            np.copyto(gram, np.inf, where=padding[:, rows, None])
        yield rows.start, gram, band


def _exact_sq_dists(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sum((x[i] - x[j]) ** 2)`` per pair of rows of ``x [n, d]``, bit for
    bit as the ``n x n x d`` broadcast sums it, in chunks of bounded size."""
    out = np.empty(len(i))
    for rows in _row_blocks(len(i), x.shape[1]):
        out[rows] = np.sum((x[i[rows]] - x[j[rows]]) ** 2, axis=1)
    return out


def _adaptive_eps(x: np.ndarray, counts: np.ndarray, blocks) -> np.ndarray:
    """Per cell, the median nearest-neighbor distance (at least 1e-12),
    or 1.0 for a cell of fewer than two points."""
    b, m, d = x.shape
    flat = x.reshape(b * m, d)
    nn_sq = np.full((b, m), np.inf)
    for lo, gram, band in blocks:
        r = np.arange(gram.shape[1])
        upper = gram + band
        upper[:, r, lo + r] = np.inf  # a point is not its own neighbor
        upper = upper.min(axis=2)
        upper[upper == np.inf] = -np.inf  # padding, or a cell of one point
        # Every pair whose lower bound reaches the row's smallest upper
        # bound may hold the row minimum; decide it on the exact values.
        near = gram - band <= upper[:, :, None]
        near[:, r, lo + r] = False
        cb, cr, cc = np.nonzero(near)
        row = cb * m + lo + cr
        if len(row):
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            nn_sq.reshape(-1)[row[starts]] = np.minimum.reduceat(
                _exact_sq_dists(flat, row, cb * m + cc), starts)
    # The median as np.median takes it: the mean of the two middle values
    # of the sorted distances, one value twice for an odd count.
    nn = np.sort(np.sqrt(nn_sq), axis=1)
    cell = np.arange(b)
    mid = nn[cell, (counts - 1) // 2] + nn[cell, counts // 2]
    return np.where(counts < 2, 1.0, np.maximum(mid / 2, 1e-12))


def _neighbor_min(within: np.ndarray, values: np.ndarray, fill: int) -> np.ndarray:
    """Per point, the smallest of ``values [B, m]`` over its neighbors
    (``fill`` for none), in row blocks of bounded size."""
    b, m, _ = within.shape
    out = np.empty((b, m), dtype=values.dtype)
    for rows in _row_blocks(m, b * m):
        out[:, rows] = np.where(within[:, rows], values[:, None, :],
                                fill).min(axis=2)
    return out


# A squared distance or eps * eps that overflows is inf, as in the direct sum.
@np.errstate(over="ignore", invalid="ignore")
def _dbscan_cells(x: np.ndarray, counts: np.ndarray,
                  mining: MiningConfig):
    """DBSCAN labels ``[B, m]`` of a zero-padded batch of cells, with the
    eps and min_pts of each cell: ``mining.eps`` at ``mining.min_pts`` (3
    when unset), or without eps the :func:`_adaptive_eps` of a cell of n
    points at min_pts = max(3, n // 20).

    Cluster ids follow the ascending minimum core index of the components
    of each cell's core graph, and a border point takes the smallest id
    among its core neighbors; this is the first-touch labeling of a
    breadth-first expansion over ascending point index. Components come
    from min-label propagation with pointer jumping.
    """
    b, m, d = x.shape
    # One Gram pass serves both the eps and the neighbor decisions when the
    # whole batch fits in one block; a large cell is passed twice.
    one_pass = b * m * m <= dataset._BLOCK_ENTRIES
    blocks = list(_sq_dist_blocks(x, counts)) if one_pass else None
    if mining.eps is None:
        eps = _adaptive_eps(x, counts, blocks or _sq_dist_blocks(x, counts))
        min_pts = np.maximum(3, counts // 20)
    else:
        eps = np.full(b, mining.eps)
        min_pts = np.full(b, 3 if mining.min_pts is None else mining.min_pts)
    eps_sq = eps * eps
    flat = x.reshape(b * m, d)
    within = np.empty((b, m, m), dtype=bool)
    for lo, gram, band in blocks or _sq_dist_blocks(x, counts):
        diff = gram - eps_sq[:, None, None]
        near = diff <= 0.0
        cb, cr, cc = np.nonzero(np.abs(diff, out=diff) <= band)
        near[cb, cr, cc] = _exact_sq_dists(
            flat, cb * m + lo + cr, cb * m + cc) <= eps_sq[cb]
        within[:, lo:lo + near.shape[1]] = near
    core = (np.count_nonzero(within, axis=2) >= min_pts[:, None]).ravel()

    # parent[i] <= i is a core point of i's component. Each round hooks
    # every tree root to the smallest root next to its tree, then jumps
    # pointers until every parent is a root. A round that hooks nothing
    # leaves each component one tree, rooted at its minimum index.
    fill = b * m
    parent = np.arange(fill)
    while True:
        low = _neighbor_min(within, np.where(core, parent, fill).reshape(b, m),
                            fill).ravel()
        hooked = parent.copy()
        np.minimum.at(hooked, parent[core], low[core])
        if np.array_equal(hooked, parent):
            break
        parent = hooked
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    # low is now the root of each core point, and for a border point the
    # smallest root among its core neighbors; roots number the clusters.
    root = core & (parent == np.arange(fill))
    cluster = np.cumsum(root.reshape(b, m), axis=1).ravel() - 1
    labels = np.where(low < fill, cluster[np.minimum(low, fill - 1)], NOISE)
    return labels.reshape(b, m), eps, min_pts


def dbscan(points: np.ndarray, mining: MiningConfig) -> np.ndarray:
    """Density-based clustering of one cell, the batched kernel's batch of
    one, adaptive without ``mining.eps``.

    Two points are neighbors when ``sum((a - b) ** 2) <= eps * eps`` in
    float64; a point is core iff at least ``min_pts`` points (itself
    included) are its neighbors. Cluster ids are assigned in first-touch
    order over ascending point index; unreachable non-core points are
    labeled NOISE (-1) and a border point joins the first cluster that
    reaches it, so the labeling is deterministic. Points that are not a
    finite 2-D array raise :class:`ValidationError`.
    """
    points = check_array("points", points, 2, finite=True)
    if points.shape[0] == 0:
        return np.full(0, NOISE, dtype=np.int64)
    return _dbscan_cells(points[None], np.array([len(points)]), mining)[0][0]


def mine_concepts(ds: PartFeatureDataset, mining: MiningConfig = MiningConfig(),
                  folds: list[np.ndarray] | None = None
                  ) -> ConceptBook | list[list[np.ndarray]]:
    """Cluster every (class, part) cell and collect cluster-mean centroids.

    Noise points contribute to no centroid, and a cell that is all noise
    is one cluster of the whole cell, so every cell contributes at least
    one concept. Without ``mining.eps`` each cell uses scale-adaptive
    defaults. Entries are ordered by (class, part, local id).

    With ``folds`` (sample-index arrays, as from ``split_kfold``) returns,
    per fold, the centroid matrices [m, d_f] of the cells of the book of
    ``subset(ds, fold)`` in (class, part) order, and builds no book. The
    cells of all folds are clustered together: sorted by size, they share
    zero-padded batches whose temporaries hold at most
    ``dataset._BLOCK_ENTRIES`` entries, and a cell too large for a batch of
    its own is row-blocked.
    """
    ds.validate()
    sets = ([np.arange(ds.n_samples)] if folds is None
            else [check_array(f"fold {s}", f, 1, np.int64, high=ds.n_samples)
                  for s, f in enumerate(folds)])
    members = []  # sample indices of each (set, class)
    for s, rows in enumerate(sets):
        in_set = ds.labels[rows]
        for j in range(ds.n_classes):
            members.append(rows[in_set == j])
            if not len(members[-1]):
                raise ValidationError(f"class {j} has no samples in fold {s}")
    n_parts, d = ds.n_parts, ds.feat_dim
    per_set = ds.n_classes * n_parts
    # Cell c = (set * n_classes + class) * n_parts + part.
    sizes = np.repeat([len(idx) for idx in members], n_parts)
    order = np.argsort(-sizes, kind="stable")
    found: list = [None] * len(sizes)  # per cell: its means and member counts
    start = 0
    while start < len(order):
        m = int(sizes[order[start]])
        cells = order[start:start + max(1, dataset._BLOCK_ENTRIES // (m * max(m, d)))]
        start += len(cells)
        counts = sizes[cells]
        sample = np.zeros((len(cells), m), dtype=np.int64)
        for r, c in enumerate(cells):
            sample[r, :counts[r]] = members[c // n_parts]
        x = ds.part_features[sample, (cells % n_parts)[:, None]].astype(np.float64)
        padding = np.arange(m) >= counts[:, None]
        x[padding] = 0.0
        labels, eps, min_pts = _dbscan_cells(x, counts, mining)
        clusters = labels.max(axis=1) + 1
        if log.isEnabledFor(logging.DEBUG):
            noise = np.count_nonzero((labels == NOISE) & ~padding, axis=1)
            for r, c in enumerate(cells.tolist()):
                log.debug("cell set=%d class=%d part=%d n=%d eps=%.6g min_pts=%d "
                          "clusters=%d noise=%d", c // per_set,
                          c // n_parts % ds.n_classes, c % n_parts, counts[r],
                          eps[r], min_pts[r], clusters[r], noise[r])
        # An all-noise cell is one cluster 0 of the whole cell; padding stays
        # noise. Points are grouped by (cell, cluster), in ascending index.
        labels[clusters == 0] = 0
        labels[padding] = NOISE
        member = np.flatnonzero(labels != NOISE)
        key = cells[member // m] * m + labels.ravel()[member]
        points = -x.reshape(-1, d)[member[np.argsort(key, kind="stable")]]
        key, runs = np.unique(key, return_counts=True)
        starts = np.cumsum(runs) - runs
        # Subtracting the negated rows one by one after the first is the
        # row-by-row sum ndarray.mean takes (add.reduceat sums pairwise).
        points[starts] *= -1
        means = np.subtract.reduceat(points, starts, axis=0) / runs[:, None]
        # Every cell has clusters 0, 1, ...: its rows are one run of keys.
        owner, first = np.unique(key // m, return_index=True)
        for c, cell, cell_runs in zip(owner.tolist(), np.split(means, first[1:]),
                                      np.split(runs, first[1:])):
            found[c] = cell, cell_runs.tolist()
    if folds is not None:
        return [[cell for cell, _ in found[s * per_set:(s + 1) * per_set]]
                for s in range(len(sets))]
    book = ConceptBook(d, [ConceptEntry(*divmod(c, n_parts), l, mean, n)
                           for c, (cell, cell_runs) in enumerate(found)
                           for l, (mean, n) in enumerate(zip(cell, cell_runs))])
    book.validate()
    return book


def _agglomerate(weights, cents, cutoff):
    """Greedy Ward agglomeration below ``cutoff``; returns the clusters as
    (member input indices, weight, centroid). Ties break on the
    lexicographically smallest pair."""
    g = len(weights)
    members = [[i] for i in range(g)]
    w = np.array(weights, dtype=np.float64)
    mu = np.array(cents, dtype=np.float64)
    alive = np.ones(g, dtype=bool)

    def ward_row(i):
        d = np.linalg.norm(mu - mu[i], axis=1)
        row = np.sqrt(2.0 * w * w[i] / (w + w[i])) * d
        row[~alive] = np.inf
        row[i] = np.inf
        return row

    ward = np.array([ward_row(i) for i in range(g)])
    while True:
        i, j = divmod(int(np.argmin(ward)), g)  # symmetric: first hit has i < j
        if not ward[i, j] < cutoff:  # also ends it when no live pair is left
            return [(members[k], w[k], mu[k]) for k in np.flatnonzero(alive)]
        mu[i] = (w[i] * mu[i] + w[j] * mu[j]) / (w[i] + w[j])
        w[i] += w[j]
        members[i] += members[j]
        alive[j] = False
        ward[j, :] = ward[:, j] = np.inf
        ward[i, :] = ward[:, i] = ward_row(i)


def merge_centroids(book: ConceptBook, cfg: MergeConfig) -> ConceptBook:
    """Agglomerate similar centroids within the scope given by cfg.level.

    Within each scope group, clusters (seeded with single centroids weighted
    by member_count) are merged greedily by smallest Ward distance while that
    distance stays below (threshold_pct / 100) x D_max, with D_max the
    maximum pairwise centroid distance over the whole book. Merged centroids
    are member-count-weighted means tagged with the class and part of the
    largest contributing entry. A book in which nothing merges (as at a zero
    threshold, or with one entry) comes back unchanged, as a copy.
    """
    book.validate()
    cents = book.centroid_matrix()
    d_max = 0.0
    for i in range(len(cents) - 1):
        d_max = max(d_max, float(np.linalg.norm(cents[i + 1:] - cents[i], axis=1).max()))
    cutoff = cfg.threshold_pct / 100.0 * d_max

    # Level 1 groups by (class, part), level 2 by class, level 3 not at all.
    groups: dict[tuple, list[int]] = {}
    for idx, e in enumerate(book.entries):
        groups.setdefault((e.class_id, e.part)[:3 - cfg.level], []).append(idx)
    clusters = [([idxs[l] for l in members], weight, centroid)
                for _, idxs in sorted(groups.items())
                for members, weight, centroid in _agglomerate(
                    [book.entries[i].member_count for i in idxs],
                    [book.entries[i].centroid for i in idxs], cutoff)]
    if len(clusters) == book.d_c:
        return ConceptBook(book.feat_dim, [
            ConceptEntry(e.class_id, e.part, e.local_id, e.centroid.copy(),
                         e.member_count) for e in book.entries])

    tagged = []
    for entry_idxs, weight, centroid in clusters:
        # Tag with the class and part of the largest contributing entry.
        rep = book.entries[max(entry_idxs, key=lambda i: (
            book.entries[i].member_count, -i))]
        tagged.append((rep.class_id, rep.part, min(entry_idxs), centroid,
                       int(round(weight))))
    out = ConceptBook(feat_dim=book.feat_dim)
    local_ids: dict[tuple, int] = {}
    for class_id, part, _, centroid, count in sorted(tagged, key=lambda t: t[:3]):
        l = local_ids[class_id, part] = local_ids.get((class_id, part), -1) + 1
        out.entries.append(ConceptEntry(class_id, part, l, centroid, count))
    out.validate()
    return out


def save_book(book: ConceptBook, path, format: str = "json"):
    """Write a concept book and its ``meta`` keys as JSON, or as a PCMB
    container whose centroids follow the JSON header as one matrix. A book
    loaded from a file this wrote saves to that file's bytes."""
    book.validate()
    entries = [{"class": e.class_id, "part": e.part, "local_id": e.local_id,
                "member_count": e.member_count} for e in book.entries]
    payload = {**book.meta, "d_f": book.feat_dim, "entries": entries}
    if format == "json":
        for entry, e in zip(entries, book.entries):
            entry["centroid"] = e.centroid.tolist()
        write_json(path, payload)
    elif format == "pcmb":
        write_container(path, BOOK_MAGIC, payload, [book.centroid_matrix()])
    else:
        raise ValidationError(f"unknown book format {format!r}")


def load_book(path, format: str = "json") -> ConceptBook:
    """Read a book written by :func:`save_book`, with its other top-level
    keys as ``meta``. A missing key or a malformed centroid raises
    :class:`FormatError`; validate checks the entry fields, uncoerced."""
    if format == "json":
        payload = read_json_object(path)
    else:
        payload, (centroids,) = read_container(path, BOOK_MAGIC, 1)
    try:
        entries = payload["entries"]
        if format == "json":
            centroids = [e["centroid"] for e in entries]
        book = ConceptBook(feat_dim=payload["d_f"], meta={
            k: v for k, v in payload.items() if k not in ("d_f", "entries")})
        for e, centroid in zip(entries, centroids, strict=True):
            book.entries.append(ConceptEntry(
                class_id=e["class"], part=e["part"], local_id=e["local_id"],
                centroid=np.array(centroid, dtype=np.float64),
                member_count=e["member_count"],
            ))
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed book ({e!r})") from None
    book.validate()
    return book
