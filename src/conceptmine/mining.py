"""Per-class concept mining: DBSCAN over part-feature bags, centroid books,
and agglomerative centroid merging.

For every (class j, part p) cell the features of that class's samples at
that part are clustered with DBSCAN; each cluster's arithmetic mean becomes
one concept centroid. The flat list of centroids over all cells is the
concept book of size d_c.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .dataset import PartFeatureDataset
from .errors import (FormatError, ValidationError, check_int, check_real,
                     read_container, read_json_object, write_container)

log = logging.getLogger(__name__)

NOISE = -1

BOOK_MAGIC = b"PCMB"


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self):
        check_real("eps", self.eps, 0, low_open=True)
        check_int("min_pts", self.min_pts, 1)


@dataclass(frozen=True)
class MiningConfig:
    """The mining settings of a run: a fixed eps (with min_pts 3 when it is
    unset), or no eps for the per-cell adaptive DBSCAN defaults."""

    eps: float | None = None
    min_pts: int | None = None

    def __post_init__(self):
        self.params()  # checks eps and min_pts

    def params(self) -> DbscanParams | None:
        """Fixed DBSCAN params, or None (adaptive) without an eps. A min_pts
        without eps is refused: adaptive mining sets its own."""
        if self.eps is None:
            if self.min_pts is not None:
                raise ValidationError(
                    f"min_pts={self.min_pts!r} needs eps; without eps mining "
                    f"is adaptive and sets its own min_pts per cell")
            return None
        return DbscanParams(eps=self.eps,
                            min_pts=3 if self.min_pts is None else self.min_pts)


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
    """Flat list of concept centroids; the entry position is the CAV index.
    ``meta`` holds the other top-level keys of the file the book was read
    from (config_hash, eps, min_pts); it is empty for a mined book."""

    feat_dim: int
    entries: list[ConceptEntry] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def d_c(self) -> int:
        return len(self.entries)

    def validate(self):
        check_int("d_f", self.feat_dim, 1)
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
            if e.centroid.shape != (self.feat_dim,):
                raise ValidationError(
                    f"concept {key} centroid shape {e.centroid.shape} != ({self.feat_dim},)"
                )
            if not np.isfinite(e.centroid).all():
                raise ValidationError(f"concept {key} centroid is non-finite")

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

    threshold_pct: float
    level: int = 1

    def __post_init__(self):
        check_real("threshold_pct", self.threshold_pct, 0, 100)
        check_int("level", self.level, 1)
        if self.level > 3:
            raise ValidationError(f"level must be 1, 2 or 3, got {self.level}")


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_BLOCK_ENTRIES = 1 << 19  # matrix entries per row block of the kernels below


def _sq_dist_blocks(x: np.ndarray):
    """Row blocks ``(lo, gram, band)`` of the squared-distance matrix of x.

    ``gram[r, j] = |x_i|^2 + |x_j|^2 - 2 x_i . x_j`` (i = lo + r) lies within
    ``band`` of the direct sum ``sum((x_i - x_j) ** 2)``: the dot-product
    error bound gives ``|gram - exact| <= (2d + 3) u S`` and
    ``|direct - exact| <= (2d + 4) u S`` to first order, with
    ``S = |x_i|^2 + |x_j|^2`` and unit roundoff u. ``band = 4 (d + 3) u S``
    keeps 5uS to spare for the second-order terms, the computed norms and
    the comparisons against the band (no underflow or overflow assumed).
    A comparison inside the band is decided by :func:`_exact_sq_dists`.
    """
    n, d = x.shape
    sq = np.einsum("ij,ij->i", x, x)
    scale = 4.0 * (d + 3) * _UNIT_ROUNDOFF
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        norms = sq[rows, None] + sq[None, :]
        yield lo, norms - 2.0 * (x[rows] @ x.T), scale * norms


def _exact_sq_dists(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sum((x[i] - x[j]) ** 2)`` per pair, bit for bit as the
    ``n x n x d`` broadcast sums it, in chunks of bounded size."""
    out = np.empty(len(i))
    step = max(1, _BLOCK_ENTRIES // max(x.shape[1], 1))
    for lo in range(0, len(i), step):
        out[lo:lo + step] = np.sum((x[i[lo:lo + step]] - x[j[lo:lo + step]]) ** 2,
                                   axis=1)
    return out


def dbscan(points: np.ndarray, params: DbscanParams) -> np.ndarray:
    """Density-based clustering with Euclidean distance.

    A point is core iff at least ``min_pts`` points (itself included) lie
    within ``eps``. Cluster ids are assigned in first-touch order over
    ascending point index; unreachable non-core points are labeled NOISE
    (-1) and a border point joins the first cluster that reaches it, so the
    labeling is deterministic. Clusters grow by whole frontiers over the
    boolean neighbor mask.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels

    eps_sq = params.eps * params.eps
    neighbor_mask = np.empty((n, n), dtype=bool)
    for lo, gram, band in _sq_dist_blocks(points):
        diff = gram - eps_sq
        within = diff <= 0.0
        r, c = np.nonzero(np.abs(diff) <= band)
        within[r, c] = _exact_sq_dists(points, lo + r, c) <= eps_sq
        neighbor_mask[lo:lo + len(within)] = within
    core = neighbor_mask.sum(axis=1) >= params.min_pts

    cluster = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        labels[i] = cluster
        frontier = np.array([i])
        while frontier.size:
            reached = neighbor_mask[frontier].any(axis=0) & (labels == NOISE)
            labels[reached] = cluster
            frontier = np.flatnonzero(reached & core)
        cluster += 1
    return labels


def _adaptive_params(cell: np.ndarray) -> DbscanParams:
    """Scale-adaptive defaults: eps = median nearest-neighbor distance,
    min_pts = max(3, cell_size / 20)."""
    n = cell.shape[0]
    min_pts = max(3, n // 20)
    if n < 2:
        return DbscanParams(eps=1.0, min_pts=min_pts)
    cell = np.asarray(cell, dtype=np.float64)
    nn_sq = np.empty(n)
    for lo, gram, band in _sq_dist_blocks(cell):
        rows = np.arange(len(gram))
        gram[rows, lo + rows] = np.inf  # a point is not its own neighbor
        upper = (gram + band).min(axis=1)
        # Every pair whose lower bound reaches the row's smallest upper
        # bound may hold the row minimum; decide it on the exact values.
        r, c = np.nonzero(gram - band <= upper[:, None])
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        nn_sq[lo:lo + len(gram)] = np.minimum.reduceat(
            _exact_sq_dists(cell, lo + r, c), starts)
    eps = float(np.median(np.sqrt(nn_sq)))
    return DbscanParams(eps=max(eps, 1e-12), min_pts=min_pts)


def mine_concepts(ds: PartFeatureDataset,
                  params: DbscanParams | None = None) -> ConceptBook:
    """Cluster every (class, part) cell and collect cluster-mean centroids.

    Noise points contribute to no centroid. A cell whose clustering yields
    nothing falls back to a single centroid at the cell mean, so every cell
    contributes at least one concept. With ``params=None`` each cell uses
    scale-adaptive defaults. Entries are ordered by (class, part, local id).
    """
    ds.validate()
    feats = ds.part_features.astype(np.float64)
    book = ConceptBook(feat_dim=ds.feat_dim)
    for j in range(ds.n_classes):
        in_class = ds.labels == j
        for p in range(ds.n_parts):
            cell = feats[in_class, p, :]
            cell_params = params if params is not None else _adaptive_params(cell)
            labels = dbscan(cell, cell_params)
            n_clusters = int(labels.max()) + 1
            log.debug("cell class=%d part=%d n=%d eps=%.6g min_pts=%d "
                      "clusters=%d noise=%d", j, p, cell.shape[0],
                      cell_params.eps, cell_params.min_pts, n_clusters,
                      np.count_nonzero(labels == NOISE))
            if n_clusters == 0:
                book.entries.append(ConceptEntry(
                    class_id=j, part=p, local_id=0,
                    centroid=cell.mean(axis=0), member_count=cell.shape[0],
                ))
                continue
            for l in range(n_clusters):
                members = cell[labels == l]
                book.entries.append(ConceptEntry(
                    class_id=j, part=p, local_id=l,
                    centroid=members.mean(axis=0),
                    member_count=int(members.shape[0]),
                ))
    book.validate()
    return book


def _agglomerate(weights, cents, cutoff):
    """Greedy Ward agglomeration below ``cutoff``; returns clusters as sets
    of input indices. Ties break on the lexicographically smallest pair."""
    g = len(weights)
    members = [{i} for i in range(g)]
    w = np.asarray(weights, dtype=np.float64).copy()
    mu = np.asarray(cents, dtype=np.float64).copy()
    alive = np.ones(g, dtype=bool)

    def ward_row(i):
        d = np.linalg.norm(mu - mu[i], axis=1)
        row = np.sqrt(2.0 * w * w[i] / (w + w[i])) * d
        row[~alive] = np.inf
        row[i] = np.inf
        return row

    ward = np.full((g, g), np.inf)
    for i in range(g):
        ward[i] = ward_row(i)

    while alive.sum() > 1:
        flat = int(np.argmin(ward))
        i, j = divmod(flat, g)  # symmetric matrix: first hit has i < j
        if not np.isfinite(ward[i, j]) or ward[i, j] >= cutoff:
            break
        mu[i] = (w[i] * mu[i] + w[j] * mu[j]) / (w[i] + w[j])
        w[i] += w[j]
        members[i] |= members[j]
        alive[j] = False
        ward[j, :] = np.inf
        ward[:, j] = np.inf
        row = ward_row(i)
        ward[i, :] = row
        ward[:, i] = row
    return [(members[i], w[i], mu[i]) for i in range(g) if alive[i]]


def merge_centroids(book: ConceptBook, cfg: MergeConfig) -> ConceptBook:
    """Agglomerate similar centroids within the scope given by cfg.level.

    Within each scope group, clusters (seeded with single centroids weighted
    by member_count) are merged greedily by smallest Ward distance while that
    distance stays below (threshold_pct / 100) x D_max, with D_max the
    maximum pairwise centroid distance over the whole book. Merged centroids
    are member-count-weighted means tagged with the class and part of the
    largest contributing entry. A zero threshold returns the book unchanged.
    """
    if book.d_c == 0:
        raise ValidationError("cannot merge an empty concept book")
    book.validate()

    def copy_book():
        return ConceptBook(book.feat_dim, [
            ConceptEntry(e.class_id, e.part, e.local_id, e.centroid.copy(),
                         e.member_count) for e in book.entries
        ])

    if book.d_c == 1:
        return copy_book()

    cents = book.centroid_matrix()
    d_max = 0.0
    for i in range(len(cents) - 1):
        d_max = max(d_max, float(np.linalg.norm(cents[i + 1:] - cents[i], axis=1).max()))
    cutoff = cfg.threshold_pct / 100.0 * d_max

    def scope_key(e: ConceptEntry):
        if cfg.level == 1:
            return (e.class_id, e.part)
        if cfg.level == 2:
            return (e.class_id,)
        return ()

    groups: dict[tuple, list[int]] = {}
    for idx, e in enumerate(book.entries):
        groups.setdefault(scope_key(e), []).append(idx)

    merged_any = False
    clusters = []  # (member entry indices, weight, centroid)
    for key in sorted(groups):
        idxs = groups[key]
        weights = [book.entries[i].member_count for i in idxs]
        cents_g = [book.entries[i].centroid for i in idxs]
        for local_members, weight, centroid in _agglomerate(weights, cents_g,
                                                            cutoff):
            entry_idxs = {idxs[l] for l in local_members}
            if len(entry_idxs) > 1:
                merged_any = True
            clusters.append((entry_idxs, weight, centroid))

    if not merged_any:
        return copy_book()

    tagged = []
    for entry_idxs, weight, centroid in clusters:
        # Tag with the class and part of the largest contributing entry.
        rep = max(entry_idxs,
                  key=lambda i: (book.entries[i].member_count, -i))
        e = book.entries[rep]
        tagged.append((e.class_id, e.part, min(entry_idxs), centroid,
                       int(round(weight))))
    tagged.sort(key=lambda t: (t[0], t[1], t[2]))

    out = ConceptBook(feat_dim=book.feat_dim)
    local_counter: dict[tuple, int] = {}
    for class_id, part, _, centroid, count in tagged:
        l = local_counter.get((class_id, part), 0)
        local_counter[(class_id, part)] = l + 1
        out.entries.append(ConceptEntry(class_id, part, l, centroid, count))
    out.validate()
    return out


def save_book(book: ConceptBook, path, format: str = "json",
              meta: dict | None = None):
    """Write a concept book with the top-level keys ``meta`` as JSON, or as a
    PCMB container whose centroids follow the JSON header as one matrix."""
    book.validate()
    entries = [{"class": e.class_id, "part": e.part, "local_id": e.local_id,
                "member_count": e.member_count} for e in book.entries]
    payload = {**(meta or {}), "d_f": book.feat_dim, "entries": entries}
    if format == "json":
        for entry, e in zip(entries, book.entries):
            entry["centroid"] = e.centroid.tolist()
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
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
