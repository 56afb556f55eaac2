"""Part-feature datasets: ingestion, serialization, synthesis, and fold splitting.

A dataset holds, for each sample, K part-feature vectors plus one
non-prototypical vector g and a class label. The on-disk binary layout
("PFD") is little-endian and bit-exact under round-trip:

    magic "PCMF" | u32 version=1 | u32 n_samples | u32 K | u32 L | u32 d_f
    | f32 features [n_samples x (K+1) x d_f]   (slot K holds g)
    | u32 labels [n_samples]                   (int64 in memory)

The CSV alternative is UTF-8, with a header row and one sample per row with
columns ``part{p}_{d}`` for p in [0,K), d in [0,d_f), then ``g_{d}``, then
``label``; the reader accepts that exact header and no other.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (SEED_MAX, FormatError, GenerationError,
                     StratificationError, ValidationError, check_array,
                     check_int, check_real, write_csv)

MAGIC = b"PCMF"
VERSION = 1
_HEADER = struct.Struct("<4s5I")

# Attempts per planted mean before generation gives up.
_MAX_REJECTIONS = 10_000
# Entries of the largest temporary of one row block. The CAV scorers, the
# generator and the PFD writer size their blocks by it through _row_blocks,
# mining's Gram kernel by the name it imports.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int, width: int):
    """Slices covering ``range(n)`` in order, each of at most
    ``max(1, _BLOCK_ENTRIES // width)`` rows of ``width`` entries."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


@dataclass
class PartFeatureDataset:
    """N samples of K part-feature vectors, a non-prototypical vector, and a label."""

    part_features: np.ndarray  # [n_samples, K, d_f] float32
    nonproto_features: np.ndarray  # [n_samples, d_f] float32
    labels: np.ndarray  # [n_samples] int64 in [0, n_classes); <u4 on disk
    n_classes: int

    def __post_init__(self):
        self.part_features = check_array("part_features", self.part_features, 3,
                                         np.float32)
        self.nonproto_features = check_array("nonproto_features",
                                             self.nonproto_features, 2, np.float32)
        self.validate()

    @property
    def n_samples(self) -> int:
        return self.part_features.shape[0]

    @property
    def n_parts(self) -> int:
        return self.part_features.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.part_features.shape[2]

    def validate(self):
        """Raise ValidationError on any invariant violation; hold labels as int64."""
        check_int("n_classes", self.n_classes, 1)
        self.labels = check_array("labels", self.labels, 1, np.int64,
                                  high=self.n_classes)
        n, k, d_f = self.part_features.shape
        check_int("n_parts", k, 1)
        check_int("feat_dim", d_f, 1)
        if self.nonproto_features.shape != (n, d_f) or self.labels.shape != (n,):
            raise ValidationError(
                f"part_features {(n, k, d_f)} need nonproto_features {(n, d_f)} and "
                f"labels {(n,)}, got {self.nonproto_features.shape} and {self.labels.shape}")
        for name, arr in (("part_features", self.part_features),
                          ("nonproto_features", self.nonproto_features)):
            bad = ~np.isfinite(arr)
            if bad.any():
                idx = int(np.argwhere(bad)[0][0])
                raise ValidationError(f"non-finite value in {name} at sample {idx}")
        # Labels lie in [0, n_classes), so the classes are all present iff
        # there are n_classes distinct labels. Nothing of size n_classes is
        # allocated: a corrupt header may claim 2**32 - 1 classes.
        present = sorted(set(self.labels.tolist()))
        if len(present) < self.n_classes:
            missing = next((i for i, c in enumerate(present) if i != c),
                           len(present))
            raise ValidationError(f"class {missing} has no samples")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-ground-truth generator.

    ``min_separation`` should exceed 2 * noise_sigma for the recovery
    guarantees exercised in the tests to hold; this is documented, not
    enforced.
    """

    n_classes: int = field(default=5, metadata={"flag": "--classes"})
    n_parts: int = field(default=4, metadata={"flag": "--parts"})
    feat_dim: int = field(default=32, metadata={"flag": "--dim"})
    samples_per_class: int = field(default=40, metadata={"flag": "--per-class"})
    concepts_per_cell: int = field(default=2, metadata={"flag": "--concepts"})
    noise_sigma: float = field(default=0.02, metadata={"flag": "--noise"})
    min_separation: float = field(default=1.0, metadata={"flag": "--min-sep"})
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "n_parts", "feat_dim", "samples_per_class",
                     "concepts_per_cell"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0, SEED_MAX)
        for name in ("noise_sigma", "min_separation"):
            check_real(name, getattr(self, name), 0)


@dataclass
class GroundTruth:
    """Planted concept means and the per-(sample, part) concept assignment."""

    planted_means: np.ndarray  # [L, K, G, d_f] float32
    assignment: np.ndarray  # [n_samples, K] int64, values in [0, G)


def save_dataset(ds: PartFeatureDataset, path, format: str = "pfd"):
    """Write a dataset to ``path`` in binary PFD or CSV form."""
    ds.validate()
    path = Path(path)

    def merged(rows):  # [rows, K + 1, d_f]: the parts, then g
        return np.concatenate(
            [ds.part_features[rows], ds.nonproto_features[rows, None, :]], axis=1)

    if format == "pfd":
        header = _HEADER.pack(MAGIC, VERSION, ds.n_samples, ds.n_parts,
                              ds.n_classes, ds.feat_dim)
        with open(path, "wb") as fh:
            fh.write(header)
            for rows in _row_blocks(ds.n_samples, (ds.n_parts + 1) * ds.feat_dim):
                fh.write(np.ascontiguousarray(merged(rows), dtype="<f4").data)
            fh.write(np.ascontiguousarray(ds.labels, dtype="<u4").data)
    elif format == "csv":
        values = merged(slice(None)).reshape(ds.n_samples, -1)
        write_csv(path, _csv_header(ds.n_parts, ds.feat_dim),
                  (v.tolist() + [c] for v, c in zip(values, ds.labels.tolist())))
    else:
        raise ValidationError(f"unknown format {format!r} (expected 'pfd' or 'csv')")


def load_dataset(path, format: str = "pfd") -> PartFeatureDataset:
    """Read a dataset written by :func:`save_dataset`."""
    path = Path(path)
    if format == "pfd":
        return _load_pfd(path)
    if format == "csv":
        return _load_csv(path)
    raise ValidationError(f"unknown format {format!r} (expected 'pfd' or 'csv')")


def _load_pfd(path: Path) -> PartFeatureDataset:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than PFD header")
    magic, version, n, k, n_classes, d_f = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported PFD version {version}")
    expected = _HEADER.size + 4 * n * ((k + 1) * d_f + 1)
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: payload size {len(raw)} != expected {expected} "
            f"for n_samples={n}, K={k}, d_f={d_f}"
        )
    merged = np.frombuffer(raw, dtype="<f4", count=n * (k + 1) * d_f,
                           offset=_HEADER.size).reshape(n, k + 1, d_f)
    return PartFeatureDataset(
        part_features=merged[:, :k, :].copy(),
        nonproto_features=merged[:, k, :].copy(),
        labels=np.frombuffer(raw, dtype="<u4", count=n, offset=expected - 4 * n),
        n_classes=n_classes,
    )


def _csv_header(k: int, d_f: int) -> list[str]:
    """The one CSV header of a dataset with K parts of d_f dimensions."""
    return ([f"part{p}_{d}" for p in range(k) for d in range(d_f)]
            + [f"g_{d}" for d in range(d_f)] + ["label"])


def _load_csv(path: Path) -> PartFeatureDataset:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: not a valid UTF-8 CSV ({e})") from None
    if header is None:
        raise FormatError(f"{path}: empty CSV")
    # d_f is the number of g_ columns; K follows from the column count.
    d_f = sum(c.startswith("g_") for c in header)
    k = (len(header) - 1 - d_f) // d_f if d_f else 0
    if k < 1 or header != _csv_header(k, d_f):
        raise FormatError(f"{path}: header is not part{{p}}_{{d}} (p < K, "
                          f"d < d_f), g_{{d}}, label in that order")

    n = len(rows)
    values = np.zeros((n, len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {i} has {len(row)} fields, "
                                  f"expected {len(header)}")
        try:
            values[i] = np.array(row, dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}: row {i} has a non-numeric field") from None

    # L is the number of distinct labels, so the dataset refuses any label
    # outside 0..L-1 (a gap, a fraction, a negative); this adds the row.
    labels = values[:, -1]
    try:
        return PartFeatureDataset(values[:, :k * d_f].reshape(n, k, d_f),
                                  values[:, k * d_f:-1], labels,
                                  len(np.unique(labels)))
    except ValidationError as e:
        row = "" if e.index is None else f" row {e.index}:"
        raise ValidationError(f"{path}:{row} {e}") from None


def _sphere_points(rng: np.random.Generator, count: int, dim: int,
                   min_separation: float, context: str) -> np.ndarray:
    """Draw ``count`` unit vectors with pairwise distance >= min_separation."""
    points = np.zeros((count, dim))
    for i in range(count):
        for _ in range(_MAX_REJECTIONS):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            if i == 0 or np.linalg.norm(points[:i] - v, axis=1).min() >= min_separation:
                points[i] = v
                break
        else:
            raise GenerationError(
                f"could not place mean {i + 1}/{count} in {context} at "
                f"min_separation={min_separation}; reduce the concept count "
                f"or the separation"
            )
    return points


def generate_synthetic(spec: SyntheticSpec) -> tuple[PartFeatureDataset, GroundTruth]:
    """Generate a planted-concept dataset plus its ground truth.

    Per (class, part) cell, ``concepts_per_cell`` means are drawn on the unit
    sphere with pairwise distance >= min_separation; each sample's part
    feature is its assigned mean plus isotropic Gaussian noise. The
    non-prototypical vector g follows one analogous mean per class.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    L, K, G, d_f = (spec.n_classes, spec.n_parts, spec.concepts_per_cell,
                    spec.feat_dim)
    n = L * spec.samples_per_class

    means = np.zeros((L, K, G, d_f), dtype=np.float32)
    for j in range(L):
        for p in range(K):
            means[j, p] = _sphere_points(rng, G, d_f, spec.min_separation,
                                         f"cell (class={j}, part={p})")
    g_means = _sphere_points(rng, L, d_f, spec.min_separation,
                             "non-prototypical class means").astype(np.float32)

    labels = np.repeat(np.arange(L), spec.samples_per_class)
    assignment = rng.integers(0, G, size=(n, K))

    # Row block by row block, the means are upcast, noised and narrowed into
    # the float32 arrays. Consecutive blocks draw consecutive noise, so the
    # values are those of one draw over all parts and then one over all g.
    def fill(out, mean_of):
        for rows in _row_blocks(n, out[0].size):
            block = mean_of(rows).astype(np.float64)
            if spec.noise_sigma > 0:
                block += spec.noise_sigma * rng.standard_normal(block.shape)
            out[rows] = block
        return out

    parts = fill(np.empty((n, K, d_f), dtype=np.float32),
                 lambda r: means[labels[r, None], np.arange(K), assignment[r]])
    g = fill(np.empty((n, d_f), dtype=np.float32), lambda r: g_means[labels[r]])

    ds = PartFeatureDataset(parts, g, labels, L)
    return ds, GroundTruth(planted_means=means, assignment=assignment)


def split_kfold(ds: PartFeatureDataset, k: int, seed: int) -> list[np.ndarray]:
    """Stratified k-fold split; returns k disjoint sorted index arrays."""
    check_int("k", k, 2)
    check_int("seed", seed, 0, SEED_MAX)
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    if counts.min() < k:  # refused before the k fold lists exist
        c = int(np.argmax(counts < k))
        raise StratificationError(
            f"class {c} has {counts[c]} samples, fewer than k={k}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in range(ds.n_classes):
        perm = rng.permutation(np.flatnonzero(ds.labels == c))
        for f in range(k):
            folds[f].extend(perm[f::k])
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def subset(ds: PartFeatureDataset, indices: np.ndarray) -> PartFeatureDataset:
    """Dataset restricted to ``indices`` (class set must stay complete)."""
    indices = check_array("indices", indices, 1, np.int64, high=ds.n_samples)
    return PartFeatureDataset(
        part_features=ds.part_features[indices],
        nonproto_features=ds.nonproto_features[indices],
        labels=ds.labels[indices],
        n_classes=ds.n_classes,
    )
