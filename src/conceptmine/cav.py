"""Concept activation vectors: clamped cosine similarity between part
features and every concept centroid in a book.

Activations are computed against all classes' centroids, and negatives are
clamped to zero so that 0 means "concept absent" and deletion-by-zeroing is
well defined downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PartFeatureDataset
from .errors import ValidationError, check_array, write_csv
from .mining import ConceptBook


@dataclass
class ConceptActivationVector:
    z: np.ndarray  # [d_c], each entry in [0, 1]
    g: np.ndarray  # [d_f] pass-through non-prototypical features


def _unit_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows scaled to unit norm, written to ``out`` if given (``a`` itself
    may be it); zero rows read +0.0 (cosine with 0 is 0)."""
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    out = np.divide(a, np.where(norms > 0, norms, 1.0), out=out)
    out[norms[..., 0] == 0] = 0.0
    return out


def _cav_core(parts: np.ndarray, book: ConceptBook) -> np.ndarray:
    if parts.shape[2] != book.feat_dim:
        raise ValidationError(
            f"feature dim {parts.shape[2]} does not match book d_f={book.feat_dim}"
        )
    if parts.shape[1] <= book.parts().max(initial=-1):
        raise ValidationError(
            f"book references part {int(book.parts().max())} but sample has "
            f"only {parts.shape[1]} parts"
        )
    unit_cents = _unit_rows(book.centroid_matrix())
    entry_parts = book.parts()
    z = np.zeros((parts.shape[0], book.d_c), dtype=np.float64)
    unit_f = np.empty((len(parts), parts.shape[2]), dtype=np.float64)
    for p in np.unique(entry_parts):  # one float64 copy of one part at a time
        cols = np.flatnonzero(entry_parts == p)
        np.copyto(unit_f, parts[:, p, :])
        z[:, cols] = _unit_rows(unit_f, out=unit_f) @ unit_cents[cols].T
    return np.clip(z, 0.0, 1.0, out=z)


def compute_cav(sample_parts: np.ndarray, g: np.ndarray,
                book: ConceptBook) -> ConceptActivationVector:
    """CAV of a single sample: [K, d_f] part features plus its g vector."""
    z = _cav_core(check_array("sample_parts", sample_parts, 2)[None], book)[0]
    return ConceptActivationVector(z=z, g=check_array("g", g, 1).copy())


def compute_cav_batch(ds: PartFeatureDataset,
                      book: ConceptBook) -> tuple[np.ndarray, np.ndarray]:
    """CAV matrix [n_samples, d_c] and pass-through g matrix [n_samples, d_f]."""
    z = _cav_core(ds.part_features, book)  # upcasts one part at a time
    return z, ds.nonproto_features.astype(np.float64)


def export_cav_csv(z: np.ndarray, g: np.ndarray, labels: np.ndarray, path):
    """Interchange CSV: one row per sample, d_c z-columns, d_f g-columns, label."""
    z = check_array("z", z, 2)
    g = check_array("g", g, 2)
    labels = check_array("labels", labels, 1, np.int64, high=len(z))
    if not len(z) == len(g) == len(labels):
        raise ValidationError("z, g and labels row counts disagree")
    header = [f"z_{i}" for i in range(z.shape[1])]
    header += [f"g_{i}" for i in range(g.shape[1])] + ["label"]
    values = np.concatenate([z, g], axis=1)
    write_csv(path, header, (v.tolist() + [c] for v, c in zip(values, labels.tolist())))
