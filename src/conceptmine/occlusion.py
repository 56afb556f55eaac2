"""Feature-level occlusion harness: zero the part vectors behind the most
activated concepts of a sample's predicted class and measure how accuracy
and faithfulness F(3) degrade as the occluded fraction grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cav import compute_cav, compute_cav_batch
from .dataset import _row_blocks, PartFeatureDataset
from .errors import ValidationError, check_array, check_real, write_csv
from .head import SparseHead, predict
from .mining import ConceptBook
from .xaimetrics import _accuracy_and_faithfulness


@dataclass(frozen=True)
class OcclusionConfig:
    """Occluded fractions, ascending: ``occlusion_eval`` relies on it."""

    fractions: tuple[float, ...] = (0.1, 0.2, 0.3)

    def __post_init__(self):
        for f in self.fractions:
            check_real("fractions entry", f, 0, 1)
        fr = tuple(float(f) for f in self.fractions)
        if list(fr) != sorted(fr):
            raise ValidationError(f"fractions must be sorted ascending, got {fr}")
        object.__setattr__(self, "fractions", fr)


def _occlusion_order(z: np.ndarray, g: np.ndarray, head: SparseHead,
                     book: ConceptBook, n_parts: int) -> np.ndarray:
    """Per sample, its parts from most to least occlusion-worthy [n, K].

    A part scores the largest contribution ``z * W1[:, pred]`` among its
    concepts for the sample's clean predicted class; a part without
    concepts scores -inf. Ties keep part order.
    """
    pred = predict(z, g, head)
    entry_parts = book.parts()
    part_cols = [np.flatnonzero(entry_parts == p) for p in range(n_parts)]
    scores = np.full((z.shape[0], n_parts), -np.inf)
    for rows in _row_blocks(len(z), z.shape[1]):
        contrib = z[rows] * head.W1[:, pred[rows]].T
        for p, cols in enumerate(part_cols):
            if cols.size:
                scores[rows, p] = contrib[:, cols].max(axis=1)
    return np.argsort(-scores, axis=1, kind="stable")


def _top_parts(order: np.ndarray, fraction: float) -> np.ndarray:
    """Mask [n, K] of each sample's top ceil(fraction * K) parts of ``order``."""
    hit = np.zeros(order.shape, dtype=bool)
    n_occ = math.ceil(fraction * order.shape[1])
    np.put_along_axis(hit, order[:, :n_occ], True, axis=1)
    return hit


def occlude_sample(sample_parts: np.ndarray, g: np.ndarray, head: SparseHead,
                   book: ConceptBook, fraction: float) -> np.ndarray:
    """Zero the top ceil(fraction * K) parts by maximum concept contribution.

    Parts are ranked by the largest contribution among their concepts for
    the sample's predicted class (clean response); at least one part is
    zeroed whenever fraction > 0. Labels and g are never touched.
    """
    check_real("fraction", fraction, 0, 1)
    parts = check_array("sample_parts", sample_parts, 2).copy()
    if fraction == 0:
        return parts
    cav = compute_cav(parts, g, book)
    order = _occlusion_order(cav.z[None], cav.g[None], head, book,
                             parts.shape[0])
    parts[_top_parts(order, fraction)[0]] = 0.0
    return parts


def occlusion_eval(ds: PartFeatureDataset, head: SparseHead, book: ConceptBook,
                   cfg: OcclusionConfig) -> list[tuple[float, float, float]]:
    """Curve of (fraction, accuracy, F(3)) including the fraction-0 baseline.

    For each fraction every sample is occluded from its clean response, and
    accuracy plus F(3) are re-evaluated on the occluded activations. Those
    need no second CAV pass: a zeroed part has a zero unit row, so each of
    its concepts reads exactly 0, and every other concept keeps its clean
    value. The part ranking and the clean CAVs come from one CAV batch.
    ``OcclusionConfig`` keeps the fractions ascending, so each fraction's
    occluded parts hold the last one's, and that one matrix is zeroed in
    place from point to point.
    """
    fractions = cfg.fractions
    if not fractions or fractions[0] != 0.0:
        fractions = (0.0,) + fractions

    z, g = compute_cav_batch(ds, book)
    order = _occlusion_order(z, g, head, book, ds.n_parts)
    entry_parts = book.parts()
    rows = []
    for fraction in fractions:
        np.copyto(z, 0.0, where=_top_parts(order, fraction)[:, entry_parts])
        acc, drops = _accuracy_and_faithfulness(z, g, ds.labels, head, book, [3])
        rows.append((fraction, acc, drops[3]))
    return rows


def save_curve_csv(rows: list[tuple[float, float, float]], path):
    write_csv(path, ["fraction", "accuracy", "F3"],
              np.asarray(rows, dtype=np.float64).tolist())


def save_curve_svg(rows: list[tuple[float, float, float]], path):
    """Minimal SVG line chart of accuracy and F(3) against occluded fraction."""
    width, height, pad = 480, 320, 45
    xs = [r[0] for r in rows]
    x_max = max(xs) if max(xs) > 0 else 1.0

    def px(f):
        return pad + (width - 2 * pad) * (f / x_max)

    def py(v):
        return height - pad - (height - 2 * pad) * (v / 100.0)

    def polyline(idx, color):
        pts = " ".join(f"{px(r[0]):.1f},{py(r[idx]):.1f}" for r in rows)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        polyline(1, "#1f77b4"),
        polyline(2, "#d62728"),
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">occluded fraction</text>',
        f'<text x="15" y="{height / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 15 {height / 2:.0f})" text-anchor="middle">percent</text>',
        f'<text x="{width - pad}" y="{pad}" text-anchor="end" font-size="12" '
        f'fill="#1f77b4">accuracy</text>',
        f'<text x="{width - pad}" y="{pad + 16}" text-anchor="end" font-size="12" '
        f'fill="#d62728">F(3)</text>',
    ]
    for fraction, *_ in rows:
        parts.append(f'<text x="{px(fraction):.1f}" y="{height - pad + 14}" '
                     f'text-anchor="middle" font-size="10">{fraction:g}</text>')
    for v in (0, 25, 50, 75, 100):
        parts.append(f'<text x="{pad - 6}" y="{py(v):.1f}" text-anchor="end" '
                     f'font-size="10">{v}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
