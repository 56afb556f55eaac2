"""Explainability metrics: faithfulness (top-n concept deletion), stability
across folds, intra/inter-class consistency, and Hoyer sparseness, plus the
minimum-cost assignment solver the stability metric needs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .cav import _unit_rows
from .dataset import PartFeatureDataset, split_kfold, subset
from .errors import ValidationError
from .head import SparseHead, predict
from .mining import ConceptBook, DbscanParams, mine_concepts

log = logging.getLogger(__name__)


@dataclass
class MetricReport:
    """All metric values for one run, with configuration provenance."""

    faithfulness: dict[int, float]
    stability: float
    consistency_intra: float
    consistency_inter: float
    sparseness: float
    config: dict = field(default_factory=dict)
    seed: int = 0


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _assignment_min_cost(cost: np.ndarray) -> float:
    """Minimum total cost of a perfect row-column assignment (O(n^3)).

    Runs on Python lists: up to n ~ 100 this beats both numpy scalar
    indexing and per-row numpy calls."""
    n = cost.shape[0]
    if n == 0:
        return 0.0
    rows = np.asarray(cost, dtype=np.float64).tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to col j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            u0 = u[i0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = 0.0
    for j in range(1, n + 1):
        total += rows[match[j] - 1][j - 1]
    return total


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Assignment perm (row i -> column perm[i]) of minimum total cost.

    Among cost-minimizing assignments, returns the lexicographically
    smallest permutation: each row in turn takes the smallest column that
    still allows the remaining rows to reach the global optimum (ties
    resolved within a tolerance of 1e-9 relative to the optimal cost).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError(f"cost matrix must be square, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValidationError("cost matrix contains non-finite values")
    m = cost.shape[0]
    perm = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return perm
    best = _assignment_min_cost(cost)
    tol = 1e-9 * max(1.0, abs(best))

    available = list(range(m))
    prefix = 0.0
    for i in range(m):
        fallback = (np.inf, available[0])
        chosen = None
        for j in available:
            rest_cols = [c for c in available if c != j]
            sub = cost[np.ix_(range(i + 1, m), rest_cols)]
            total = prefix + cost[i, j] + (_assignment_min_cost(sub)
                                           if sub.size else 0.0)
            if total <= best + tol:
                chosen = j
                break
            if total < fallback[0]:
                fallback = (total, j)
        if chosen is None:
            chosen = fallback[1]  # float accumulation edge; keep optimality
        perm[i] = chosen
        prefix += cost[i, chosen]
        available.remove(chosen)
    return perm


def faithfulness(cavs: np.ndarray, gs: np.ndarray, labels: np.ndarray,
                 head: SparseHead, book: ConceptBook,
                 n_list: list[int]) -> dict[int, float]:
    """Accuracy drop (percentage points) after deleting each sample's top-n
    concepts, ranked by contribution to its predicted class on clean inputs."""
    z = np.asarray(cavs, dtype=np.float64)
    g = np.asarray(gs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.shape[1] != book.d_c or z.shape[1] != head.W1.shape[0]:
        raise ValidationError(
            f"CAV width {z.shape[1]} does not match book d_c={book.d_c} "
            f"and head d_c={head.W1.shape[0]}"
        )
    preds = predict(z, g, head)
    base_acc = 100.0 * float(np.mean(preds == y))

    contrib = z * head.W1[:, preds].T  # [n, d_c]
    order = np.argsort(-contrib, axis=1, kind="stable")

    drops: dict[int, float] = {}
    for n_req in n_list:
        if n_req == 0:
            drops[0] = 0.0
            continue
        n = n_req
        if n > book.d_c:
            log.warning("faithfulness n=%d exceeds d_c=%d; clamping", n, book.d_c)
            n = book.d_c
        z_mod = z.copy()
        np.put_along_axis(z_mod, order[:, :n], 0.0, axis=1)
        acc = 100.0 * float(np.mean(predict(z_mod, g, head) == y))
        drops[n_req] = base_acc - acc
    return drops


def _cells(book: ConceptBook) -> dict[tuple[int, int], tuple]:
    """Per (class, part) cell: its centroid matrix and their unit rows."""
    cells: dict[tuple[int, int], list] = {}
    for e in book.entries:
        cells.setdefault((e.class_id, e.part), []).append(e.centroid)
    return {key: (np.array(c), _unit_rows(np.array(c)))
            for key, c in cells.items()}


def stability(ds: PartFeatureDataset, k: int, params: DbscanParams | None,
              seed: int) -> float:
    """Mean matched cosine similarity of per-cell centroids mined on k folds.

    Every fold is re-mined independently; for each fold pair and
    (class, part) cell the two centroid lists are aligned by minimum-cost
    assignment on (1 - cosine), padding unequal counts with unmatched
    penalty 1 (similarity 0). Matched similarities are clamped at 0 so the
    score lies in [0, 100]. 100 means all folds mine identical books.
    As every cost is 1 - sim, the m matched similarities of a cell sum to
    m - min_cost: only the optimal cost is needed, not the assignment.
    """
    folds = split_kfold(ds, k, seed)
    books = [_cells(mine_concepts(subset(ds, f), params)) for f in folds]
    matched = 0.0
    slots = 0
    for cells_a, cells_b in itertools.combinations(books, 2):
        for key, (ca, ua) in cells_a.items():
            cb, ub = cells_b[key]
            sim = np.clip(ua @ ub.T, 0.0, 1.0)
            # Identical nonzero centroids must score exactly 1.
            same = (ca[:, None] == cb[None]).all(axis=2)
            sim[same & ua.any(axis=1)[:, None]] = 1.0
            m = max(sim.shape)
            cost = np.ones((m, m))
            cost[:sim.shape[0], :sim.shape[1]] -= sim
            matched += m - _assignment_min_cost(cost)
            slots += m
    return 100.0 * matched / slots


def consistency(cavs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean pairwise CAV cosine within classes (averaged over classes) and
    across distinct classes, both scaled to [-100, 100].

    Pair sums come from per-class sums s_c of the unit rows u_i: the pairs
    inside class c sum to ||s_c||^2 - sum_i ||u_i||^2, and the cross-class
    pairs to ||sum_c s_c||^2 - sum_c ||s_c||^2. Time and memory are O(n d_c);
    no n x n matrix is formed."""
    z = np.asarray(cavs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    classes, inverse, sizes = np.unique(y, return_inverse=True, return_counts=True)
    if len(classes) < 2:
        raise ValidationError("consistency needs at least 2 classes")
    if (sizes < 2).all():
        raise ValidationError("every class is a singleton; intra undefined")

    unit = _unit_rows(z)
    sums = np.zeros((len(classes), unit.shape[1]))
    np.add.at(sums, inverse, unit)
    self_sq = np.bincount(inverse, weights=(unit * unit).sum(axis=1))
    class_sq = (sums * sums).sum(axis=1)

    multi = sizes >= 2
    m = sizes[multi]
    intra = 100.0 * float(np.mean((class_sq[multi] - self_sq[multi]) / (m * (m - 1))))
    total = sums.sum(axis=0)
    cross_pairs = len(y) ** 2 - int(np.sum(sizes ** 2))
    inter = 100.0 * float(total @ total - class_sq.sum()) / cross_pairs
    return intra, inter


def sparseness(cavs: np.ndarray) -> float:
    """Mean Hoyer sparseness of CAV rows, in [0, 100]; all-zero rows count 100."""
    z = np.asarray(cavs, dtype=np.float64)
    d_c = z.shape[1]
    if d_c < 2:
        raise ValidationError(f"sparseness needs d_c >= 2, got {d_c}")
    l1 = np.abs(z).sum(axis=1)
    l2 = np.linalg.norm(z, axis=1)
    root = np.sqrt(d_c)
    with np.errstate(invalid="ignore", divide="ignore"):
        score = (root - l1 / l2) / (root - 1.0)
    score = np.where(l2 == 0, 1.0, score)
    return 100.0 * float(np.mean(score))


def report_to_dict(report: MetricReport) -> dict:
    return {
        "config": report.config,
        "config_hash": config_hash(report.config),
        "seed": report.seed,
        "faithfulness": {str(n): v for n, v in sorted(report.faithfulness.items())},
        "stability": report.stability,
        "consistency_intra": report.consistency_intra,
        "consistency_inter": report.consistency_inter,
        "sparseness": report.sparseness,
    }


def save_report(report: MetricReport, path):
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=2)


def save_report_csv(report: MetricReport, path):
    """One CSV row keyed by config hash, for cross-run comparison tables."""
    ns = sorted(report.faithfulness)
    header = (["config_hash", "seed", "consistency_intra", "consistency_inter"]
              + [f"F({n})" for n in ns] + ["sparseness", "stability"])
    row = ([config_hash(report.config), report.seed,
            report.consistency_intra, report.consistency_inter]
           + [report.faithfulness[n] for n in ns]
           + [report.sparseness, report.stability])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)
