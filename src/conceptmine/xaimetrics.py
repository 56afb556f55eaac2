"""Explainability metrics: faithfulness (top-n concept deletion), stability
across folds, intra/inter-class consistency, and Hoyer sparseness, plus the
minimum-cost assignment solver the stability metric needs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from dataclasses import replace

import numpy as np

from .cav import _unit_rows
from .dataset import _row_blocks, PartFeatureDataset, split_kfold
from .errors import ValidationError, check_array, check_int, write_csv, write_json
from .head import SparseHead, accuracy, percent_correct, predict
from .mining import ConceptBook, MiningConfig, mine_concepts

log = logging.getLogger(__name__)


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _assignment_min_costs(cost: np.ndarray) -> np.ndarray:
    """Minimum total cost of a perfect row-column assignment for each of a
    stack of square cost matrices [C, m, m], O(m^3) per matrix.

    The shortest-augmenting-path method with 1-based potentials (Jonker &
    Volgenant 1987; Crouse 2016), run on all C problems at once: each scalar
    step of a solve on its own is one elementwise step over the stack, and
    the minimum keeps its first-index tie break. So every cost is
    bit-identical to a solve of its matrix alone.

    A problem whose path has reached a free column is frozen by the ``live``
    mask until the next row: its end column stays put, that column counts
    as used (so its ``way`` stays put), and it steps by delta = +0.0. The
    potentials start at +0.0 and so are never -0.0, which makes ``u + 0.0``
    and ``v - 0.0`` leave them bit for bit as they were.
    """
    cost = np.asarray(cost, dtype=np.float64)
    c, m = cost.shape[:2]
    w = m + 1
    # Problem t owns rows and columns [t * w, t * w + w) of the flat views;
    # its row and column 0 are the sentinel of the 1-based method.
    base = np.arange(c) * w
    a = np.zeros((c * w, w))
    a.reshape(c, w, w)[:, 1:, 1:] = cost
    u = np.zeros((c, w))
    v = np.zeros((c, w))
    match = np.zeros(c * w, dtype=np.int64)  # flat column -> its row, 0 = free
    way = np.zeros((c, w), dtype=np.int64)
    for i in range(1, w):
        match[base] = i
        j0 = base.copy()  # flat columns
        minv = np.full((c, w), np.inf)  # used columns read inf
        used = np.zeros((c, w), dtype=bool)
        used_row = np.zeros((c, w), dtype=bool)
        live = np.ones(c, dtype=bool)
        while live.any():
            i0 = base + match[j0]
            used.ravel()[j0] = True
            used_row.ravel()[i0] = True
            minv.ravel()[j0] = np.inf
            cur = np.where(used, np.inf, a[i0] - u.ravel()[i0][:, None] - v)
            better = cur < minv
            minv = np.where(better, cur, minv)
            way = np.where(better, (j0 - base)[:, None], way)
            j1 = base + minv.argmin(axis=1)
            delta = np.where(live, minv.ravel()[j1], 0.0)[:, None]
            u = np.where(used_row, u + delta, u)
            v = np.where(used, v - delta, v)
            minv -= delta
            j0 = np.where(live, j1, j0)
            live &= match[j0] != 0
        while (on := j0 != base).any():
            j1 = base + way.ravel()[j0]
            match[j0] = np.where(on, match[j1], match[j0])
            j0 = np.where(on, j1, j0)
    total = np.zeros(c)
    for j in range(1, w):
        total += a[base + match[base + j], j]
    return total


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Assignment perm (row i -> column perm[i]) of minimum total cost.

    Among cost-minimizing assignments, returns the lexicographically
    smallest permutation: each row in turn takes the smallest column that
    still allows the remaining rows to reach the global optimum (ties
    resolved within a tolerance of 1e-9 relative to the optimal cost).
    """
    cost = check_array("cost", cost, 2, finite=True)
    if cost.shape[0] != cost.shape[1]:
        raise ValidationError(f"cost matrix must be square, got {cost.shape}")
    m = cost.shape[0]
    perm = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return perm
    best = float(_assignment_min_costs(cost[None])[0])
    tol = 1e-9 * max(1.0, abs(best))

    available = np.arange(m)
    prefix = 0.0
    for i in range(m):
        # Row i takes each available column in turn; one batched solve gives
        # the best cost of the rows below it on the columns left over.
        rest = np.array([np.delete(available, t) for t in range(len(available))])
        sub = _assignment_min_costs(cost[i + 1:][:, rest].transpose(1, 0, 2))
        totals = prefix + cost[i, available] + sub
        fits = totals <= best + tol
        # No fit is a float accumulation edge; keep optimality.
        chosen = available[fits.argmax() if fits.any() else totals.argmin()]
        perm[i] = chosen
        prefix += cost[i, chosen]
        available = available[available != chosen]
    return perm


def faithfulness(cavs: np.ndarray, gs: np.ndarray, labels: np.ndarray,
                 head: SparseHead, book: ConceptBook,
                 n_list: list[int]) -> tuple[float, dict[int, float]]:
    """``(accuracy, {n: drop})``: the head's percent correct on ``cavs`` and,
    for each n, its drop in points after deleting each sample's top-n
    concepts, ranked by contribution to the class of its one clean predict."""
    for n in n_list:
        check_int("faithfulness n", n, 0)
    z = check_array("cavs", cavs, 2)
    g = check_array("gs", gs, 2)
    if z.shape[1] != book.d_c or z.shape[1] != head.W1.shape[0]:
        raise ValidationError(
            f"CAV width {z.shape[1]} does not match book d_c={book.d_c} "
            f"and head d_c={head.W1.shape[0]}"
        )
    pred = predict(z, g, head)
    base_acc = percent_correct(pred, labels, head.n_classes)
    for n in n_list:
        if n > book.d_c:
            log.warning("faithfulness n=%d exceeds d_c=%d; clamping", n, book.d_c)
    steps = sorted({min(n, book.d_c) for n in n_list if n})
    acc_at = {}
    if steps:
        # Each row's first steps[-1] concepts by contribution, stable order.
        order = np.empty((len(z), steps[-1]), dtype=np.int64)
        for rows in _row_blocks(len(z), z.shape[1]):
            contrib = z[rows] * head.W1[:, pred[rows]].T
            order[rows] = np.argsort(-contrib, axis=1, kind="stable")[:, :steps[-1]]
        # One copy, its top n zeroed for each n in turn: the columns zeroed
        # for a smaller n are among them.
        z_mod, done = z.copy(), 0
        for n in steps:
            np.put_along_axis(z_mod, order[:, done:n], 0.0, axis=1)
            acc_at[n], done = accuracy(z_mod, g, labels, head), n
    drops = {n: base_acc - acc_at[min(n, book.d_c)] if n else 0.0 for n in n_list}
    return base_acc, drops


# Entries of the largest temporary of one cost stack, its [C, m, m, d_f]
# centroid comparison; it caps how many problems share one solve.
_STACK_ENTRIES = 1 << 20


def _cost_stack(problems: list[tuple], m: int) -> np.ndarray:
    """Costs 1 - sim [C, m, m] of C cell pairs, each padded to size m.

    Each pair's similarities come from its own ``ua @ ub.T``, so they do not
    depend on how the pairs are stacked; padding rows and columns cost 1."""
    c = len(problems)
    d = problems[0][0].shape[1]
    rows = np.zeros((3, c, m, d))  # ca, ua and cb, zero-padded
    sim = np.zeros((c, m, m))
    for t, (ca, ua, cb, ub) in enumerate(problems):
        rows[0, t, :len(ca)] = ca
        rows[1, t, :len(ua)] = ua
        rows[2, t, :len(cb)] = cb
        sim[t, :len(ua), :len(ub)] = ua @ ub.T
    sim = np.clip(sim, 0.0, 1.0)
    # Identical nonzero centroids must score exactly 1; a padding row has a
    # zero unit row, so it never does.
    same = (rows[0][:, :, None] == rows[2][:, None]).all(axis=3)
    sim[same & rows[1].any(axis=2)[:, :, None]] = 1.0
    return 1.0 - sim


def stability(ds: PartFeatureDataset, k: int, mining: MiningConfig,
              seed: int) -> float:
    """Mean matched cosine similarity of per-cell centroids mined on k folds.

    Every fold is mined on its own, all in one batched mining call that
    returns each fold's cell centroids; for each fold pair and (class,
    part) cell the two centroid matrices are aligned by minimum-cost
    assignment on (1 - cosine), padding unequal counts with unmatched
    penalty 1 (similarity 0). Matched similarities are clamped at 0 so the
    score lies in [0, 100]. 100 means all folds mine identical cells.
    As every cost is 1 - sim, the m matched similarities of a cell sum to
    m - min_cost: only the optimal cost is needed, not the assignment. The
    (pair, cell) problems are grouped by padded size m, each group is solved
    in batches whose centroid comparison holds at most ``_STACK_ENTRIES``
    entries, and the per-cell sums are added in (pair, cell) order.
    """
    folds = [[(c, _unit_rows(c)) for c in cells] for cells in
             mine_concepts(ds, mining, folds=split_kfold(ds, k, seed))]
    problems = [(*a, *b) for cells_a, cells_b in itertools.combinations(folds, 2)
                for a, b in zip(cells_a, cells_b)]
    sizes = np.array([max(len(p[0]), len(p[2])) for p in problems])
    matched = np.empty(len(problems))
    for m in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == m)
        step = max(1, _STACK_ENTRIES // (m * m * ds.feat_dim))
        for lo in range(0, len(idx), step):
            part = idx[lo:lo + step]
            cost = _cost_stack([problems[t] for t in part], m)
            matched[part] = m - _assignment_min_costs(cost)
    # cumsum adds one term at a time, in order, unlike sum's pairwise tree.
    return 100.0 * float(np.cumsum(matched)[-1]) / int(sizes.sum())


def consistency(cavs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean pairwise CAV cosine within classes (averaged over classes) and
    across distinct classes, both scaled to [-100, 100].

    Pair sums come from per-class sums s_c of the unit rows u_i: the pairs
    inside class c sum to ||s_c||^2 - sum_i ||u_i||^2, and the cross-class
    pairs to ||sum_c s_c||^2 - sum_c ||s_c||^2. Time and memory are O(n d_c);
    no n x n matrix is formed."""
    z = check_array("cavs", cavs, 2)
    y = check_array("labels", labels, 1, np.int64, high=len(z))
    if len(y) != len(z):
        raise ValidationError(f"{len(y)} labels for {len(z)} CAV rows")
    classes, inverse, sizes = np.unique(y, return_inverse=True, return_counts=True)
    if len(classes) < 2:
        raise ValidationError("consistency needs at least 2 classes")
    if (sizes < 2).all():
        raise ValidationError("every class is a singleton; intra undefined")

    sums = np.zeros((len(classes), z.shape[1]))
    self_sq = np.empty(len(z))
    # Blocks in order: np.add.at then adds the rows in order, as in one call.
    for rows in _row_blocks(len(z), z.shape[1]):
        unit = _unit_rows(z[rows])
        np.add.at(sums, inverse[rows], unit)
        self_sq[rows] = (unit * unit).sum(axis=1)
    self_sq = np.bincount(inverse, weights=self_sq)
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
    z = check_array("cavs", cavs, 2)
    d_c = z.shape[1]
    if d_c < 2:
        raise ValidationError(f"sparseness needs d_c >= 2, got {d_c}")
    if not len(z):
        raise ValidationError("sparseness needs at least one CAV row")
    l1, l2 = np.empty(len(z)), np.empty(len(z))
    for rows in _row_blocks(len(z), d_c):
        l1[rows] = np.abs(z[rows]).sum(axis=1)
        l2[rows] = np.linalg.norm(z[rows], axis=1)
    # A row of tiny entries, whose squares underflow (a score past 100), is
    # scaled by a power of two to l1 in [0.5, 1); l1 / l2 keeps its value.
    tiny = (l1 > 0) & (l1 < 2.0 ** -300)
    if tiny.any():
        scaled = np.ldexp(z[tiny], -np.frexp(l1[tiny])[1][:, None])
        l1[tiny] = np.abs(scaled).sum(axis=1)
        l2[tiny] = np.linalg.norm(scaled, axis=1)
    root = np.sqrt(d_c)
    with np.errstate(invalid="ignore", divide="ignore"):
        score = (root - l1 / l2) / (root - 1.0)
    score = np.where(l2 == 0, 1.0, score)
    return 100.0 * float(np.mean(score))


def metric_report(ds: PartFeatureDataset, cavs: np.ndarray, gs: np.ndarray,
                  book: ConceptBook, head: SparseHead, k: int,
                  mining: MiningConfig, seed: int, n_list: list[int],
                  config: dict) -> dict:
    """The metric report of a scored run, as written to JSON and CSV.

    Holds ``config`` and its hash, the seed, F(n) for each n of ``n_list``
    (string keys, ascending), stability over ``k`` folds, consistency,
    sparseness, and the accuracy of the full head (F(n)'s base, from
    :func:`faithfulness`), of W1 alone and of the non-prototypical W2 alone."""
    intra, inter = consistency(cavs, ds.labels)
    full, faith = faithfulness(cavs, gs, ds.labels, head, book, n_list)
    w1_only = replace(head, W2=np.zeros_like(head.W2))
    w2_only = replace(head, W1=np.zeros_like(head.W1))
    return {
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "faithfulness": {str(n): v for n, v in sorted(faith.items())},
        "stability": stability(ds, k, mining, seed),
        "consistency_intra": intra,
        "consistency_inter": inter,
        "sparseness": sparseness(cavs),
        "accuracies": {
            "full": full,
            "prototypical_only": accuracy(cavs, gs, ds.labels, w1_only),
            "nonprototypical_only": accuracy(cavs, gs, ds.labels, w2_only),
        },
    }


def save_report(report: dict, path):
    """A :func:`metric_report` as indented JSON with sorted keys."""
    write_json(path, report, indent=2)


def save_report_csv(report: dict, path):
    """One CSV row keyed by config hash, for cross-run comparison tables."""
    ns = sorted(report["faithfulness"], key=int)
    header = (["config_hash", "seed", "consistency_intra", "consistency_inter"]
              + [f"F({n})" for n in ns] + ["sparseness", "stability"])
    row = ([report["config_hash"], report["seed"],
            report["consistency_intra"], report["consistency_inter"]]
           + [report["faithfulness"][n] for n in ns]
           + [report["sparseness"], report["stability"]])
    write_csv(path, header, [row])
