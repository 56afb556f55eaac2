"""Independent reference implementations used as test oracles.

These deliberately use different machinery than the production code:
DBSCAN via union-find over core points instead of label propagation
(with the neighbor test sqrt(d2) <= eps, or d2 <= eps * eps as written),
squared distances via the direct n x n x d broadcast instead of the Gram
form, books and stability mined one cell and one fold at a time instead
of in batches, stability's cells grouped entry by entry
(``_reference_cells``) instead of sliced from each batch's cluster means
by ``mine_concepts``, assignment via
exhaustive permutation search, the minimum assignment cost of one matrix
at a time on Python lists (``reference_assignment_min_cost``, the form the
batched solver must match bit for bit, and the solver of
``reference_stability``), stability via the lexicographic assignment of every cell, occlusion one sample at a time,
the MCC loss as straight-line scalar loops, head training as plain
constant-step gradient descent, and consistency from the full n x n Gram
matrix. The ``reference_*`` loops are the straightforward forms of the fast
training loops (np.linalg.norm, every hinge term applied, the loss over one
full residual, every gradient recomputed); the fast loops must reproduce
them bit for bit. ``reference_merge_centroids`` is the straightforward form
of the Ward merge (separate one-entry, no-merge and rebuild returns, set
members, a loop that tests for a live pair on its own); ``merge_centroids``
must reproduce it bit for bit. ``reference_best_epoch`` scores every
snapshot of a trajectory exactly, where ``best_epoch`` bounds them first.
``pack_container`` builds the binary artifact container
field by field from its documented layout. ``reference_generate_synthetic``
draws each noise array in one call, ``reference_cav_batch`` makes each part's
unit rows as a new array, and ``reference_faithfulness`` ranks every concept
of every row at once and zeroes a fresh copy for each n, where the package
works in row blocks and one work copy; each must match bit for bit.
"""

import itertools
import json
import math
import struct

import numpy as np

from conceptmine.cav import _unit_rows, compute_cav, compute_cav_batch
from conceptmine.dataset import (GroundTruth, PartFeatureDataset, _sphere_points,
                                 split_kfold, subset)
from conceptmine.errors import DivergenceError
from conceptmine.head import (SparseHead, _smooth_objective_and_grads,
                              concept_contributions, head_forward, predict,
                              soft_threshold)
from conceptmine.mining import ConceptBook, ConceptEntry, MergeConfig, mine_concepts
from conceptmine.partproto import PrototypeCenters, mcc_loss
from conceptmine.xaimetrics import hungarian


def brute_force_dbscan(points, eps, min_pts):
    """Textbook DBSCAN semantics via distance matrix + union-find: points
    are neighbors iff their Euclidean distance is at most ``eps``."""
    points = np.asarray(points, dtype=np.float64)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    return _union_find_dbscan(dist <= eps, min_pts)


def squared_rule_dbscan(points, eps, min_pts):
    """DBSCAN with the neighbor rule ``sum((a - b) ** 2) <= eps * eps`` taken
    literally on the direct n x n x d broadcast, where
    :func:`brute_force_dbscan` compares the square root against eps."""
    points = np.asarray(points, dtype=np.float64)
    sq = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return _union_find_dbscan(sq <= eps * eps, min_pts)


def _union_find_dbscan(within, min_pts):
    """Labels from the n x n neighbor mask ``within``.

    Core clusters are connected components of the core-core eps graph,
    numbered by their lowest core index. Border points join the
    earliest-numbered cluster among their core neighbors, which is the
    cluster whose expansion touches them first.
    """
    n = len(within)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    core = within.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and within[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    roots = sorted({find(i) for i in range(n) if core[i]})
    cluster_of_root = {r: c for c, r in enumerate(roots)}
    for i in range(n):
        if core[i]:
            labels[i] = cluster_of_root[find(i)]
    for i in range(n):
        if core[i]:
            continue
        neighbor_clusters = [labels[j] for j in np.flatnonzero(within[i])
                             if core[j]]
        if neighbor_clusters:
            labels[i] = min(neighbor_clusters)
    return labels


def broadcast_adaptive_eps(cell):
    """Median nearest-neighbor distance from the full n x n x d broadcast."""
    cell = np.asarray(cell, dtype=np.float64)
    sq = np.sum((cell[:, None, :] - cell[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(sq, np.inf)
    return float(np.median(np.sqrt(sq.min(axis=1))))


def _distance_threshold(cell, eps):
    """The t for which ``sqrt(d2) <= t``, the test :func:`brute_force_dbscan`
    makes, holds for exactly the pairs with ``d2 <= eps * eps``, the test
    mining makes. The two differ where sqrt(d2) rounds onto eps; with the
    adaptive eps of an odd-sized cell, that happens to the pair that sets
    the median."""
    sq = np.sum((cell[:, None, :] - cell[None, :, :]) ** 2, axis=2)
    dist = np.sqrt(sq)
    inside = sq <= eps * eps
    t = dist[inside].max()  # the diagonal is inside
    if (dist[~inside] <= t).any():
        raise AssertionError(f"no distance threshold matches eps={eps!r}")
    return float(t)


def reference_mine_concepts(ds, params):
    """The concept book mined cell by cell with :func:`brute_force_dbscan`,
    eps from :func:`broadcast_adaptive_eps` when ``params.eps`` is None."""
    feats = ds.part_features.astype(np.float64)
    book = ConceptBook(feat_dim=ds.feat_dim)
    for j in range(ds.n_classes):
        for p in range(ds.n_parts):
            cell = feats[ds.labels == j, p]
            n = len(cell)
            if params.eps is not None:
                eps = params.eps
                min_pts = 3 if params.min_pts is None else params.min_pts
            else:
                eps = max(broadcast_adaptive_eps(cell), 1e-12) if n > 1 else 1.0
                min_pts = max(3, n // 20)
            labels = brute_force_dbscan(cell, _distance_threshold(cell, eps),
                                        min_pts)
            if labels.max() < 0:
                book.entries.append(ConceptEntry(j, p, 0, _row_mean(cell), n))
            for l in range(labels.max() + 1):
                members = cell[labels == l]
                book.entries.append(
                    ConceptEntry(j, p, l, _row_mean(members), len(members)))
    return book


def _row_mean(rows):
    """The mean of ``rows`` summed one row after another, at every width
    (``ndarray.mean`` sums a single column pairwise)."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total / len(rows)


def _reference_cells(book):
    """Per (class, part) cell, grouped entry by entry: its centroid matrix
    and the unit centroids, each scaled by its own norm (zero stays zero)."""
    cells = {}
    for e in book.entries:
        norm = math.sqrt(float(np.sum(e.centroid * e.centroid)))
        unit = e.centroid / norm if norm > 0 else np.zeros_like(e.centroid)
        centroids, units = cells.setdefault((e.class_id, e.part), ([], []))
        centroids.append(e.centroid)
        units.append(unit)
    return {key: (np.array(c), np.array(u)) for key, (c, u) in cells.items()}


def reference_stability(ds, k, params, seed):
    """Stability with every fold book from :func:`reference_mine_concepts`,
    its cells grouped by :func:`_reference_cells`, and each fold pair scored
    cell by cell."""
    books = [_reference_cells(reference_mine_concepts(subset(ds, f), params))
             for f in split_kfold(ds, k, seed)]
    matched = 0.0
    slots = 0
    for cells_a, cells_b in itertools.combinations(books, 2):
        for key, (ca, ua) in cells_a.items():
            cb, ub = cells_b[key]
            sim = np.clip(ua @ ub.T, 0.0, 1.0)
            same = (ca[:, None] == cb[None]).all(axis=2)
            sim[same & ua.any(axis=1)[:, None]] = 1.0
            m = max(sim.shape)
            cost = np.ones((m, m))
            cost[:sim.shape[0], :sim.shape[1]] -= sim
            matched += m - reference_assignment_min_cost(cost)
            slots += m
    return 100.0 * matched / slots


def reference_assignment_min_cost(cost):
    """Minimum total cost of one perfect row-column assignment (O(n^3)),
    solved on Python lists one augmenting path at a time."""
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


def canonical_labels(labels):
    """Relabel clusters by first occurrence so partitions can be compared."""
    labels = np.asarray(labels)
    mapping = {}
    out = np.full(len(labels), -1, dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


_PERM_CACHE = {}


def exhaustive_assignment(cost):
    """Minimal assignment cost and the lexicographically smallest argmin."""
    cost = np.asarray(cost, dtype=np.float64)
    m = cost.shape[0]
    if m not in _PERM_CACHE:
        _PERM_CACHE[m] = np.array(list(itertools.permutations(range(m))),
                                  dtype=np.int64)
    perms = _PERM_CACHE[m]
    totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
    best = totals.min()
    # permutations() yields lexicographic order; the first argmin is the
    # lexicographically smallest optimal permutation.
    return float(best), perms[int(np.argmin(totals))]


def mcc_loss_reference(batch, centers, m1, m2):
    """Scalar re-evaluation of the marginal cluster-center loss."""
    batch = np.asarray(batch, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, k, _ = batch.shape
    total = 0.0
    for i in range(n):
        for p in range(k):
            d = math.dist(batch[i, p], centers[p])
            total += max(d - m1, 0.0)
            pair = 0.0
            for q in range(k):
                if q == p:
                    continue
                pair += max(m2 - math.dist(centers[p], centers[q]), 0.0)
            total += pair / k
    return total / n


def mcc_instance_away_from_kinks(rng, b=4, k=3, d=5, kink_margin=1e-3,
                                 m1=0.3, m2=1.5):
    """Random (batch, centers) whose hinge arguments all sit more than
    kink_margin from their kinks, so finite differences are valid."""
    while True:
        batch = rng.normal(size=(b, k, d))
        centers = rng.normal(size=(k, d))
        intra = np.linalg.norm(batch - centers[None], axis=2)
        pair = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        iu = np.triu_indices(k, 1)
        if (np.abs(intra - m1) > kink_margin).all() and \
                (np.abs(pair[iu] - m2) > kink_margin).all() and \
                (intra > kink_margin).all() and (pair[iu] > kink_margin).all():
            return batch, centers


def central_difference_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return grad


def gd_softmax_oracle(z, g, labels, lr=0.5, iters=20000):
    """Plain constant-step full-batch GD on unpenalized softmax regression."""
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_classes = int(y.max()) + 1
    onehot = np.eye(n_classes)[y]
    n = z.shape[0]
    w1 = np.zeros((z.shape[1], n_classes))
    w2 = np.zeros((g.shape[1], n_classes))
    b = np.zeros(n_classes)
    for _ in range(iters):
        o = z @ w1 + g @ w2 + b
        o -= o.max(axis=1, keepdims=True)
        p = np.exp(o)
        p /= p.sum(axis=1, keepdims=True)
        d = (p - onehot) / n
        w1 -= lr * (z.T @ d)
        w2 -= lr * (g.T @ d)
        b -= lr * d.sum(axis=0)
    o = z @ w1 + g @ w2 + b
    o -= o.max(axis=1, keepdims=True)
    logp = o - np.log(np.exp(o).sum(axis=1, keepdims=True))
    objective = -float((onehot * logp).sum()) / n
    return w1, w2, b, objective


def _cosine(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def lexicographic_stability(ds, k, params, seed):
    """Stability as the mean of every matched similarity, with each cell
    aligned by the lexicographically smallest optimal assignment."""
    books = [mine_concepts(subset(ds, f), params)
             for f in split_kfold(ds, k, seed)]

    def cell(book, j, p):
        return [e.centroid for e in book.entries
                if e.class_id == j and e.part == p]

    sims = []
    for f1 in range(k):
        for f2 in range(f1 + 1, k):
            for j in range(ds.n_classes):
                for p in range(ds.n_parts):
                    a = cell(books[f1], j, p)
                    b = cell(books[f2], j, p)
                    m = max(len(a), len(b))
                    sim = np.zeros((m, m))
                    for ia in range(len(a)):
                        for ib in range(len(b)):
                            sim[ia, ib] = max(_cosine(a[ia], b[ib]), 0.0)
                    perm = hungarian(1.0 - sim)
                    sims.extend(sim[np.arange(m), perm])
    return 100.0 * float(np.mean(sims))


def per_sample_occlusion(ds, head, book, fraction):
    """Occluded part features [n, K, d_f], ranking one sample at a time."""
    out = ds.part_features.astype(np.float64)
    if fraction == 0:
        return out
    entry_parts = book.parts()
    k = ds.n_parts
    for i in range(ds.n_samples):
        cav = compute_cav(out[i], ds.nonproto_features[i], book)
        pred = int(np.argmax(head_forward(cav.z, cav.g, head)))
        contrib = concept_contributions(cav.z, head, pred)
        scores = [max(contrib[entry_parts == p], default=-np.inf)
                  for p in range(k)]
        top = sorted(range(k), key=lambda p: -scores[p])
        out[i, top[:math.ceil(fraction * k)]] = 0.0
    return out


def per_sample_occlusion_curve(ds, head, book, fractions):
    """(fraction, accuracy, F(3)) rows from :func:`per_sample_occlusion`."""
    labels = ds.labels.astype(np.int64)
    rows = []
    for fraction in (0.0,) + tuple(f for f in fractions if f != 0.0):
        occluded = PartFeatureDataset(
            per_sample_occlusion(ds, head, book, fraction).astype(np.float32),
            ds.nonproto_features, ds.labels, ds.n_classes)
        z, g = compute_cav_batch(occluded, book)
        acc = 100.0 * float(np.mean(predict(z, g, head) == labels))
        rows.append((fraction, acc,
                     reference_faithfulness(z, g, labels, head, book, [3])[3]))
    return rows


def pairwise_consistency(cavs, labels):
    """(intra, inter) consistency from the full n x n cosine Gram matrix."""
    z = np.asarray(cavs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    unit = _unit_rows(z)
    gram = unit @ unit.T
    intra_vals = []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        m = len(idx)
        if m < 2:
            continue
        sub = gram[np.ix_(idx, idx)]
        intra_vals.append((sub.sum() - np.trace(sub)) / (m * (m - 1)))
    cross = y[:, None] != y[None, :]
    return 100.0 * float(np.mean(intra_vals)), 100.0 * float(gram[cross].mean())


def _reference_pair_hinges(c, m2):
    diff = c[:, None, :] - c[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    active = dist < m2
    np.fill_diagonal(active, False)
    return diff, dist, active


def unblocked_mcc_loss(batch, c, m1, m2):
    """MCC loss computed over one [n, K, d_f] residual."""
    intra_dist = np.linalg.norm(batch - c[None, :, :], axis=2)
    intra = np.maximum(intra_dist - m1, 0.0).sum(axis=1).mean()
    _, dist, _ = _reference_pair_hinges(c, m2)
    pair_h = np.maximum(m2 - dist, 0.0)
    np.fill_diagonal(pair_h, 0.0)
    return float(intra + pair_h.sum() / c.shape[0])


def _reference_mcc_gradients(batch, c, m1, m2):
    """MCC gradient with the activity mask and the pair term always applied."""
    k = c.shape[0]
    resid = batch - c[None, :, :]
    dist = np.linalg.norm(resid, axis=2)
    active = dist > m1
    safe = np.where(dist > 0, dist, 1.0)
    unit = resid / safe[:, :, None]
    grad = -(unit * active[:, :, None]).sum(axis=0) / batch.shape[0]
    diff, pdist, pactive = _reference_pair_hinges(c, m2)
    psafe = np.where(pdist > 0, pdist, 1.0)
    punit = np.where(pactive[:, :, None] & (pdist[:, :, None] > 0),
                     diff / psafe[:, :, None], 0.0)
    grad += -(2.0 / k) * punit.sum(axis=1)
    return grad


def reference_fit_prototype_centers(ds, cfg, init=None, seed=0):
    """Center fitting with the activity mask and the pair term applied at
    every step, scoring each epoch on the full [n, K, d_f] residual."""
    feats = ds.part_features.astype(np.float64)
    rng = np.random.default_rng(seed)
    if init is not None:
        c = np.asarray(init, dtype=np.float64).copy()
    else:
        c = feats.mean(axis=0) + 0.01 * rng.standard_normal((ds.n_parts, ds.feat_dim))
    best = c.copy()
    best_loss = unblocked_mcc_loss(feats, c, cfg.m1, cfg.m2)
    n = ds.n_samples
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            c = c - cfg.lr * _reference_mcc_gradients(feats[idx], c, cfg.m1, cfg.m2)
        loss = unblocked_mcc_loss(feats, c, cfg.m1, cfg.m2)
        if loss < best_loss:
            best_loss = loss
            best = c.copy()
    return best


def reference_best_epoch(ds, cfg, trajectory):
    """The first lowest-``mcc_loss`` snapshot of ``trajectory``, scoring every
    one on the full data as it is read. A non-finite snapshot or loss after
    the start raises DivergenceError at once; a non-finite start raises
    ValidationError, and a finite start is kept whatever its loss."""
    best = best_loss = None
    for epoch, c in enumerate(trajectory, -1):
        if epoch >= 0 and not np.isfinite(c).all():
            loss = math.nan
        else:
            with np.errstate(over="ignore"):
                loss = mcc_loss(ds.part_features, PrototypeCenters(c), cfg.m1, cfg.m2)
        if epoch >= 0 and not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite MCC loss at epoch {epoch} (lr={cfg.lr})",
                epoch=epoch, lr=cfg.lr)
        if best is None or loss < best_loss:
            best, best_loss = c, loss
    return PrototypeCenters(np.array(best, dtype=np.float64))


def reference_train_head(cavs, gs, labels, cfg, on_epoch=None):
    """Proximal gradient head training that evaluates the gradient at the
    current point at the start of every epoch, apart from the trial that
    accepted it: two forward passes per epoch."""
    z = np.asarray(cavs, dtype=np.float64)
    g = np.asarray(gs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_classes = int(y.max()) + 1
    onehot = np.eye(n_classes)[y]
    w1 = np.zeros((z.shape[1], n_classes))
    w2 = np.zeros((g.shape[1], n_classes))
    b = np.zeros(n_classes)

    def full_objective(w1_, w2_, b_):
        smooth, *_ = _smooth_objective_and_grads(z, g, onehot, w1_, w2_, b_,
                                                 cfg.lam, cfg.gamma)
        return smooth + cfg.lam * cfg.gamma * float(np.sum(np.abs(w1_)))

    obj = full_objective(w1, w2, b)
    step = cfg.lr
    for epoch in range(cfg.epochs):
        _, g_w1, g_w2, g_b = _smooth_objective_and_grads(
            z, g, onehot, w1, w2, b, cfg.lam, cfg.gamma)
        step = min(cfg.lr, 2.0 * step)
        accepted = False
        while step > 0:
            pre_prox = w1 - step * g_w1
            w1_new = soft_threshold(pre_prox, step * cfg.lam * cfg.gamma)
            w2_new = w2 - step * g_w2
            b_new = b - step * g_b
            obj_new = full_objective(w1_new, w2_new, b_new)
            if obj_new <= obj:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            pre_prox, w1_new, w2_new, b_new, obj_new = w1, w1, w2, b, obj
        w1, w2, b, obj = w1_new, w2_new, b_new, obj_new
        if on_epoch is not None:
            on_epoch(epoch, obj, step, pre_prox, w1)
    return SparseHead(W1=w1, W2=w2, b=b)


def _reference_agglomerate(weights, cents, cutoff):
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


def reference_merge_centroids(book: ConceptBook, cfg: MergeConfig) -> ConceptBook:
    """Agglomerate similar centroids within the scope given by cfg.level.

    Within each scope group, clusters (seeded with single centroids weighted
    by member_count) are merged greedily by smallest Ward distance while that
    distance stays below (threshold_pct / 100) x D_max, with D_max the
    maximum pairwise centroid distance over the whole book. Merged centroids
    are member-count-weighted means tagged with the class and part of the
    largest contributing entry. A zero threshold returns the book unchanged.
    """
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
        for local_members, weight, centroid in _reference_agglomerate(
                weights, cents_g, cutoff):
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


def pack_container(magic, header, *arrays, version=2):
    """``magic | u32 version | u32 n | n bytes of UTF-8 JSON | f64 arrays``,
    with the arrays' shapes added to the JSON header as "shapes"."""
    arrays = [np.asarray(a, dtype="<f8") for a in arrays]
    text = json.dumps({**header, "shapes": [list(a.shape) for a in arrays]},
                      sort_keys=True).encode("utf-8")
    return (struct.pack("<4sII", magic, version, len(text)) + text
            + b"".join(a.tobytes() for a in arrays))


def reference_generate_synthetic(spec):
    """``generate_synthetic`` with all part noise drawn in one call, then all
    g noise in one call, on float64 copies of the whole arrays."""
    rng = np.random.default_rng(spec.seed)
    L, K, G, d_f = (spec.n_classes, spec.n_parts, spec.concepts_per_cell,
                    spec.feat_dim)
    n = L * spec.samples_per_class
    means = np.zeros((L, K, G, d_f), dtype=np.float32)
    for j in range(L):
        for p in range(K):
            means[j, p] = _sphere_points(rng, G, d_f, spec.min_separation, "cell")
    g_means = _sphere_points(rng, L, d_f, spec.min_separation, "g").astype(np.float32)
    labels = np.repeat(np.arange(L), spec.samples_per_class)
    assignment = rng.integers(0, G, size=(n, K))
    parts = means[labels[:, None], np.arange(K)[None, :], assignment].astype(np.float64)
    g = g_means[labels].astype(np.float64)
    if spec.noise_sigma > 0:
        parts = parts + spec.noise_sigma * rng.standard_normal(parts.shape)
        g = g + spec.noise_sigma * rng.standard_normal(g.shape)
    ds = PartFeatureDataset(parts.astype(np.float32), g.astype(np.float32), labels, L)
    return ds, GroundTruth(planted_means=means, assignment=assignment)


def reference_cav_batch(ds, book):
    """CAV matrix [n, d_c] from a new float64 unit-row array per part."""
    unit_cents = _unit_rows(book.centroid_matrix())
    entry_parts = book.parts()
    z = np.zeros((ds.n_samples, book.d_c))
    for p in np.unique(entry_parts):
        cols = np.flatnonzero(entry_parts == p)
        unit_f = _unit_rows(ds.part_features[:, p, :].astype(np.float64))
        z[:, cols] = unit_f @ unit_cents[cols].T
    return np.clip(z, 0.0, 1.0)


def reference_faithfulness(cavs, gs, labels, head, book, n_list):
    """F(n) per n: the full stable ranking of every row's contributions, and
    a fresh copy with its top min(n, d_c) concepts zeroed for each n."""
    z = np.asarray(cavs, dtype=np.float64)
    pred = predict(z, gs, head)
    base = 100.0 * float(np.mean(pred == labels))
    order = np.argsort(-(z * head.W1[:, pred].T), axis=1, kind="stable")
    drops = {}
    for n in n_list:
        z_mod = z.copy()
        np.put_along_axis(z_mod, order[:, :min(n, book.d_c)], 0.0, axis=1)
        drops[n] = base - 100.0 * float(np.mean(predict(z_mod, gs, head) == labels))
    return drops
