"""Independent brute-force oracles used to cross-check the library.

Each oracle re-implements the mathematics from first principles with the
slowest, most transparent algorithm available, sharing no code path with the
implementation under test: an exhaustive scan for kNN, full enumeration of
sign assignments for the Wilcoxon distribution, reduction of the complete
boundary matrix for Rips persistence, a row-by-row, tree-by-tree node walk
for random-forest prediction, and a grower that sorts every candidate feature
afresh at every node for random-forest training.

The reference_* functions further down are the library's earlier one-cloud,
loop-based persistence features, its out-of-place particle-filter step
with binary-search resampling, and its per-row evidence fusion (masses,
Dempster's rule, point, nearest-centroid distance), and its per-sample
survey synthesis, stratified split, fold assignment and CSV writer. The
batched and in-place versions must equal them bit for bit, random draws
included.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np


def brute_force_knn(points: np.ndarray, var: np.ndarray, query: np.ndarray,
                    k: int):
    """Exhaustive k-nearest under the diagonal variance-scaled metric.

    Returns (squared distances, indices) sorted by (distance, index).
    """
    deltas = ((points - query) ** 2 / var).sum(axis=1)
    order = sorted(range(len(points)), key=lambda i: (deltas[i], i))[:k]
    return deltas[order], np.array(order)


def kdtree_knn(points: np.ndarray, var: np.ndarray, queries: np.ndarray,
               k: int):
    """k nearest under the diagonal variance-scaled metric through scipy's
    cKDTree, each row ordered by (distance, index): (squared distances
    (n, k), indices (n, k)), the squares taken of the tree's distances."""
    from scipy.spatial import cKDTree

    scale = 1.0 / np.sqrt(var)
    m = len(points)
    dist, idx = cKDTree(points * scale).query(queries * scale, k=m)
    dist, idx = dist.reshape(len(queries), m), idx.reshape(len(queries), m)
    order = np.lexsort((idx, dist), axis=1)[:, :k]
    rows = np.arange(len(queries))[:, None]
    return dist[rows, order] ** 2, idx[rows, order]


def reference_wknn(labels: np.ndarray, delta: np.ndarray, idx: np.ndarray,
                   eps: float) -> np.ndarray:
    """One row's inverse-distance-weighted mean of its neighbours' labels."""
    w = 1.0 / (delta + eps)
    return (w[:, None] * labels[idx]).sum(axis=0) / w.sum()


def forest_walk(trees, X) -> np.ndarray:
    """Forest prediction from serialized tree dicts, one row and one tree at
    a time: x[f] <= threshold goes left, and leaf means are summed tree by
    tree from 0.0 in plain Python floats, then divided by the tree count."""
    out = []
    for x in np.atleast_2d(X).tolist():
        sx = sy = 0.0
        for tree in trees:
            node = 0
            while tree["feature"][node] >= 0:
                f = tree["feature"][node]
                if x[f] <= tree["threshold"][node]:
                    node = tree["left"][node]
                else:
                    node = tree["right"][node]
            sx += tree["leaf_xy"][node][0]
            sy += tree["leaf_xy"][node][1]
        out.append((sx / len(trees), sy / len(trees)))
    return np.array(out)


def _reference_split(X, Y, idx, features, min_leaf):
    """Scan candidate features one at a time for the threshold minimizing
    the summed per-coordinate child SSE; returns (cost, feature, threshold)."""
    best = None
    n = len(idx)
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        ys = Y[idx][order]
        csum = np.cumsum(ys, axis=0)
        csq = np.cumsum(ys * ys, axis=0)
        tot, totsq = csum[-1], csq[-1]
        pos = np.arange(1, n)
        nl = pos.astype(float)
        nr = (n - pos).astype(float)
        sse_l = (csq[:-1] - csum[:-1] ** 2 / nl[:, None]).sum(axis=1)
        sse_r = ((totsq - csq[:-1])
                 - (tot - csum[:-1]) ** 2 / nr[:, None]).sum(axis=1)
        cost = sse_l + sse_r
        valid = ((xs_s[1:] > xs_s[:-1]) & (pos >= min_leaf)
                 & (n - pos >= min_leaf))
        if not valid.any():
            continue
        cost = np.where(valid, cost, np.inf)
        j = int(np.argmin(cost))  # first minimum wins ties
        if best is None or cost[j] < best[0]:
            a, b = xs_s[j], xs_s[j + 1]
            thr = a + (b - a) / 2.0
            if not (a <= thr < b):  # adjacent floats: keep split non-empty
                thr = a
            best = (float(cost[j]), int(f), float(thr))
    return best


def reference_forest(X, Y, n_trees, max_depth, max_features, min_leaf, seed):
    """Tree dicts as train_rf grows them, with the same random draws: tree t
    seeds a generator with (seed, t), draws its bootstrap, then one feature
    subset per splittable node in preorder. Each node sorts the rows it holds
    (in bootstrap order) by each candidate feature, stably."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m, d = X.shape
    mtry = min(max_features or int(math.ceil(math.sqrt(d))), d)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        boot = rng.integers(0, m, size=m)
        tree = {"feature": [], "threshold": [], "left": [], "right": [],
                "leaf_xy": []}

        def build(idx, depth):
            node = len(tree["feature"])
            for name, empty in (("feature", -1), ("threshold", 0.0),
                                ("left", -1), ("right", -1)):
                tree[name].append(empty)
            y = Y[idx]
            mean = y.mean(axis=0)
            tree["leaf_xy"].append([float(mean[0]), float(mean[1])])
            sse = float(((y - mean) ** 2).sum())
            if (len(idx) < 2 * min_leaf or sse <= 1e-12
                    or (max_depth is not None and depth >= max_depth)):
                return node
            cand = rng.choice(d, size=mtry, replace=False)
            split = _reference_split(X, Y, idx, cand, min_leaf)
            if split is None:
                return node
            _, f, thr = split
            mask = X[idx, f] <= thr
            tree["feature"][node] = f
            tree["threshold"][node] = thr
            tree["left"][node] = build(idx[mask], depth + 1)
            tree["right"][node] = build(idx[~mask], depth + 1)
            return node

        build(boot, 0)
        trees.append(tree)
    return trees


def wilcoxon_exhaustive(a, b) -> float:
    """Exact two-sided signed-rank p-value by enumerating all 2^n patterns."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return 1.0
    absd = np.abs(d)
    # average ranks computed from scratch
    ranks = np.empty(n)
    for i in range(n):
        less = np.sum(absd < absd[i])
        equal = np.sum(absd == absd[i])
        ranks[i] = less + (equal + 1) / 2.0
    w_obs = float(ranks[d > 0].sum())
    le = ge = 0
    for signs in itertools.product((0.0, 1.0), repeat=n):
        w = float(np.dot(signs, ranks))
        if w <= w_obs:
            le += 1
        if w >= w_obs:
            ge += 1
    total = 2 ** n
    return min(1.0, 2.0 * min(le / total, ge / total))


def _full_rips_simplices(dist: np.ndarray):
    """All simplices of the complete Rips filtration up to dimension 2,
    sorted by (filtration value, dimension, vertex tuple)."""
    n = len(dist)
    simplices = [((i,), 0.0) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            simplices.append(((i, j), float(dist[i, j])))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                filt = max(dist[i, j], dist[i, k], dist[j, k])
                simplices.append(((i, j, k), float(filt)))
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return simplices


def rips_diagrams_bruteforce(cloud: np.ndarray):
    """H0/H1 diagrams by reducing the complete boundary matrix over Z/2.

    H0 keeps all vertex-edge pairs (one infinite bar dropped); H1 keeps only
    positive-persistence edge-triangle pairs. Returns (h0, h1) arrays sorted
    ascending, matching the library's diagram conventions.
    """
    cloud = np.asarray(cloud, dtype=float)
    dx = cloud[:, 0][:, None] - cloud[:, 0][None, :]
    dy = cloud[:, 1][:, None] - cloud[:, 1][None, :]
    dist = np.sqrt(dx * dx + dy * dy)

    simplices = _full_rips_simplices(dist)
    index_of = {verts: i for i, (verts, _) in enumerate(simplices)}
    columns = []
    for verts, _ in simplices:
        if len(verts) == 1:
            columns.append(frozenset())
        else:
            facets = itertools.combinations(verts, len(verts) - 1)
            columns.append(frozenset(index_of[f] for f in facets))

    low_to_col: dict[int, int] = {}
    pairs = []
    reduced = list(columns)
    for j in range(len(reduced)):
        col = reduced[j]
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            col = col ^ reduced[other]
        reduced[j] = col
        if col:
            low = max(col)
            low_to_col[low] = j
            pairs.append((low, j))

    h0, h1 = [], []
    for i, j in pairs:
        birth = simplices[i][1]
        death = simplices[j][1]
        dim = len(simplices[i][0]) - 1
        if dim == 0:
            h0.append((birth, death))
        elif dim == 1 and death > birth:
            h1.append((birth, death))
    h0.sort()
    h1.sort()
    return (np.array(h0, dtype=float).reshape(-1, 2),
            np.array(h1, dtype=float).reshape(-1, 2))


def _reference_distances(cloud: np.ndarray) -> np.ndarray:
    dx = cloud[:, 0][:, None] - cloud[:, 0][None, :]
    dy = cloud[:, 1][:, None] - cloud[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def reference_mst_weights(dist: np.ndarray) -> np.ndarray:
    """Prim's algorithm on one complete graph; returns sorted edge weights."""
    n = len(dist)
    best = dist[0].copy()
    best[0] = np.inf
    weights = np.empty(n - 1)
    for k in range(n - 1):
        j = int(np.argmin(best))
        weights[k] = best[j]
        best[j] = np.inf
        np.minimum(best, dist[j], out=best, where=np.isfinite(best))
    weights.sort()
    return weights


def reference_h1_pairs(dist: np.ndarray) -> list[tuple[float, float]]:
    """Reduce triangle columns over edge rows of one cloud (Z/2), with
    edges enumerated row by row and sorted as (weight, i, j) tuples,
    triangles as (filtration, i, j, k) tuples, columns as frozensets."""
    n = len(dist)
    if n < 3:
        return []
    enclosing = float(np.min(np.max(dist + np.diag(np.full(n, -np.inf)), axis=1)))

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = dist[i, j]
            if w <= enclosing:
                edges.append((w, i, j))
    edges.sort()
    edge_rank = {(i, j): r for r, (_, i, j) in enumerate(edges)}
    edge_weight = [w for w, _, _ in edges]

    triangles = []
    for i in range(n):
        for j in range(i + 1, n):
            dij = dist[i, j]
            if dij > enclosing:
                continue
            for k in range(j + 1, n):
                filt = max(dij, dist[i, k], dist[j, k])
                if filt <= enclosing:
                    triangles.append((filt, i, j, k))
    triangles.sort()

    low_to_col: dict[int, frozenset] = {}
    pairs = []
    for filt, i, j, k in triangles:
        col = frozenset((edge_rank[(i, j)], edge_rank[(i, k)],
                         edge_rank[(j, k)]))
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            col = col ^ other
        if col:
            low = max(col)
            low_to_col[low] = col
            birth = edge_weight[low]
            if filt > birth:
                pairs.append((birth, filt))
    pairs.sort()
    return pairs


def reference_vr_persistence(cloud: np.ndarray):
    """(h0, h1) of one planar cloud through the reference helpers."""
    cloud = np.asarray(cloud, dtype=float)
    dist = _reference_distances(cloud)
    h0 = np.column_stack([np.zeros(len(cloud) - 1),
                          reference_mst_weights(dist)])
    h1 = np.array(reference_h1_pairs(dist), dtype=float).reshape(-1, 2)
    return h0, h1


def _reference_entropy(lengths: np.ndarray) -> float:
    lengths = lengths[lengths > 0]
    total = lengths.sum()
    if lengths.size == 0 or total <= 0:
        return 0.0
    p = lengths / total
    return float(-(p * np.log(p)).sum())


def reference_features(f_norm) -> np.ndarray:
    """[count_h0, entropy_h0, count_h1, entropy_h1] of one vector's curve
    {(i, f_i)}, i from 1, through the reference helpers."""
    f = np.asarray(f_norm, dtype=float)
    cloud = np.column_stack([np.arange(1, f.size + 1, dtype=float), f])
    h0, h1 = reference_vr_persistence(cloud)
    pe0 = _reference_entropy(h0[:, 1] - h0[:, 0]) if h0.size else 0.0
    pe1 = _reference_entropy(h1[:, 1] - h1[:, 0]) if h1.size else 0.0
    return np.array([len(h0), pe0, len(h1), pe1], dtype=float)


def reference_systematic_resample(particles, weights, rng) -> np.ndarray:
    """Stride resampling by binary search of the positions u + k/m in the
    cumulative weights (last entry forced to 1.0), clipped to m - 1."""
    m = len(particles)
    positions = (rng.uniform(0.0, 1.0 / m) + np.arange(m) / m)
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, positions, side="right")
    return particles[np.minimum(idx, m - 1)]


def reference_pf_step(particles, weights, z, r, tau, predict_sigma, rng):
    """One out-of-place particle-filter cycle; returns (particles, weights,
    degenerate), drawing from rng in the library's order."""
    m = len(particles)
    particles = particles + rng.normal(0.0, predict_sigma, size=m)
    logw = -((particles - z) ** 2) / (2.0 * r)
    weights = weights * np.exp(logw - logw.max())
    total = weights.sum()
    degenerate = False
    if total <= 0.0 or not np.isfinite(total):
        weights = np.full(m, 1.0 / m)
        degenerate = True
    else:
        weights = weights / total
    if 1.0 / float(weights @ weights) < tau * m:
        particles = reference_systematic_resample(particles, weights, rng)
        weights = np.full(m, 1.0 / m)
    return particles, weights, degenerate


def reference_masses(x, y, centroids, alpha, theta_discount) -> np.ndarray:
    """Singleton masses of one point: the softmax of -alpha * distance to
    each centroid, scaled by 1 - theta_discount."""
    delta = np.hypot(centroids[:, 0] - x, centroids[:, 1] - y)
    logits = -alpha * delta
    logits -= logits.max()
    w = np.exp(logits)
    return (1.0 - theta_discount) * w / w.sum()


def reference_dempster(s1, theta1, s2, theta2):
    """Dempster's rule on one pair of singleton masses with frame masses
    theta1 and theta2: (fused singletons, fused frame, conflict K); the
    fusion is None when K reaches 1."""
    dot = float(s1 @ s2)
    conflict = float(s1.sum()) * float(s2.sum()) - dot
    if conflict >= 1.0 - 1e-12:
        return None, None, conflict
    fused = s1 * s2 + s1 * theta2 + theta1 * s2
    theta = theta1 * theta2
    total = fused.sum() + theta
    return fused / total, theta / total, conflict


def reference_point(singleton, centroids, mode) -> tuple[float, float]:
    """The argmax cell's centroid, or the mass-weighted mean of centroids."""
    if mode == "argmax_centroid":
        j = int(np.argmax(singleton))
        return float(centroids[j, 0]), float(centroids[j, 1])
    out = (singleton / singleton.sum()) @ centroids
    return float(out[0]), float(out[1])


def reference_fuse_rows(pred_rf, pred_knn, centroids, alpha, theta_discount,
                        mode):
    """The per-row DST loop: for each row, both sources' masses, Dempster's
    rule and the point. Returns (points, fused singletons, fused frames), or
    ("conflict", K) for the first row in total conflict."""
    points, masses, thetas = [], [], []
    for (x1, y1), (x2, y2) in zip(np.asarray(pred_rf).tolist(),
                                  np.asarray(pred_knn).tolist()):
        fused, theta, conflict = reference_dempster(
            reference_masses(x1, y1, centroids, alpha, theta_discount),
            theta_discount,
            reference_masses(x2, y2, centroids, alpha, theta_discount),
            theta_discount)
        if fused is None:
            return "conflict", conflict
        points.append(reference_point(fused, centroids, mode))
        masses.append(fused)
        thetas.append(theta)
    return np.array(points).reshape(-1, 2), masses, thetas


def reference_nearest_distances(points, centroids) -> np.ndarray:
    """Distance from each point to its nearest centroid, one row at a time."""
    return np.array([np.hypot(centroids[:, 0] - x, centroids[:, 1] - y).min()
                     for x, y in np.asarray(points).tolist()])


def reference_synth_radio_map(spec):
    """The survey synthesis one sample at a time: each RP's jitter, then the
    anchors, then one d-vector of shadowing per sample, RP by RP.

    Returns (rss, xy, rp, anchors) as arrays.
    """
    rng = np.random.default_rng(spec.seed)
    b = spec.bounds
    d = spec.n_wifi + spec.n_ble
    n_cols = max(1, math.ceil(math.sqrt(spec.n_rp * b.width / b.height)))
    n_rows = math.ceil(spec.n_rp / n_cols)
    cw, ch = b.width / n_cols, b.height / n_rows
    rp_pos = []
    for idx in range(spec.n_rp):
        r, c = divmod(idx, n_cols)
        cx = b.x_min + (c + 0.5) * cw
        cy = b.y_min + (r + 0.5) * ch
        jx, jy = rng.uniform(-0.3, 0.3, size=2)
        rp_pos.append((min(max(cx + jx * cw, b.x_min), b.x_max),
                       min(max(cy + jy * ch, b.y_min), b.y_max)))
    anchors = np.column_stack([rng.uniform(b.x_min, b.x_max, size=d),
                               rng.uniform(b.y_min, b.y_max, size=d)])
    rss, xy, rp = [], [], []
    for rp_id, (x, y) in enumerate(rp_pos):
        dist = np.maximum(np.hypot(anchors[:, 0] - x, anchors[:, 1] - y), 1e-3)
        mean_rss = spec.tx_power_dbm - 10.0 * spec.path_loss_exp * np.log10(dist)
        for _ in range(spec.samples_per_rp):
            noise = rng.normal(0.0, spec.shadowing_std_dbm, size=d)
            rss.append(np.clip(mean_rss + noise, -120.0, 0.0))
            xy.append((float(x), float(y)))
            rp.append(rp_id)
    return np.array(rss), np.array(xy), np.array(rp, dtype=int), anchors


def _reference_groups(rp_ids) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, rp in enumerate(rp_ids):
        groups.setdefault(int(rp), []).append(i)
    return groups


def reference_stratified_split(rp_ids, ratios, seed):
    """The per-RP shuffle-and-cut split over a sample loop: (train, val,
    test) sorted index lists."""
    rng = np.random.default_rng(seed)
    groups = _reference_groups(rp_ids)
    parts = ([], [], [])
    for rp_id in sorted(groups):
        idx = np.array(groups[rp_id])
        idx = idx[rng.permutation(len(idx))]
        n = len(idx)
        n_val = int(math.floor(n * ratios[1]))
        n_test = int(math.floor(n * ratios[2]))
        if n_val < 1 or n_test < 1:
            raise ValueError(
                f"RP {rp_id} has {n} samples; ratios {ratios} leave an "
                "empty validation or test share")
        parts[1].extend(idx[:n_val].tolist())
        parts[2].extend(idx[n_val:n_val + n_test].tolist())
        parts[0].extend(idx[n_val + n_test:].tolist())
    return tuple(sorted(p) for p in parts)


def reference_fold_assignment(rp_ids, folds, seed) -> np.ndarray:
    """Round-robin folds after a per-RP seeded shuffle, over a sample loop."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(rp_ids), dtype=int)
    groups = _reference_groups(rp_ids)
    for rp in sorted(groups):
        idx = np.array(groups[rp])
        if len(idx) < 2:
            raise ValueError(f"RP {rp} has {len(idx)} sample(s); "
                             "cross-validation folds are infeasible")
        fold_of[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % folds
    return fold_of


def reference_radio_map_csv(rss, xy, rp, n_wifi, n_ble) -> str:
    """The survey CSV written one sample at a time, floats as repr."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["rp_id", "x", "y"] + [f"wifi_{i + 1}" for i in range(n_wifi)]
                    + [f"ble_{i + 1}" for i in range(n_ble)])
    for i in range(len(rp)):
        writer.writerow([int(rp[i]), repr(float(xy[i, 0])), repr(float(xy[i, 1]))]
                        + [repr(float(v)) for v in rss[i]])
    return out.getvalue()
