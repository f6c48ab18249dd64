"""Independent brute-force oracles used to cross-check the library.

Each oracle re-implements the mathematics from first principles with the
slowest, most transparent algorithm available, sharing no code path with the
implementation under test: an exhaustive scan for kNN, full enumeration of
sign assignments for the Wilcoxon distribution, reduction of the complete
boundary matrix for Rips persistence, and a row-by-row, tree-by-tree node
walk for the random forest.
"""

from __future__ import annotations

import itertools

import numpy as np


def brute_force_knn(points: np.ndarray, var: np.ndarray, query: np.ndarray,
                    k: int):
    """Exhaustive k-nearest under the diagonal variance-scaled metric.

    Returns (squared distances, indices) sorted by (distance, index).
    """
    deltas = ((points - query) ** 2 / var).sum(axis=1)
    order = sorted(range(len(points)), key=lambda i: (deltas[i], i))[:k]
    return deltas[order], np.array(order)


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
