"""Per-sample topological descriptors from a Vietoris-Rips filtration.

A normalized fingerprint f in R^d is embedded as the planar curve
{(i, f_i)}_{i=1..d}. Connected-component structure (H0) comes from the
single-linkage minimum spanning tree: one finite bar (0, w) per MST edge.
Loops (H1) come from Z/2 boundary-matrix reduction of triangle columns over
edge rows, with the complex capped at the enclosing radius
min_i max_j dist(i, j) past which no one-dimensional class survives.

Each diagram is summarized by its pair count and its persistence entropy
(Shannon entropy of normalized bar lengths, natural log).

features_matrix computes the descriptors of all rows at once: one
(N, n, n) distance stack, Prim's algorithm stepping every row together, and
edge and triangle index tables cached per cloud size. In each row, edges are
ranked by (weight, i, j) and triangles reduced in (filtration, i, j, k)
order. A triangle column is an int with one bit per edge rank, so its pivot
is the highest set bit and adding a column is XOR; this reduction is the
only per-row loop. features_for_vector is the one-row case, and
vr_persistence runs the same helpers on one arbitrary cloud.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .preprocess import NormStats

MAX_CLOUD = 64  # complexity guard: the Rips complex grows as O(n^3) triangles


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Finite (birth, death) pairs for H0 and H1, each sorted ascending."""

    h0: np.ndarray  # (k, 2); births all zero, deaths = MST edge weights
    h1: np.ndarray  # (m, 2); positive-persistence loop pairs

    def __post_init__(self):
        for name in ("h0", "h1"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1, 2)
            if arr.size and (np.any(arr[:, 1] < arr[:, 0]) or np.any(arr < 0)):
                raise ValueError(f"{name}: need 0 <= birth <= death")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def embed_curve(f_norm: np.ndarray) -> np.ndarray:
    """Lift a d-vector to the d planar points (i, f_i), i starting at 1."""
    f = np.asarray(f_norm, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-D vector with at least 2 entries")
    return np.column_stack([np.arange(1, f.size + 1, dtype=float), f])


def _distance_stack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(N, n, n) Euclidean distances of N clouds given as (N, n) coordinate
    arrays (or (1, n), shared by every cloud)."""
    dx = xs[:, :, None] - xs[:, None, :]
    dy = ys[:, :, None] - ys[:, None, :]
    return np.sqrt(dx * dx + dy * dy)


@functools.lru_cache(maxsize=8)
def _simplex_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (i, j), i < j, and triangles (i, j, k), i < j < k, in
    lexicographic order: (edge rows, edge columns, (3, T) edge indices of
    each triangle's edges ij, ik, jk, one row per edge)."""
    rows, cols = np.triu_indices(n, 1)
    edge_id = np.zeros((n, n), dtype=np.intp)
    edge_id[rows, cols] = np.arange(len(rows))
    tri = np.array(list(itertools.combinations(range(n), 3)),
                   dtype=np.intp).reshape(-1, 3)
    tri_edges = np.stack([edge_id[tri[:, 0], tri[:, 1]],
                          edge_id[tri[:, 0], tri[:, 2]],
                          edge_id[tri[:, 1], tri[:, 2]]])
    for arr in (rows, cols, tri_edges):
        arr.setflags(write=False)
    return rows, cols, tri_edges


@functools.lru_cache(maxsize=8)
def _rank_bits(n_edges: int) -> np.ndarray:
    """1 << r for each edge rank r, read-only: uint64 while the ranks fit
    in 64 bits, Python ints past that."""
    out = np.array([1 << r for r in range(n_edges)],
                   dtype=np.uint64 if n_edges <= 64 else object)
    out.setflags(write=False)
    return out


def _mst_weights(dist: np.ndarray) -> np.ndarray:
    """Prim's algorithm on every complete graph of an (N, n, n) stack at
    once; returns each row's edge weights sorted, (N, n - 1)."""
    N, n = dist.shape[:2]
    rows = dist.reshape(N * n, n)  # row i*n + j is cloud i's vertex j
    start = np.arange(0, N * n, n)
    best = dist[:, 0].copy()
    best[:, 0] = np.inf
    flat = best.reshape(-1)
    weights = np.empty((n - 1, N))
    for k in range(n - 1):
        j = best.argmin(axis=1)
        j += start
        flat.take(j, out=weights[k])
        flat[j] = np.inf
        np.minimum(best, rows.take(j, axis=0), out=best,
                   where=np.isfinite(best))
    weights = weights.T.copy()
    weights.sort(axis=1)
    return weights


def _h1_pairs(dist: np.ndarray) -> list[list[tuple[float, float]]]:
    """Reduce triangle boundary columns over edge rows (Z/2 coefficients)
    for every cloud of an (N, n, n) stack; one sorted pair list per cloud."""
    N, n = dist.shape[:2]
    if n < 3:
        return [[] for _ in range(N)]
    # the zero diagonal never exceeds a distance, so it leaves each max as is
    enclosing = dist.max(axis=2).min(axis=1)

    e_rows, e_cols, tri_edges = _simplex_tables(n)
    E, T = len(e_rows), tri_edges.shape[1]
    w = dist[:, e_rows, e_cols]  # (N, E) in (i, j) order
    e_at = np.argsort(w, axis=1, kind="stable")  # (weight, i, j) order
    if N > 1:  # flat indices, row by row
        e_at += np.arange(0, N * E, E)[:, None]
    births = w.reshape(-1)[e_at]  # edge weights by rank
    rank_bits = _rank_bits(E)
    edge_bits = np.empty((N, E), dtype=rank_bits.dtype)
    edge_bits.reshape(-1)[e_at] = rank_bits

    # (N, T) in (i, j, k) order; a max over a middle axis of 3 compares
    # three (N, T) slices
    filt = w.take(tri_edges, axis=1).max(axis=1)
    t_at = np.argsort(filt, axis=1, kind="stable")  # (filtration, i, j, k)
    if N > 1:
        t_at += np.arange(0, N * T, T)[:, None]
    filt = filt.reshape(-1)[t_at]
    tri_bits = edge_bits.take(tri_edges, axis=1)
    columns = (tri_bits[:, 0] | tri_bits[:, 1] | tri_bits[:, 2]).reshape(
        -1)[t_at]
    n_capped = (filt <= enclosing[:, None]).sum(axis=1).tolist()

    out = []
    for r, cap in enumerate(n_capped):
        birth = births[r].tolist()
        low_to_col: dict[int, int] = {}
        pairs = []
        for f, col in zip(filt[r, :cap].tolist(), columns[r, :cap].tolist()):
            while col:
                low = col.bit_length() - 1  # the pivot: the latest edge
                other = low_to_col.get(low)
                if other is None:
                    low_to_col[low] = col
                    if f > birth[low]:  # zero-persistence pairs are dropped
                        pairs.append((birth[low], f))
                    break
                col ^= other
        pairs.sort()
        out.append(pairs)
    return out


def vr_persistence(cloud: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the Rips filtration on a small planar cloud."""
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 2 or len(cloud) < 2:
        raise ValueError("need an (n, 2) cloud with n >= 2")
    if len(cloud) > MAX_CLOUD:
        raise ValueError(f"cloud size {len(cloud)} exceeds the {MAX_CLOUD}-point guard")
    dist = _distance_stack(cloud[None, :, 0], cloud[None, :, 1])
    h0 = np.column_stack([np.zeros(len(cloud) - 1), _mst_weights(dist)[0]])
    h1 = np.array(_h1_pairs(dist)[0], dtype=float).reshape(-1, 2)
    return PersistenceDiagram(h0, h1)


def _entropy(lengths: np.ndarray) -> float:
    lengths = lengths[lengths > 0]
    total = lengths.sum()
    if lengths.size == 0 or total <= 0:
        return 0.0
    p = lengths / total
    return float(-(p * np.log(p)).sum())


def _row_entropies(lengths: np.ndarray) -> np.ndarray:
    """_entropy of each row of an (N, k) matrix of positive bar lengths.
    A sum along the last axis of a C-ordered matrix adds each row as a 1-D
    sum does, so each value equals the one-row result bit for bit."""
    total = lengths.sum(axis=1)
    p = lengths / total[:, None]
    return -(p * np.log(p)).sum(axis=1)


def ph_features(diagram: PersistenceDiagram) -> np.ndarray:
    """The descriptor row [count_h0, entropy_h0, count_h1, entropy_h1], (4,);
    zero-length bars do not enter the entropy."""
    pe0 = _entropy(diagram.h0[:, 1] - diagram.h0[:, 0]) if diagram.h0.size else 0.0
    pe1 = _entropy(diagram.h1[:, 1] - diagram.h1[:, 0]) if diagram.h1.size else 0.0
    return np.array([len(diagram.h0), pe0, len(diagram.h1), pe1])


# Rows per pass are capped so that no per-pass array holds more than about
# this many triangles or distances (256 KB of float64). Whole-matrix passes
# were no faster and raised a fit's peak RSS by about 1.5 MB.
_CHUNK_CELLS = 1 << 15


def features_matrix(F_norm: np.ndarray) -> np.ndarray:
    """The four descriptors [count_h0, entropy_h0, count_h1, entropy_h1] of
    every row of a finite (N, d) matrix, as an (N, 4) array.

    Equals ph_features(vr_persistence(embed_curve(row))) row by row, bit for
    bit. On the embedded curve every distance is at least 1 (the points'
    first coordinates differ by whole steps), so no bar has zero length and
    the entropies need no per-row filtering.
    """
    F = np.atleast_2d(np.asarray(F_norm, dtype=float))
    if F.ndim != 2 or F.shape[1] < 2:
        raise ValueError("need rows with at least 2 entries")
    N, n = F.shape
    if n > MAX_CLOUD:
        raise ValueError(f"cloud size {n} exceeds the {MAX_CLOUD}-point guard")
    if not np.isfinite(F).all():
        raise ValueError("topological features need finite values")
    out = np.empty((N, 4))
    out[:, 0] = n - 1
    out[:, 3] = 0.0
    xs = np.arange(1, n + 1, dtype=float)[None, :]  # shared by every row
    step = max(1, _CHUNK_CELLS // max(_simplex_tables(n)[2].shape[1], n * n))
    for lo in range(0, N, step):
        dist = _distance_stack(xs, F[lo:lo + step])
        block = out[lo:lo + step]
        block[:, 1] = _row_entropies(_mst_weights(dist))
        pairs = _h1_pairs(dist)
        block[:, 2] = [len(p) for p in pairs]
        # rows with equally many loops share one entropy pass
        for count in set(map(len, pairs)) - {0}:
            rows = [r for r, p in enumerate(pairs) if len(p) == count]
            block[rows, 3] = _row_entropies(np.array(
                [[death - birth for birth, death in pairs[r]] for r in rows]))
    return out


def features_for_vector(f_norm: np.ndarray) -> np.ndarray:
    """The (4,) descriptor row of one normalized vector: features_matrix's
    one-row case."""
    f = np.asarray(f_norm, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-D vector with at least 2 entries")
    return features_matrix(f[None, :])[0]


def augment(f_norm: np.ndarray, feats: np.ndarray,
            feat_stats: NormStats) -> np.ndarray:
    """Append the z-scored (4,) descriptor row to the normalized vector."""
    if feat_stats.d != 4:
        raise ValueError("feature stats must cover exactly the 4 descriptors")
    z = (np.asarray(feats, dtype=float) - feat_stats.mu) / feat_stats.sigma
    return np.concatenate([np.asarray(f_norm, dtype=float), z])
