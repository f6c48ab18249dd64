"""Coordinate regressors: multi-target CART random forest and weighted kNN.

The forest predicts both coordinates with one set of trees (split quality is
the summed per-coordinate variance reduction). Its trees are packed into one
node table with child indices global to the table, so prediction steps every
(row, tree) pair down together, one vectorized step per depth level, instead
of walking the trees one by one. A tree grows from its bootstrap sorted once
per feature: each split partitions the node's sorted lists stably, so no
node sorts, and one pass scores every split of all candidate features. The
kNN index pre-divides every feature by its channel std so Euclidean search
in the scaled space equals the diagonal Mahalanobis distance; queries go
through an exact kd-tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .datamodel import Position
from .preprocess import ChannelVariances

_PURITY_EPS = 1e-12  # stop splitting once a node's target variance is gone
# (row, tree) pairs per traversal pass: bounds its memory and keeps the
# working arrays in cache (larger passes measured slower per row)
_PAIRS_PER_PASS = 1 << 14


@dataclass(frozen=True)
class RfConfig:
    n_trees: int = 200
    max_depth: int | None = 28
    max_features: int | None = None  # None -> ceil(sqrt(n_features))
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.min_leaf < 1:
            raise ValueError("n_trees and min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")


class Tree(NamedTuple):
    """One tree's node arrays. Children index the tree's own nodes from 0; a
    leaf has feature -1 and children -1 and holds its target mean."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_xy: np.ndarray


def _renumber(children: np.ndarray, shift: int) -> np.ndarray:
    return np.where(children >= 0, children + shift, -1)


@dataclass(frozen=True, eq=False)
class RfModel:
    """A forest packed into one node table.

    Tree t owns nodes offsets[t]:offsets[t + 1] and its root is offsets[t].
    Children are node indices into the whole table, so every (row, tree)
    pair steps down in the same numpy operation.
    """

    config: RfConfig
    n_features: int
    feature: np.ndarray  # (N,) split feature, -1 at a leaf
    threshold: np.ndarray  # (N,) x[feature] <= threshold goes left
    left: np.ndarray  # (N,) table index of the left child, -1 at a leaf
    right: np.ndarray  # (N,)
    leaf_xy: np.ndarray  # (N, 2) target mean of the node's samples
    offsets: np.ndarray  # (T + 1,) first node of each tree, then N

    def __post_init__(self):
        for name in ("feature", "threshold", "left", "right", "leaf_xy",
                     "offsets"):
            getattr(self, name).setflags(write=False)
        n = len(self.feature)
        if not (len(self.offsets) >= 2 and self.offsets[0] == 0
                and self.offsets[-1] == n and self.leaf_xy.shape == (n, 2)
                and len(self.threshold) == len(self.left)
                == len(self.right) == n and np.all(np.diff(self.offsets) > 0)):
            raise ValueError("forest node arrays have inconsistent lengths")
        # children after their node and inside its tree: every descent ends
        node = np.arange(n)
        end = np.repeat(self.offsets[1:], np.diff(self.offsets))
        inner = self.feature >= 0
        bad = np.where(
            inner,
            (self.feature >= self.n_features) | (self.left <= node)
            | (self.left >= end) | (self.right <= node) | (self.right >= end),
            (self.feature != -1) | (self.left != -1) | (self.right != -1))
        if bad.any():
            j = int(np.argmax(bad))
            t = int(np.searchsorted(self.offsets, j, side="right")) - 1
            raise ValueError(
                f"forest tree {t} node {j - self.offsets[t]}: feature "
                f"{self.feature[j]}, children {self.left[j]}, {self.right[j]} "
                f"(table indices); an inner node needs 0 <= feature < "
                f"{self.n_features} and both children after it inside its "
                "tree, a leaf needs feature = left = right = -1")

    @classmethod
    def from_trees(cls, config: RfConfig, n_features: int,
                   trees) -> "RfModel":
        """Pack per-tree node arrays (anything with Tree's fields, in tree
        order) into one table."""
        trees = list(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        sizes = [len(t.feature) for t in trees]
        offsets = np.zeros(len(trees) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        shift = np.repeat(offsets[:-1], sizes)
        chain = itertools.chain.from_iterable

        def column(name, dtype):
            return np.fromiter(chain(getattr(t, name) for t in trees), dtype)

        leaf_xy = np.fromiter(chain(chain(t.leaf_xy for t in trees)), float)
        return cls(config, n_features, column("feature", np.int32),
                   column("threshold", float),
                   _renumber(column("left", np.intp), shift),
                   _renumber(column("right", np.intp), shift),
                   leaf_xy.reshape(-1, 2), offsets)

    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    @property
    def trees(self) -> tuple[Tree, ...]:
        """Per-tree views: read-only slices of the table, with children
        numbered from the tree's root."""
        out = []
        for a, b in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            out.append(Tree(self.feature[a:b], self.threshold[a:b],
                            _renumber(self.left[a:b], -a),
                            _renumber(self.right[a:b], -a),
                            self.leaf_xy[a:b]))
        return tuple(out)

    def prefix(self, t: int) -> "RfModel":
        """The first t trees. Their children all lie below offsets[t], so
        the prefix is a slice of the table."""
        if not 1 <= t <= self.n_trees:
            raise ValueError(f"t must be in [1, {self.n_trees}]")
        end = self.offsets[t]
        return RfModel(replace(self.config, n_trees=t), self.n_features,
                       self.feature[:end], self.threshold[:end],
                       self.left[:end], self.right[:end], self.leaf_xy[:end],
                       self.offsets[:t + 1])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Mean over trees of the leaf each row reaches."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError("query dimension does not match training data")
        out = np.empty((len(X), 2))
        step = max(1, _PAIRS_PER_PASS // self.n_trees)
        for i in range(0, len(X), step):
            out[i:i + step] = self._descend(X[i:i + step])
        return out

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """All (row, tree) pairs descend together, one numpy step per depth
        level over the pairs not yet at a leaf. Leaf values are then summed
        sequentially in tree order from +0.0, exactly as a per-tree loop
        accumulating into zeros would."""
        n, n_trees = len(X), self.n_trees
        flat = X.ravel()
        # pair p is (row p // T, tree p % T); `cur` is the node of each pair
        # in `pair` and `base` the offset of its row in `flat`
        pair = np.arange(n * n_trees)
        cur = np.tile(self.offsets[:-1], n)
        base = np.repeat(np.arange(n) * self.n_features, n_trees)
        node = np.empty_like(cur)  # the leaf each pair ends at
        while len(pair):
            feat = self.feature[cur]
            at_leaf = feat < 0
            if at_leaf.any():
                node[pair[at_leaf]] = cur[at_leaf]
                inner = ~at_leaf
                pair, cur, base, feat = (pair[inner], cur[inner],
                                         base[inner], feat[inner])
            go_right = flat[base + feat] > self.threshold[cur]
            cur = np.where(go_right, self.right[cur], self.left[cur])
        leaves = self.leaf_xy[node].reshape(n, n_trees, 2)
        return (0.0 + np.cumsum(leaves, axis=1)[:, -1]) / n_trees

    def to_dict(self) -> dict:
        return {"n_features": self.n_features,
                "config": {"n_trees": self.config.n_trees,
                           "max_depth": self.config.max_depth,
                           "max_features": self.config.max_features,
                           "min_leaf": self.config.min_leaf,
                           "seed": self.config.seed},
                "trees": [{name: col.tolist()
                           for name, col in zip(Tree._fields, tree)}
                          for tree in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "RfModel":
        trees = [Tree(**t) for t in d["trees"]]
        return cls.from_trees(RfConfig(**d["config"]), d["n_features"], trees)


def _best_split(XbT, YbT, order, cand, min_leaf):
    """Lowest child SSE over all candidate features of one node, in one pass.

    order[f] holds the node's bootstrap positions sorted by feature f, ties by
    position; the first minimum along a feature wins, then the first candidate
    with the strictly smallest one. Returns (feature, threshold) or None."""
    n = order.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf  # split after sorted index j in [lo, hi)
    oc = order[cand]
    xs = XbT[cand[:, None], oc]
    c = np.empty((4, len(cand), n))  # y0, y1, y0*y0, y1*y1, sorted per row
    np.take(YbT, oc, axis=1, out=c[:2])
    np.multiply(c[:2], c[:2], out=c[2:])
    np.cumsum(c, axis=2, out=c)
    s, q = c[:2, :, lo:hi], c[2:, :, lo:hi]  # left sums through index j
    t, u = c[:2, :, -1:], c[2:, :, -1:]  # node totals
    nl = np.arange(lo + 1, hi + 1, dtype=float)
    sse_l = q - s ** 2 / nl  # per coordinate
    sse_r = (u - q) - (t - s) ** 2 / (n - nl)
    cost = (sse_l[0] + sse_l[1]) + (sse_r[0] + sse_r[1])
    cost[xs[:, lo + 1:hi + 1] <= xs[:, lo:hi]] = np.inf  # no gap to split in
    j = cost.argmin(axis=1)
    b = int(cost[np.arange(len(cand)), j].argmin())
    if cost[b, j[b]] == np.inf:
        return None
    a, z = xs[b, lo + j[b]], xs[b, lo + j[b] + 1]
    thr = a + (z - a) / 2.0
    if not (a <= thr < z):  # adjacent floats: keep split non-empty
        thr = a
    return int(cand[b]), float(thr)


def _grow_tree(X, Y, boot, cfg, mtry, rng):
    """Grow one tree on the bootstrap rows, numbering nodes in preorder. A
    node holds `pos`, its bootstrap positions ascending, and `order`, those
    positions sorted per feature; a split compresses `order` stably, so only
    the root sorts, and pending nodes wait on a stack that holds just these."""
    XbT = X[boot].T.copy()  # (d, nb)
    Yb = Y[boot]  # node means add these (nb, 2) rows in position order
    YbT = Yb.T.copy()
    d = len(XbT)
    goes_left = np.empty(len(boot), dtype=bool)  # by position, per split
    feature, threshold, left, right, leaf_xy = [], [], [], [], []
    # (pos, order, depth, parent's child list, parent)
    stack = [(np.arange(len(boot)), np.argsort(XbT, axis=1, kind="stable"),
              0, None, None)]
    while stack:
        pos, order, depth, link, parent = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        y = Yb[pos]
        mean = y.mean(axis=0)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_xy.append((float(mean[0]), float(mean[1])))
        sse = float(((y - mean) ** 2).sum())
        if (len(pos) < 2 * cfg.min_leaf or sse <= _PURITY_EPS
                or (cfg.max_depth is not None and depth >= cfg.max_depth)):
            continue
        cand = rng.choice(d, size=mtry, replace=False)
        split = _best_split(XbT, YbT, order, cand, cfg.min_leaf)
        if split is None:
            continue
        feature[node], threshold[node] = split
        mask = XbT[split[0], pos] <= split[1]
        goes_left[pos] = mask
        go = goes_left[order]
        # the left child is popped next, so its whole subtree precedes the
        # right child in preorder
        stack.append((pos[~mask], order[~go].reshape(d, -1), depth + 1,
                      right, node))
        stack.append((pos[mask], order[go].reshape(d, -1), depth + 1,
                      left, node))
    return Tree(feature, threshold, left, right, leaf_xy)


def train_rf(X: np.ndarray, Y: np.ndarray, config: RfConfig = RfConfig()) -> RfModel:
    """Fit a bootstrap ensemble of multi-target regression trees.

    Tree t draws its bootstrap and its per-node feature subsets from a
    generator seeded by (config.seed, t), so the forest is reproducible and
    independent of training order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need at least 2 training rows")
    if Y.shape != (len(X), 2):
        raise ValueError("targets must be an (M, 2) coordinate matrix")
    m, d = X.shape
    mtry = config.max_features or int(math.ceil(math.sqrt(d)))
    mtry = min(mtry, d)
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(t,)))
        boot = rng.integers(0, m, size=m)
        trees.append(_grow_tree(X, Y, boot, config, mtry, rng))
    return RfModel.from_trees(config, d, trees)


def predict_rf(model: RfModel, x: np.ndarray) -> Position:
    """Unweighted mean of the per-tree leaf means, per coordinate."""
    out = model.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]
    return Position(float(out[0]), float(out[1]))


@dataclass(frozen=True, eq=False)
class KnnIndex:
    """Exact k-nearest index over variance-scaled fingerprints."""

    points: np.ndarray  # unscaled, as given
    labels: np.ndarray  # (M, 2) coordinates
    metric: ChannelVariances
    _scale: np.ndarray = field(repr=False, default=None)
    _tree: cKDTree = field(repr=False, default=None)

    @property
    def m(self) -> int:
        return len(self.points)


def build_knn_index(X: np.ndarray, Y: np.ndarray,
                    metric: ChannelVariances) -> KnnIndex:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.shape != (len(X), 2):
        raise ValueError("need (M, D) points and (M, 2) labels")
    if metric.d != X.shape[1]:
        raise ValueError("metric dimension does not match points")
    scale = 1.0 / np.sqrt(metric.var)
    tree = cKDTree(X * scale)
    return KnnIndex(X, Y, metric, scale, tree)


def query_knn(index: KnnIndex, x: np.ndarray, k: int):
    """Return (squared Mahalanobis distances, indices) of the k nearest points.

    Exact ties are broken toward lower training index; a few extra neighbours
    are fetched so boundary ties resolve deterministically.
    """
    if k < 1 or k > index.m:
        raise ValueError(f"k must be in [1, {index.m}]")
    x = np.asarray(x, dtype=float)
    if x.shape != (index.points.shape[1],):
        raise ValueError("query dimension does not match index")
    kq = min(index.m, k + 16)
    dist, idx = index._tree.query(x * index._scale, k=kq)
    dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
    order = np.lexsort((idx, dist))[:k]
    return dist[order] ** 2, idx[order]


def predict_wknn(index: KnnIndex, x: np.ndarray, k: int,
                 eps: float = 1e-9) -> Position:
    """Inverse-distance-weighted mean of the k nearest labels.

    Weights are 1 / (delta + eps) with delta the squared scaled distance, so a
    coincident neighbour dominates with weight 1/eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta, idx = query_knn(index, x, k)
    w = 1.0 / (delta + eps)
    out = (w[:, None] * index.labels[idx]).sum(axis=0) / w.sum()
    return Position(float(out[0]), float(out[1]))


def predict_wknn_batch(index: KnnIndex, X: np.ndarray, k: int,
                       eps: float = 1e-9) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([predict_wknn(index, x, k, eps).xy for x in X])
