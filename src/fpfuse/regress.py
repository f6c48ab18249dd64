"""Coordinate regressors: multi-target CART random forest and weighted kNN.

The forest predicts both coordinates with one set of trees (split quality is
the summed per-coordinate variance reduction). Its trees are packed into one
node table with child indices global to the table, so prediction steps every
(row, tree) pair down together, one vectorized step per depth level, instead
of walking the trees one by one. The steps read a child table, built on the
first prediction, in which a leaf is its own child: a pair at its leaf
stays there, so no level has to drop it from the working arrays. The trees
also grow together: each keeps its own generator, bootstrap and preorder
stack, and one lockstep step pops the next node of every tree, so each tree
draws its candidate features in its own preorder, while the popped nodes'
means, split searches and partitions run in shared numpy passes. A node is
a range of its bootstrap positions, kept ascending; a split search sorts
each candidate feature's (value rank, position) keys, so ties keep
bootstrap order, and scores every split of all candidates of all nodes of a
pass in one padded block.

The kNN index pre-divides every feature by its channel std, so Euclidean
distance in the scaled space is the diagonal Mahalanobis distance, and keeps
the scaled points as a (D, M) matrix. A query is an exact linear scan,
O(M D) per row: a block of rows is answered in passes of bounded size, with
every distance summed in the order scipy's cKDTree sums it (so the results
are bit-equal to a kd-tree query), and neighbours ordered by (distance,
index). At D = 14 a kd-tree prunes little (Weber, Schek & Blott, VLDB
1998), and the scan keeps scipy out of the runtime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import rules
from .datamodel import Position
from .preprocess import ChannelVariances

_PURITY_EPS = 1e-12  # stop splitting once a node's target variance is gone
# (row, tree) pairs per traversal pass: bounds its memory and keeps the
# working arrays in cache (larger passes measured slower per row)
_PAIRS_PER_PASS = 1 << 14
# Growth averages, scores and partitions nodes in passes of at most this many
# block cells: a scoring pass holds about a dozen arrays of this size, 256 KB
# each, and larger passes measured no faster.
_GROW_CELLS = 1 << 15
# At most this many bootstrap positions (trees x rows) grow together; each
# holds an X row index and a slot in its node's range, 12 bytes in all.
_GROW_POSITIONS = 1 << 18
# A kNN pass holds one (dimension, query row, point) block of at most this
# many cells, 512 KB (or one row's block, if larger); passes of 2^14 and
# 2^20 cells measured slower per row.
_KNN_CELLS = 1 << 16


@dataclass(frozen=True)
class RfConfig:
    n_trees: int = 200
    max_depth: int | None = 28
    # candidates per split: None -> ceil(sqrt(n_features)); values above
    # n_features clip to n_features
    max_features: int | None = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        rules.check_fields(self, "RfConfig", rules.RF)


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
    Each tree is numbered in preorder: an inner node's left child is the next
    node. Children are node indices into the whole table, so every (row,
    tree) pair steps down in the same numpy operation.
    """

    config: RfConfig
    n_features: int
    feature: np.ndarray  # (N,) split feature, -1 at a leaf
    threshold: np.ndarray  # (N,) x[feature] <= threshold goes left
    left: np.ndarray  # (N,) table index of the left child, -1 at a leaf
    right: np.ndarray  # (N,)
    leaf_xy: np.ndarray  # (N, 2) target mean of a leaf's samples
    offsets: np.ndarray  # (T + 1,) first node of each tree, then N

    def __post_init__(self):
        """Checks the table; each error names the column it found at fault
        (RfModel.<column> ...)."""
        for name in ("feature", "threshold", "left", "right", "leaf_xy",
                     "offsets"):
            getattr(self, name).setflags(write=False)
        n, off = len(self.feature), self.offsets
        if not (off.ndim == 1 and len(off) >= 2 and off[0] == 0
                and off[-1] == n and np.all(np.diff(off) > 0)):
            raise ValueError("RfModel.offsets must rise from 0 to the node "
                             f"count {n} in steps of at least 1")
        for name in ("feature", "threshold", "left", "right", "leaf_xy"):
            shape = (n, 2) if name == "leaf_xy" else (n,)
            if getattr(self, name).shape != shape:
                raise ValueError(f"RfModel.{name} has shape "
                                 f"{getattr(self, name).shape}, expected "
                                 f"{shape} (one row per node)")
        # preorder: the left child next, the right child after it and inside
        # the tree, so every descent ends
        node = np.arange(n)
        end = np.repeat(off[1:], np.diff(off))
        inner = self.feature >= 0
        bad = {"feature": np.where(inner, self.feature >= self.n_features,
                                   self.feature != -1),
               "left": np.where(inner, self.left != node + 1, self.left != -1),
               "right": np.where(inner, (self.right <= node + 1)
                                 | (self.right >= end), self.right != -1)}
        any_bad = bad["feature"] | bad["left"] | bad["right"]
        if any_bad.any():
            j = int(np.argmax(any_bad))
            name = next(name for name, b in bad.items() if b[j])
            t = int(np.searchsorted(off, j, side="right")) - 1
            raise ValueError(
                f"RfModel.{name} is out of range at forest tree {t} node "
                f"{j - off[t]}: feature {self.feature[j]}, children "
                f"{self.left[j]}, {self.right[j]} (table indices); an inner "
                f"node needs 0 <= feature < {self.n_features}, its left "
                "child next to it and its right child after that inside its "
                "tree (preorder), a leaf needs feature = left = right = -1")

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

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The descent's child table, split features and depth, built on the
        first predict (a loaded or sliced model that never predicts never
        pays for it).

        children[2 i + 1] is node i's right child and children[2 i] its left
        one; a leaf's are the leaf itself, so a (row, tree) pair that has
        reached its leaf stays there whatever its comparison says. feature
        is the feature column again. Both hold intp entries, which numpy
        indexes with as they are, so no level casts: 16 bytes per node for
        the child table and 8 for the features. depth is the most steps any
        root takes to a leaf.
        """
        node = np.arange(len(self.feature))
        inner = self.feature >= 0
        children = np.empty((len(node), 2), dtype=np.intp)
        children[:, 0] = np.where(inner, self.left, node)
        children[:, 1] = np.where(inner, self.right, node)
        children = children.ravel()
        feature = self.feature.astype(np.intp)
        for table in (children, feature):
            table.setflags(write=False)
        frontier, depth = self.offsets[:-1], 0
        while len(frontier := frontier[inner[frontier]]):
            frontier = np.concatenate([self.left[frontier],
                                       self.right[frontier]])
            depth += 1
        return children, feature, depth

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """All (row, tree) pairs descend together, one numpy step per depth
        level of the forest, through the tables of _walk: no pair leaves
        the working arrays, since one at a leaf steps to itself. Leaf
        values are then summed sequentially in tree order from +0.0,
        exactly as a per-tree loop accumulating into zeros would."""
        children, feature, depth = self._walk
        n, n_trees = len(X), self.n_trees
        flat = X.ravel()
        # pair p is (row p // T, tree p % T) and `cur` is its node; `base`
        # is the offset of its row in `flat`, none for one row
        if n == 1:
            cur, base = self.offsets[:-1].copy(), None
        else:
            cur = np.tile(self.offsets[:-1], n)
            base = np.repeat(np.arange(n) * self.n_features, n_trees)
        for _ in range(depth):
            # a leaf's feature -1 reads some value of X: either way it
            # stays put
            col = feature[cur]
            if base is not None:
                col += base
            go_right = flat[col] > self.threshold[cur]
            cur += cur
            cur += go_right
            cur = children[cur]
        # take gathers rows of a 2-D array faster than fancy indexing
        leaves = self.leaf_xy.take(cur, axis=0).reshape(n, n_trees, 2)
        return (0.0 + np.cumsum(leaves, axis=1)[:, -1]) / n_trees


def _rank_keys(X: np.ndarray) -> np.ndarray:
    """Per feature, each row's rank among the column's distinct values, then
    a column of m for the padding position: (rank, position) sorts a node's
    positions exactly as a stable sort of their values does."""
    m, d = X.shape
    keys = np.empty((d, m + 1), dtype=np.intp)
    for f in range(d):
        keys[f, :m] = np.unique(X[:, f], return_inverse=True)[1]
    keys[:, m] = m
    return keys


def _passes(size: np.ndarray, width: int) -> list[np.ndarray]:
    """Nodes in passes, each pass sorted largest first and padded to its
    first node. A pass holds at most _GROW_CELLS cells of `width` each per
    padded position (or one node), and pads at most as many positions as it
    holds plus a small allowance, so padding stays cheap."""
    order = np.argsort(-size, kind="stable")
    s = size[order].tolist()
    slack = _GROW_CELLS // (8 * width)
    out, i = [], 0
    while i < len(s):
        top, held, j = s[i], s[i], i + 1
        while j < len(s):
            cells = (j - i + 1) * top
            if (cells * width > _GROW_CELLS
                    or cells > 2 * (held + s[j]) + slack):
                break
            held += s[j]
            j += 1
        out.append(order[i:j])
        i = j
    return out


def _padded_columns(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """(nodes, first node's size) columns of each node of a pass; past a
    node's end, -1: the last slot of `pos`, which holds the padding
    position (X row m, zero targets, a key above every real one)."""
    j = np.arange(size[0])
    return np.where(j < size[:, None], start[:, None] + j, -1)


def _node_stats(YT, rows, pos, start, size):
    """Each node's target mean and whether its SSE is at most _PURITY_EPS.

    The mean is y.mean(axis=0) for y = Y[rows[p]], the node's targets in
    position order: a mean along axis 0 of a C-ordered (n, 2) array adds row
    after row to +0.0, as cumsum does along each padded row once +0.0 is
    added to its first entry (which only turns -0.0 into +0.0), then
    divides by n. The SSE is ((y - mean) ** 2).sum(), a pairwise sum. Any
    order of summing the same 2n non-negative terms is within a relative
    (2n - 1) * 2**-53 of the exact sum, so the padded rows' sum decides
    every node but those within a relative n * 2**-40 of the threshold,
    which are summed again as a pairwise sum."""
    mean = np.empty((len(start), 2))
    sse = np.empty(len(start))
    for g in _passes(size, 2):
        n = size[g]
        y = YT.take(rows[pos[_padded_columns(start[g], n)]], axis=1)
        y[:, :, 0] += 0.0
        run = np.cumsum(y, axis=2)
        mean[g] = (run[:, np.arange(len(g)), n - 1] / n).T
        y -= mean[g].T[:, :, None]
        np.square(y, out=y)
        np.copyto(y, 0.0, where=np.arange(n[0]) >= n[:, None])  # padding
        sse[g] = y.sum(axis=(0, 2))
    near = np.abs(sse - _PURITY_EPS) <= size * 2.0 ** -40 * _PURITY_EPS
    for i in np.flatnonzero(near):
        y = YT[:, rows[pos[start[i]:start[i] + size[i]]]].T.copy()
        sse[i] = ((y - mean[i]) ** 2).sum()
    return mean, sse <= _PURITY_EPS


def _best_splits(XT, YT, keys, rows, pos, start, size, cand, min_leaf,
                 shift):
    """Lowest child SSE over the candidate features of each node of a pass,
    all in one padded (4, nodes, candidates, largest size) block.

    Each (node, candidate) row sorts the keys rank << shift | position, so
    its positions come out sorted by value, ties by position, and padding
    last. The block holds y0, y1, y0*y0, y1*y1 in that order; padding
    follows each row's end, so the running sums through a row's own entries
    are bit-equal to an unpadded node's, and costs past a node's last
    allowed split are masked. The first minimum along a feature wins, then
    the first candidate with the strictly smallest one. Returns (feature,
    threshold) per node, feature -1 where no split exists."""
    n_nodes, k = cand.shape
    width = int(size[0])
    n = size[:, None, None]
    lo = min_leaf - 1  # split after sorted index lo + j, j < w
    w = width - 2 * min_leaf + 1
    p = pos[_padded_columns(start, size)]
    key = keys.take(cand[:, :, None] * keys.shape[1] + rows[p][:, None, :])
    key <<= shift
    key |= p[:, None, :]
    key.sort(axis=2)
    rank = key >> shift
    key &= (1 << shift) - 1  # now the sorted positions
    c = np.empty((4,) + key.shape)
    np.take(YT, rows[key], axis=1, out=c[:2], mode="clip")  # unbuffered
    np.multiply(c[:2], c[:2], out=c[2:])
    np.cumsum(c, axis=3, out=c)
    s, q = c[:2, ..., lo:lo + w], c[2:, ..., lo:lo + w]  # left sums through j
    last = np.arange(n_nodes * k).reshape(n_nodes, k) * width + n[:, :, 0] - 1
    total = c.reshape(4, -1).take(last, axis=1)[..., None]  # node totals
    t, u = total[:2], total[2:]
    # cost = (sse_l[0] + sse_l[1]) + (sse_r[0] + sse_r[1]) with, per
    # coordinate, sse_l = q - s ** 2 / nl and sse_r = (u - q) - (t - s) ** 2
    # / nr, each operation in that order
    nl = np.arange(lo + 1, lo + w + 1, dtype=float)
    nr = np.maximum(n - nl, 1.0)  # n - nl >= min_leaf at every allowed split
    sse_l = np.square(s)
    sse_l /= nl
    np.subtract(q, sse_l, out=sse_l)
    sse_r = np.subtract(t, s)
    np.square(sse_r, out=sse_r)
    sse_r /= nr
    np.subtract(u - q, sse_r, out=sse_r)
    cost = sse_l[0] + sse_l[1]
    cost += sse_r[0] + sse_r[1]
    shut = rank[..., lo + 1:lo + w + 1] == rank[..., lo:lo + w]  # no gap
    shut |= np.arange(w) >= n - 2 * min_leaf + 1  # past the node's end
    np.copyto(cost, np.inf, where=shut)
    r = np.arange(n_nodes)
    b = cost.min(axis=2).argmin(axis=1)
    row = cost[r, b]
    j = row.argmin(axis=1)
    f, at = cand[r, b], lo + j
    a, z = XT[f, rows[key[r, b, at]]], XT[f, rows[key[r, b, at + 1]]]
    thr = a + (z - a) / 2.0
    thr = np.where((a <= thr) & (thr < z), thr, a)  # adjacent floats: keep
    return np.where(row[r, j] == np.inf, -1, f), thr  # both sides non-empty


def _partition(XT, rows, pos, start, size, feature, threshold):
    """Split each node's positions stably: those going left first, then the
    rest, each still ascending. Returns the left counts."""
    seg = np.repeat(np.arange(len(start)), size)
    within = np.arange(len(seg)) - np.repeat(np.cumsum(size) - size, size)
    cols = np.repeat(start, size) + within
    p = pos[cols]
    left = XT[feature[seg], rows[p]] <= threshold[seg]
    n_left = np.bincount(seg[left], minlength=len(start))
    into_left = within < n_left[seg]
    pos[cols[into_left]] = p[left]
    pos[cols[~into_left]] = p[~left]
    return n_left


def _grow_trees(XT, YT, keys, cfg, mtry, rngs):
    """Grow trees in lockstep, each numbering its nodes in preorder.

    Tree i owns positions i*m:(i+1)*m, one per bootstrap draw. A node is a
    column range of `pos` holding its positions ascending; a split partitions
    the range stably. Each tree keeps a stack of pending (start, size, depth,
    link) nodes. One step pops the top node of every tree that has one, so
    each tree draws its candidates from its own generator in its own
    preorder, while means, split searches and partitions run for all popped
    nodes together. Returns each step's (trees, links, features, thresholds,
    means) of the popped nodes, and each tree's node count."""
    d, m = XT.shape
    n_trees = len(rngs)
    n_pos = n_trees * m
    shift = n_pos.bit_length()
    dtype = np.int32 if (m << shift | n_pos) < 1 << 31 else np.int64
    # one more position pads node rows: its key sorts after every real one
    rows = np.empty(n_pos + 1, dtype=dtype)  # X row of each position
    for i, rng in enumerate(rngs):
        rows[i * m:(i + 1) * m] = rng.integers(0, m, size=m)
    rows[n_pos] = m
    keys = keys.astype(dtype)
    pos = np.arange(n_pos + 1, dtype=dtype)
    # stack[h, i] is tree i's pending node at height h: (start, size,
    # depth, link), link = 2 * parent + (1 for a right child), -1 at the
    # root. A tree holds at most one pending node per level, plus two.
    stack = np.empty((min(m, cfg.max_depth or m) + 2, n_trees, 4),
                     dtype=np.intp)
    stack[0] = np.column_stack([np.arange(n_trees) * m, np.full(n_trees, m),
                                np.zeros(n_trees, dtype=np.intp),
                                np.full(n_trees, -1)])
    height = np.ones(n_trees, dtype=np.intp)
    count = np.zeros(n_trees, dtype=np.intp)
    steps = []
    while (live := np.flatnonzero(height)).size:
        height[live] -= 1
        start, size, depth, link = stack[height[live], live].T
        node = count[live]
        count[live] += 1
        mean, pure = _node_stats(YT, rows, pos, start, size)
        grow = (size >= 2 * cfg.min_leaf) & ~pure
        if cfg.max_depth is not None:
            grow &= depth < cfg.max_depth
        grow = np.flatnonzero(grow)
        cand = np.empty((len(grow), mtry), dtype=np.intp)
        for r, t in enumerate(live[grow].tolist()):
            cand[r] = rngs[t].choice(d, size=mtry, replace=False)
        feature = np.full(len(live), -1, dtype=np.intp)
        threshold = np.zeros(len(live))
        for g in _passes(size[grow], 4 * mtry):
            i = grow[g]
            feature[i], threshold[i] = _best_splits(
                XT, YT, keys, rows, pos, start[i], size[i], cand[g],
                cfg.min_leaf, shift)
        threshold[feature < 0] = 0.0
        steps.append((live, link, feature, threshold, mean))
        inner = np.flatnonzero(feature >= 0)
        if not inner.size:
            continue
        # a partition pass moves about four arrays of its positions
        n_passes = -(-4 * int(size[inner].sum()) // _GROW_CELLS)
        n_left = np.concatenate([
            _partition(XT, rows, pos, start[i], size[i], feature[i],
                       threshold[i])
            for i in np.array_split(inner, min(n_passes, len(inner)))])
        t, h, below = live[inner], height[live[inner]], depth[inner] + 1
        # the left child is popped next, so its whole subtree precedes the
        # right child in preorder
        stack[h, t] = np.column_stack([start[inner] + n_left,
                                       size[inner] - n_left, below,
                                       2 * node[inner] + 1])
        stack[h + 1, t] = np.column_stack([start[inner], n_left, below,
                                           2 * node[inner]])
        height[t] += 2
    return steps, count


def _pack(steps, count):
    """The node arrays of _grow_trees' steps in tree order, children
    numbered within these trees' table."""
    tree = np.concatenate([s[0] for s in steps])
    o = np.argsort(tree, kind="stable")  # a tree's nodes were popped in order
    tree, link, feature, threshold, leaf_xy = (
        np.concatenate([s[k] for s in steps])[o] for k in range(5))
    first = np.concatenate([[0], np.cumsum(count)[:-1]])
    children = [np.full(len(o), -1, dtype=np.intp) for _ in range(2)]
    child = np.flatnonzero(link >= 0)
    parent = first[tree[child]] + (link[child] >> 1)
    for side, col in enumerate(children):
        on = (link[child] & 1) == side
        col[parent[on]] = child[on]
    return feature, threshold, children[0], children[1], leaf_xy


def train_rf(X: np.ndarray, Y: np.ndarray, config: RfConfig = RfConfig()) -> RfModel:
    """Fit a bootstrap ensemble of multi-target regression trees.

    Tree t draws its bootstrap and its per-node feature subsets from a
    generator seeded by (config.seed, t), so the forest is reproducible and
    independent of training order. Trees grow in lockstep, as many at a time
    as fit in _GROW_POSITIONS bootstrap positions.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need at least 2 training rows")
    if Y.shape != (len(X), 2):
        raise ValueError("targets must be an (M, 2) coordinate matrix")
    if np.isnan(X).any():
        raise ValueError("training features must not be NaN")
    m, d = X.shape
    mtry = config.max_features or int(math.ceil(math.sqrt(d)))
    mtry = min(mtry, d)
    XT, keys = X.T.copy(), _rank_keys(X)
    YT = np.zeros((2, m + 1))  # row m, the padding row, is 0
    YT[:, :m] = Y.T
    per = max(1, _GROW_POSITIONS // m)
    parts, shift = [], 0
    for t0 in range(0, config.n_trees, per):
        rngs = [np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(t,)))
            for t in range(t0, min(t0 + per, config.n_trees))]
        steps, count = _grow_trees(XT, YT, keys, config, mtry, rngs)
        feature, threshold, left, right, leaf_xy = _pack(steps, count)
        del steps
        parts.append((feature, threshold, _renumber(left, shift),
                      _renumber(right, shift), leaf_xy, count))
        shift += len(feature)
    feature, threshold, left, right, leaf_xy, count = (
        np.concatenate(col) for col in zip(*parts))
    leaf_xy[feature >= 0] = 0.0  # prediction reads the means of leaves only
    offsets = np.zeros(len(count) + 1, dtype=np.intp)
    np.cumsum(count, out=offsets[1:])
    return RfModel(config, d, feature.astype(np.int32), threshold, left,
                   right, leaf_xy, offsets)


@dataclass(frozen=True, eq=False)
class KnnIndex:
    """Exact k-nearest index over variance-scaled fingerprints."""

    points: np.ndarray  # unscaled, as given
    labels: np.ndarray  # (M, 2) coordinates
    metric: ChannelVariances
    _scale: np.ndarray = field(repr=False, default=None)
    _scaled_t: np.ndarray = field(repr=False, default=None)  # (D, M) scaled

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
    scaled_t = np.ascontiguousarray((X * scale).T)
    if not np.isfinite(scaled_t).all():
        raise ValueError("knn points must be finite")
    if not np.isfinite(Y).all():
        raise ValueError("knn labels must be finite")
    return KnnIndex(X, Y, metric, scale, scaled_t)


def _distances(points_t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n, M) Euclidean distances from n query rows (n, D) to the points of
    a (D, M) matrix, bit-equal to cKDTree's: the squared differences of
    dimensions j, j + 4, ... add up in four running sums, combined as
    ((a0 + a1) + a2) + a3; the last D mod 4 dimensions add one at a time.
    A sum over the first axis adds its slices in order, one after another,
    so each running sum is one reduction."""
    d = len(points_t)
    sq = points_t[:, None, :] - q.T[:, :, None]  # (D, n, M)
    np.multiply(sq, sq, out=sq)
    full = d - d % 4
    if full:
        groups = sq[:full].reshape(full // 4, 4, *sq.shape[1:])
        s = groups.sum(axis=0).sum(axis=0)
    else:  # no group of four: 0.0 plus the first square is that square
        s, full = sq[0], 1
    for j in range(full, d):
        s += sq[j]
    return np.sqrt(s, out=s)


def _nearest(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest distances and their indices, in (distance,
    index) order: (dist (n, k), idx (n, k))."""
    n = len(dist)
    if n == 1:
        # a stable sort of the candidates, in index order, by distance puts
        # ties at the k-th distance in index order too
        row = dist[0]
        cand = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1])
        idx = cand[np.argsort(row[cand], kind="stable")[:k]]
        return row[idx][None], idx[None]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    keep = dist <= kth
    if np.count_nonzero(keep) > n * k:  # ties at the k-th distance
        below = dist < kth
        tie = dist == kth
        room = k - np.count_nonzero(below, axis=1)
        keep = below | (tie & (np.cumsum(tie, axis=1) <= room[:, None]))
    idx = np.nonzero(keep)[1].reshape(n, k)  # ascending within each row
    rows = np.arange(n)[:, None]
    order = np.argsort(dist[rows, idx], axis=1, kind="stable")
    idx = idx[rows, order]
    return dist[rows, idx], idx


def _query_rows(index: KnnIndex, X: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """(squared scaled distances (n, k), indices (n, k)) of the k nearest
    points of each row of X (n, D), in passes of at most _KNN_CELLS cells."""
    if k < 1 or k > index.m:
        raise ValueError(f"k must be in [1, {index.m}]")
    points_t = index._scaled_t
    d = len(points_t)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError("query dimension does not match index")
    q = X * index._scale
    if not np.isfinite(q).all():
        raise ValueError("knn query must be finite")
    n = len(q)
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    step = max(1, _KNN_CELLS // (d * index.m))
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        dist[part], idx[part] = _nearest(_distances(points_t, q[part]), k)
    return dist ** 2, idx


def query_knn(index: KnnIndex, x: np.ndarray, k: int):
    """Return (squared Mahalanobis distances, indices) of the k nearest points,
    ordered by (distance, index): exact ties go to the lower training index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (index.points.shape[1],):
        raise ValueError("query dimension does not match index")
    delta, idx = _query_rows(index, x[None, :], k)
    return delta[0], idx[0]


def predict_wknn(index: KnnIndex, x: np.ndarray, k: int,
                 eps: float = 1e-9) -> Position:
    """Inverse-distance-weighted mean of the k nearest labels.

    Weights are 1 / (delta + eps) with delta the squared scaled distance, so a
    coincident neighbour dominates with weight 1/eps.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (index.points.shape[1],):
        raise ValueError("query dimension does not match index")
    return Position(*predict_wknn_batch(index, x[None, :], k, eps)[0])


def predict_wknn_batch(index: KnnIndex, X: np.ndarray, k: int,
                       eps: float = 1e-9) -> np.ndarray:
    """predict_wknn for each row of X: (N, 2) positions. Summed over its
    middle axis, the (N, k, 2) block of weighted labels adds each row's
    neighbours in order, as a (k, 2) sum over axis 0 does, and each row of
    the (N, k) weights is summed as a (k,) array is."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    delta, idx = _query_rows(index, X, k)
    w = 1.0 / (delta + eps)
    out = (w[:, :, None] * index.labels[idx]).sum(axis=1)
    out /= w.sum(axis=1)[:, None]
    if not np.isfinite(out).all():
        raise ValueError("position coordinates must be finite")
    return out
