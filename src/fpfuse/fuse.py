"""Evidence-theoretic fusion of the two regressors on a discretized floor.

Each regressor's point estimate induces a basic belief assignment over grid
cells: singleton masses are a softmax of negative scaled distances to the cell
centroids, with a configurable slice of mass reserved for the full frame
(ignorance). Two assignments combine under Dempster's rule; the fused belief
yields either the argmax-cell centroid or the belief-weighted centroid as a
point estimate, plus an exportable belief map.

The DST math runs once, on blocks of N rows over the S cells:
centroid_distances, singleton_masses, combine_masses and weighted_centroids
each take or return (N, S) arrays, and the one-row functions (bba_from_point,
dempster_combine, weighted_centroid, confidence) are their N = 1 case. Row
sums along the last axis of a C-ordered block are the pairwise sums of the
row alone, the conflict and the weighted centroid keep a dot product per row,
so a block equals its rows fused one at a time bit for bit.

Confidence scores in [0, 1] feed a two-source Choquet integral whose fuzzy
measure is fitted on validation data by box-constrained least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Bounds, Position


class ConflictError(ValueError):
    """Dempster combination is undefined: the sources totally contradict."""


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Row-major square-cell tiling of the floor rectangle."""

    bounds: Bounds
    h: float
    centroids: np.ndarray  # (S, 2), row-major from (x_min, y_min)
    n_rows: int
    n_cols: int

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "centroids", arr)

    @property
    def n_cells(self) -> int:
        return len(self.centroids)


def make_grid(bounds: Bounds, h: float) -> GridSpec:
    """Tile the floor with cells of width h; partial border cells keep their
    true (clipped) centers so every centroid stays inside the bounds."""
    if h <= 0:
        raise ValueError("cell width must be positive")
    n_cols = max(1, math.ceil(bounds.width / h))
    n_rows = max(1, math.ceil(bounds.height / h))
    xs = []
    for c in range(n_cols):
        right = min((c + 1) * h, bounds.width)
        xs.append(bounds.x_min + (c * h + right) / 2.0)
    ys = []
    for r in range(n_rows):
        top = min((r + 1) * h, bounds.height)
        ys.append(bounds.y_min + (r * h + top) / 2.0)
    cx, cy = np.meshgrid(xs, ys)  # row-major: y varies slowest
    centroids = np.column_stack([cx.ravel(), cy.ravel()])
    return GridSpec(bounds, h, centroids, n_rows, n_cols)


@dataclass(frozen=True, eq=False)
class Bba:
    """Mass over the S cell singletons plus the full frame."""

    singleton: np.ndarray
    theta_mass: float

    def __post_init__(self):
        arr = np.asarray(self.singleton, dtype=float)
        if np.any(arr < 0) or self.theta_mass < 0:
            raise ValueError("masses must be non-negative")
        if abs(arr.sum() + self.theta_mass - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "singleton", arr)


def centroid_distances(points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(N, S) block: the distance from each of N points, an (N, 2) array, to
    every cell centroid."""
    points = np.asarray(points, dtype=float)
    return np.hypot(grid.centroids[:, 0] - points[:, 0:1],
                    grid.centroids[:, 1] - points[:, 1:2])


def nearest_centroid_distance(points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(N,) distance from each point to its nearest cell centroid."""
    return centroid_distances(points, grid).min(axis=1)


def singleton_masses(dist: np.ndarray, alpha: float,
                     theta_discount: float) -> np.ndarray:
    """(N, S) singleton masses of bba_from_point for each of N points, from
    their centroid_distances block (left as it is, so one block can serve
    several alphas); the frame of every row keeps theta_discount."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= theta_discount < 1.0:
        raise ValueError("theta_discount must lie in [0, 1)")
    logits = -alpha * dist
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits, out=logits)
    return (1.0 - theta_discount) * w / w.sum(axis=1, keepdims=True)


def combine_masses(s1: np.ndarray, theta1: float, s2: np.ndarray,
                   theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """Dempster's rule on N row pairs of (N, S) singleton masses whose frames
    hold theta1 and theta2: (fused singletons (N, S), fused frame (N,)).

    Raises ConflictError for the first row whose conflict reaches 1.
    """
    if s1.shape[-1] != s2.shape[-1]:
        raise ValueError("assignments live on different grids")
    dot = np.matmul(s1[:, None, :], s2[:, :, None])[:, 0, 0]  # a ddot per row
    conflict = s1.sum(axis=1) * s2.sum(axis=1) - dot  # mass on empty sets
    total_conflict = conflict >= 1.0 - 1e-12
    if total_conflict.any():
        k = conflict[np.argmax(total_conflict)]  # the first row in conflict
        raise ConflictError(f"total conflict between sources (K = {k:.15f})")
    fused = s1 * s2 + s1 * theta2 + theta1 * s2
    theta = theta1 * theta2
    total = fused.sum(axis=1) + theta
    return fused / total[:, None], theta / total


def weighted_centroids(singleton: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(N, 2) singleton-mass-weighted means of the cell centroids, one gemv
    per row (a single (N, S) @ (S, 2) product may round differently)."""
    w = singleton / singleton.sum(axis=1, keepdims=True)
    return np.matmul(w[:, None, :], grid.centroids)[:, 0, :]


def bba_from_point(r_hat: Position, grid: GridSpec, alpha: float,
                   theta_discount: float = 0.05) -> Bba:
    """Softmax of negative scaled centroid distances, discounted toward the frame.

    theta_discount = 0 reproduces the strict reading in which the softmax
    exhausts the mass and the frame keeps none.
    """
    dist = centroid_distances(r_hat.xy[None], grid)
    return Bba(singleton_masses(dist, alpha, theta_discount)[0], theta_discount)


def dempster_combine(m1: Bba, m2: Bba) -> Bba:
    """Conflict-normalized product combination on singletons + frame."""
    fused, theta = combine_masses(m1.singleton[None], m1.theta_mass,
                                  m2.singleton[None], m2.theta_mass)
    return Bba(fused[0], float(theta[0]))


def argmax_belief(m: Bba, grid: GridSpec) -> tuple[int, Position]:
    """Peak singleton cell (lowest index on ties) and its centroid."""
    j = int(np.argmax(m.singleton))
    return j, Position(float(grid.centroids[j, 0]), float(grid.centroids[j, 1]))


def weighted_centroid(m: Bba, grid: GridSpec) -> Position:
    """Singleton-mass-weighted mean of cell centroids (the fused-regression
    reading of the belief map)."""
    return Position(*weighted_centroids(m.singleton[None], grid)[0])


def confidences(points: np.ndarray, grid: GridSpec, beta: float) -> np.ndarray:
    """(N,) exp(-beta * distance to the nearest centroid); 1 on a centroid."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return np.exp(-beta * nearest_centroid_distance(points, grid))


def confidence(r_hat: Position, grid: GridSpec, beta: float) -> float:
    """confidences of one point."""
    return float(confidences(r_hat.xy[None], grid, beta)[0])


@dataclass(frozen=True)
class ChoquetMeasure:
    """Singleton measures of the two sources; the full set has measure 1."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0.0 <= self.mu1 <= 1.0 and 0.0 <= self.mu2 <= 1.0):
            raise ValueError("singleton measures must lie in [0, 1]")


def choquet(s1: float, s2: float, measure: ChoquetMeasure) -> float:
    """Two-source Choquet integral in closed form.

    With ordered scores s_(1) <= s_(2), the integral is
    s_(1) + (s_(2) - s_(1)) * mu({top source}); it always lies between
    min(s1, s2) and max(s1, s2).
    """
    if s1 >= s2:
        lo, span, mu_top = s2, s1 - s2, measure.mu1
    else:
        lo, span, mu_top = s1, s2 - s1, measure.mu2
    return lo + span * mu_top


@dataclass(frozen=True)
class ChoquetFit:
    measure: ChoquetMeasure
    mu1_identifiable: bool
    mu2_identifiable: bool


def fit_choquet_measure(scores: np.ndarray, targets: np.ndarray) -> ChoquetFit:
    """Least-squares fit of the two singleton measures on [0, 1]^2.

    The objective is convex and piecewise-quadratic in each coordinate, so
    projected coordinate descent (exact per-coordinate minimizer, clamped)
    converges; iteration stops once updates fall below 1e-9. A coordinate
    whose rows never order that source on top is non-identifiable and is
    reported as such with the neutral value 0.5.
    """
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != 2 or len(scores) < 2:
        raise ValueError("need an (N, 2) score matrix with N >= 2")
    if targets.shape != (len(scores),):
        raise ValueError("need one target per score row")

    s1, s2 = scores[:, 0], scores[:, 1]
    top1 = s1 > s2  # rows where source 1 holds the larger score
    top2 = s2 > s1

    def coordinate_min(mask, hi, lo):
        span = hi[mask] - lo[mask]
        denom = float(span @ span)
        if denom <= 0:
            return None
        return float(span @ (targets[mask] - lo[mask])) / denom

    mu = np.array([0.5, 0.5])
    identifiable = [top1.any(), top2.any()]
    for _ in range(100):
        prev = mu.copy()
        for c, (mask, hi, lo) in enumerate(((top1, s1, s2), (top2, s2, s1))):
            if not identifiable[c]:
                continue
            opt = coordinate_min(mask, hi, lo)
            if opt is not None:
                mu[c] = min(1.0, max(0.0, opt))
        if np.abs(mu - prev).max() < 1e-9:
            break
    return ChoquetFit(ChoquetMeasure(float(mu[0]), float(mu[1])),
                      identifiable[0], identifiable[1])


def convex_combo(r1: Position, r2: Position, lam: float) -> Position:
    """Affine blend lam * r1 + (1 - lam) * r2."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return Position(lam * r1.x + (1.0 - lam) * r2.x,
                    lam * r1.y + (1.0 - lam) * r2.y)


def belief_map_rows(m: Bba, grid: GridSpec) -> list[tuple[int, float, float, float]]:
    return [(j, float(grid.centroids[j, 0]), float(grid.centroids[j, 1]),
             float(m.singleton[j])) for j in range(grid.n_cells)]


def write_belief_csv(m: Bba, grid: GridSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write("cell_index,cx,cy,mass\n")
        for j, cx, cy, mass in belief_map_rows(m, grid):
            fh.write(f"{j},{cx!r},{cy!r},{mass!r}\n")


def write_belief_pgm(m: Bba, grid: GridSpec, path) -> None:
    """8-bit grayscale PGM, rows in grid order (row 0 = y_min edge), masses
    scaled linearly so the peak cell maps to 255."""
    peak = float(m.singleton.max())
    if peak > 0:
        pixels = np.rint(255.0 * m.singleton / peak).astype(int)
    else:
        pixels = np.zeros(grid.n_cells, dtype=int)
    lines = [f"P2", f"{grid.n_cols} {grid.n_rows}", "255"]
    for r in range(grid.n_rows):
        row = pixels[r * grid.n_cols:(r + 1) * grid.n_cols]
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
