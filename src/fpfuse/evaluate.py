"""Evaluation harness: noise injection, metrics, significance tests,
cross-validated grid search, and the four-variant ablation ladder, plus the
fit and locate steps that fit_pipeline and PredictorSession run as well.

Noise is always injected into copies of test data; training data and source
maps are never touched. Statistics are self-contained: the Wilcoxon test is
exact (full sign-distribution) up to 20 pairs, the paired t CDF comes from a
continued-fraction incomplete beta, and Holm-Bonferroni handles multiplicity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rules
from .datamodel import Position, RadioMap, SplitSpec, stratified_split
from .filters import FilterConfig, filter_stream
from .fuse import (GridSpec, centroid_distances, combine_masses,
                   make_grid, nearest_centroid_distance, singleton_masses,
                   weighted_centroids)
# Not called in this module (fuse_rows runs the (N, S) blocks), but the traced
# benchmark (perfbench/spans.py) wraps these names here, so they stay.
from .fuse import (argmax_belief, bba_from_point,  # noqa: F401
                   dempster_combine, weighted_centroid)
from .preprocess import (NormStats, fit_channel_variances, fit_norm_stats,
                         fit_zscore_stats, normalize_matrix)
from .regress import (KnnIndex, RfConfig, RfModel, build_knn_index,
                      predict_wknn_batch, train_rf)
from .rules import NOISE_KINDS  # noqa: F401 - re-exported
from .topo import features_matrix


def derive_seed(base: int, *keys: int) -> int:
    """Stable per-task seed so parallel order cannot change results."""
    ss = np.random.SeedSequence(base, spawn_key=tuple(int(k) for k in keys))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# noise models (test-time only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """One perturbation condition; unused parameters are ignored per kind."""

    kind: str = "dbm_10pct"
    eta: float = 0.10     # gauss_jitter level
    p: float = 0.02       # bursty per-channel probability
    kappa: float = 2.0    # bursty magnitude multiplier
    level: float = 0.10   # dbm model: fraction of the training std
    seed: int = 123

    def __post_init__(self):  # every field, whatever the kind
        rules.check_fields(self, "NoiseSpec", rules.NOISE)

    @property
    def label(self) -> str:
        if self.kind == "gauss_jitter":
            return f"gauss(eta={self.eta:g})"
        if self.kind == "bursty":
            return f"bursty(p={self.p:g},kappa={self.kappa:g})"
        return f"dbm({100 * self.level:g}%)"


def check_noise_labels(noise, owner: str) -> None:
    """A ladder names each condition by its spec's label, so no two specs
    of owner may share one."""
    labels = [n.label for n in noise]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"{owner} holds two specs labelled {label!r}; "
                             "each condition needs its own label")


def inject_gauss_jitter(z_norm, sigma_hat, eta, rng) -> np.ndarray:
    """Additive Gaussian jitter with per-channel scale eta * sigma_hat."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    z = np.array(z_norm, dtype=float)
    if eta == 0:
        return z
    return z + eta * np.asarray(sigma_hat) * rng.standard_normal(z.shape)


def inject_bursty(z_norm, sigma_hat, p, kappa, rng) -> np.ndarray:
    """With probability p per channel, add kappa * sigma_hat * Laplace(0, 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    z = np.array(z_norm, dtype=float)
    if p == 0:
        return z
    hits = rng.random(z.shape) < p
    out = z + hits * kappa * np.asarray(sigma_hat) * rng.laplace(0.0, 1.0, z.shape)
    return out


def inject_dbm_noise(f_raw_dbm, sigma_train_dbm, level, rng) -> np.ndarray:
    """Raw-dBm Gaussian perturbation, std = level * per-channel training std.

    Applied before normalization and filtering in the pipeline order; the
    default level 0.10 is the "10% noise" condition.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    f = np.array(f_raw_dbm, dtype=float)
    if level == 0:
        return f
    return f + level * np.asarray(sigma_train_dbm) * rng.standard_normal(f.shape)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _as_xy(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return np.atleast_2d(points.astype(float))
    if points and isinstance(points[0], Position):
        return np.array([[p.x, p.y] for p in points])
    return np.atleast_2d(np.asarray(points, dtype=float))


def euclidean_errors(pred, truth) -> np.ndarray:
    p, t = _as_xy(pred), _as_xy(truth)
    if p.shape != t.shape:
        raise ValueError("prediction/truth length mismatch")
    return np.hypot(p[:, 0] - t[:, 0], p[:, 1] - t[:, 1])


def rmse_xy(pred, truth) -> float:
    """Root mean squared Euclidean position error, in metres."""
    err = euclidean_errors(pred, truth)
    if err.size < 1:
        raise ValueError("need at least one sample")
    return float(np.sqrt(np.mean(err ** 2)))


# ---------------------------------------------------------------------------
# significance tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    method: str
    degenerate: bool = False


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sv = values[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # mean of ranks i+1..j+1
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b) -> TestResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped; ties share average ranks. Up to 20 effective
    pairs the p-value is exact (the full distribution of the rank sum over all
    2^n sign assignments, built by convolution); beyond that a normal
    approximation with tie correction and continuity correction is used.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-D samples")
    if len(a) < 5:
        raise ValueError("need at least 5 pairs")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return TestResult(0.0, 1.0, 0, "degenerate", True)
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= 20:
        # distribution over doubled ranks keeps the support integral
        dr = np.rint(2.0 * ranks).astype(np.int64)
        counts = np.zeros(int(dr.sum()) + 1)
        counts[0] = 1.0
        for v in dr:
            shifted = np.zeros_like(counts)
            shifted[v:] = counts[:len(counts) - v]
            counts = counts + shifted
        total = 2.0 ** n
        w2 = int(round(2.0 * w_plus))
        cdf = counts[:w2 + 1].sum() / total
        sf = counts[w2:].sum() / total
        p = min(1.0, 2.0 * min(cdf, sf))
        return TestResult(w_plus, p, n, "exact")
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    dev = w_plus - mu
    z = (dev - 0.5 * np.sign(dev)) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return TestResult(w_plus, p, n, "normal")


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (a * math.log(x) + b * math.log1p(-x)
                - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t; two-sided p is 2 * sf(|t|)."""
    if t < 0:
        return 1.0 - student_t_sf(-t, df)
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def student_t_ppf(q: float, df: float) -> float:
    """Upper quantile by bisection on the analytic CDF (q in (0.5, 1))."""
    if not 0.5 < q < 1.0:
        raise ValueError("q must lie in (0.5, 1)")
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - student_t_sf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def paired_t_test(a, b) -> TestResult:
    """Two-sided paired Student t test on the differences a - b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length samples with N >= 2")
    d = a - b
    n = len(d)
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd <= 0.0:
        return TestResult(math.inf if mean else 0.0,
                          0.0 if mean else 1.0, n, "degenerate", True)
    t = mean / (sd / math.sqrt(n))
    p = min(1.0, 2.0 * student_t_sf(abs(t), n - 1))
    return TestResult(t, p, n, "t")


@dataclass(frozen=True, eq=False)
class HolmResult:
    adjusted: np.ndarray  # in the input order, clamped to 1
    reject: np.ndarray    # bool, step-down decisions at alpha
    alpha: float


def holm_bonferroni(pvals, alpha: float = 0.05) -> HolmResult:
    """Step-down Holm adjustment; adjusted p-values are monotone by design."""
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1 or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted_sorted = np.empty(m)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p[idx])
        adjusted_sorted[rank] = min(1.0, running)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return HolmResult(adjusted, adjusted < alpha, alpha)


def confidence_interval(values, level: float = 0.95):
    """Mean +/- t-quantile * sd / sqrt(n); returns (mean, halfwidth)."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least two values")
    q = 0.5 + level / 2.0
    half = student_t_ppf(q, len(v) - 1) * v.std(ddof=1) / math.sqrt(len(v))
    return float(v.mean()), float(half)


# ---------------------------------------------------------------------------
# shared pipeline pieces: CV, the ablation ladder, fit_pipeline and the
# predictor session all run these
# ---------------------------------------------------------------------------

class StageError(RuntimeError):
    """Wraps a pipeline failure with the name of the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), any exception raised again as StageError(name)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - rewrap with stage context
        raise StageError(name, exc) from exc


def ph_augment(x: np.ndarray, ph_stats: NormStats | None,
               ph: np.ndarray | None = None) -> np.ndarray:
    """Rows of x with their z-scored PH descriptors appended (ph holds the
    descriptors when they are already computed); x itself when ph_stats is
    None, the plain feature space."""
    if ph_stats is None:
        return x
    if ph is None:
        ph = features_matrix(x)
    return np.hstack([x, (ph - ph_stats.mu) / ph_stats.sigma])


def locate(x: np.ndarray, ph_stats: NormStats | None, rf: RfModel,
           knn: KnnIndex, k: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The forest's and the weighted kNN's positions, (N, 2) each, for N
    filtered rows x in the feature space fit_split built."""
    x = ph_augment(x, ph_stats)
    return rf.predict_batch(x), predict_wknn_batch(knn, x, min(k, knn.m), eps)


def filter_streams_by_rp(matrix: np.ndarray, rp_ids: np.ndarray,
                         cfg: FilterConfig) -> np.ndarray:
    """Filter each RP's consecutive samples as one temporal stream.

    PF streams get a per-RP generator derived from (cfg.seed, rp_id) so the
    result is independent of RP evaluation order.
    """
    out = np.empty_like(np.asarray(matrix, dtype=float))
    rp_ids = np.asarray(rp_ids)
    for rp in np.unique(rp_ids):
        rows = np.nonzero(rp_ids == rp)[0]
        cfg_rp = cfg
        if cfg.method == "pf":
            cfg_rp = replace(cfg, seed=derive_seed(cfg.seed, int(rp)))
        out[rows] = filter_stream(matrix[rows], cfg_rp)
    return out


def fuse_rows(pred_rf: np.ndarray, pred_knn: np.ndarray, grid: GridSpec,
              alpha: float, theta_discount: float,
              mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dempster-combine the two sources' cell masses for N rows of (N, 2)
    positions and read a point off each fused mass: (points (N, 2), fused
    singletons (N, S), fused frame masses (N,))."""
    dist = centroid_distances(np.concatenate([pred_rf, pred_knn]), grid)
    return _fuse_distances(dist, grid, alpha, theta_discount, mode)


def _fuse_distances(dist: np.ndarray, grid: GridSpec, alpha: float,
                    theta_discount: float, mode: str):
    """fuse_rows from the (2N, S) centroid distances of the rf rows followed
    by the knn rows."""
    n = len(dist) // 2
    masses = singleton_masses(dist, alpha, theta_discount)
    fused, theta = combine_masses(masses[:n], theta_discount, masses[n:],
                                  theta_discount)
    if mode == "argmax_centroid":
        return grid.centroids[np.argmax(fused, axis=1)], fused, theta
    if mode == "belief_weighted":
        return weighted_centroids(fused, grid), fused, theta
    raise ValueError(f"unknown dst point mode {mode!r}")


def _check_finite(*points) -> None:
    """Like a Position, every coordinate must be finite."""
    if not all(np.isfinite(p).all() for p in points):
        raise ValueError("position coordinates must be finite")


def fuse_points_batch(pred_rf: np.ndarray, pred_knn: np.ndarray,
                      grid: GridSpec, alpha: float, theta_discount: float,
                      mode: str) -> np.ndarray:
    """The fused (N, 2) points of fuse_rows; like a Position, each input and
    output coordinate must be finite."""
    _check_finite(pred_rf, pred_knn)
    points = fuse_rows(pred_rf, pred_knn, grid, alpha, theta_discount, mode)[0]
    _check_finite(points)
    return points


def select_alpha(pred_rf, pred_knn, truth_xy, grid, alpha_grid,
                 theta_discount, mode) -> float:
    """Pick the distance scale minimizing fused RMSE (first on ties). Every
    alpha fuses fuse_points_batch's points from one distance block."""
    _check_finite(pred_rf, pred_knn)
    dist = centroid_distances(np.concatenate([pred_rf, pred_knn]), grid)
    best_alpha, best_rmse = None, math.inf
    for alpha in alpha_grid:
        fused = _fuse_distances(dist, grid, alpha, theta_discount, mode)[0]
        _check_finite(fused)
        r = rmse_xy(fused, truth_xy)
        if r < best_rmse:
            best_alpha, best_rmse = alpha, r
    return float(best_alpha)


def median_min_centroid_distance(preds_xy: np.ndarray, grid: GridSpec) -> float:
    return float(np.median(nearest_centroid_distance(preds_xy, grid)))


def fit_split(train: RadioMap, val: RadioMap, cfg, seed: int, spaces,
              alpha: float | None = None) -> dict:
    """Calibrate one split, the step fit_pipeline and the ladder share; cfg
    is a PipelineConfig or an AblationConfig.

    The training rows give the normalization stats, the channel variances
    and the filter bound to them (PF seed derived from seed), which runs
    over the validation rows as RP streams. Returns {"stats", "variances",
    "fcfg", "grid", "spaces"}; per feature space (name, use_ph, forest seed
    key), spaces[name] is (ph_stats, rf, knn, val_rf, val_knn, alpha): the
    PH z-score stats (None without use_ph), forest and kNN index, their
    positions on the filtered validation rows, and the DST scale (alpha when
    given, else select_alpha's pick)."""
    raw = train.rss_matrix()
    stats = stage("normalize", fit_norm_stats, raw, cfg.norm_mode)
    xtr = normalize_matrix(raw, stats)
    variances = stage("variances", fit_channel_variances, xtr)
    fcfg = replace(cfg.filter, r=variances.var, seed=derive_seed(seed, 101))
    grid = make_grid(train.bounds, cfg.cell_width)
    xval_f = filter_streams_by_rp(normalize_matrix(val.rss_matrix(), stats),
                                  val.rp_ids(), fcfg)
    ytr, yval = train.xy_matrix(), val.xy_matrix()

    fitted = {}
    for name, use_ph, key in spaces:
        ph_stats, ph = None, None
        if use_ph:
            ph = stage("ph-features", features_matrix, xtr)
            ph_stats = fit_zscore_stats(ph)
        features = ph_augment(xtr, ph_stats, ph)
        metric = stage("metric", fit_channel_variances, features)
        rf = stage("train-rf", train_rf, features, ytr,
                   RfConfig(cfg.n_trees, cfg.max_depth,
                            seed=derive_seed(seed, key)))
        knn = stage("index-knn", build_knn_index, features, ytr, metric)
        p_rf, p_knn = locate(xval_f, ph_stats, rf, knn, cfg.k, cfg.eps)
        scale = alpha
        if scale is None:
            scale = stage("select-alpha", select_alpha, p_rf, p_knn, yval,
                          grid, cfg.alpha_grid, cfg.theta_discount,
                          cfg.dst_point_mode)
        fitted[name] = (ph_stats, rf, knn, p_rf, p_knn, scale)
    return {"stats": stats, "variances": variances, "fcfg": fcfg,
            "grid": grid, "spaces": fitted}


# ---------------------------------------------------------------------------
# cross-validated grid search (Table-style per-component sweep)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchGrids:
    """Candidate values per searched field: a non-empty tuple of values the
    FilterConfig or fit field of its name accepts (alpha: alpha_grid's)."""

    gamma: tuple = (0.25, 0.5, 1.0)
    n_particles: tuple = (5_000, 10_000, 20_000)
    ess_tau: tuple = (0.3, 0.5)
    k: tuple = (3, 5, 7, 9)
    n_trees: tuple = (100, 200, 400)
    max_depth: tuple = (16, 24, 28, None)
    alpha: tuple = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    cell_width: tuple = (0.5, 0.75, 1.0)

    def __post_init__(self):
        for name, values in vars(self).items():
            rules.check("SearchGrids", name, values, rules.GRID)
            for value in values:
                if name in rules.FILTER:
                    try:
                        FilterConfig(**{name: value})
                    except ValueError as exc:
                        raise ValueError(f"SearchGrids.{name}: {exc}") from exc
                else:  # alpha holds alpha_grid's values
                    rules.check("SearchGrids", f"{name} values", value,
                                rules.FIT.get(name, rules.POSITIVE))


@dataclass(frozen=True)
class SelectedParams:
    filter_method: str
    gamma: float
    n_particles: int
    ess_tau: float
    k: int
    n_trees: int
    max_depth: int | None
    alpha: float
    cell_width: float
    tables: dict = field(default_factory=dict, compare=False)


def _fold_assignment(rmap: RadioMap, folds: int, seed: int) -> np.ndarray:
    """Round-robin folds within each RP after a seeded shuffle, so every RP
    appears in the training side of every fold."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(rmap.n_samples, dtype=int)
    for rp, idx in rmap.rp_rows():
        if len(idx) < 2:
            raise ValueError(f"RP {rp} has {len(idx)} sample(s); "
                             "cross-validation folds are infeasible")
        perm = rng.permutation(len(idx))
        fold_of[idx[perm]] = np.arange(len(idx)) % folds
    return fold_of


def _argmin_first(pairs):
    """(config, mean_rmse) list -> config of the strictly lowest mean,
    keeping the earliest grid entry on ties."""
    best_cfg, best = None, math.inf
    for cfg, value in pairs:
        if value < best:
            best_cfg, best = cfg, value
    return best_cfg


PROBE_K = 7  # neighbours of the kNN probe that scores the filter sweep


def cv_grid_search(train: RadioMap, grids: SearchGrids = SearchGrids(),
                   folds: int = 5, seed: int = 0,
                   filter_cfg: FilterConfig = FilterConfig(),
                   norm_mode: str = "dbm_zscore", theta_discount: float = 0.05,
                   dst_point_mode: str = "belief_weighted") -> SelectedParams:
    """Sequential per-component sweep: filters, then regressors, then fusion,
    each scored by mean fold RMSE with earlier winners held fixed.

    The filter sweep varies the swept fields of the user's filter_cfg (gamma
    for KF/UKF, n_particles and ess_tau for PF) and keeps the others, such
    as predict_sigma. It needs a regressor before any has been selected; it
    uses a weighted-kNN probe with PROBE_K neighbours.
    """
    filter_method = filter_cfg.method
    fold_of = _fold_assignment(train, folds, seed)
    raw = train.rss_matrix()
    xy = train.xy_matrix()
    rp = train.rp_ids()

    fold_ctx = []
    for f in range(folds):
        tr = fold_of != f
        va = ~tr
        if va.sum() == 0:
            continue
        stats = fit_norm_stats(raw[tr], norm_mode)
        xtr = normalize_matrix(raw[tr], stats)
        xva = normalize_matrix(raw[va], stats)
        variances = fit_channel_variances(xtr)
        fold_ctx.append({"tr": tr, "va": va, "stats": stats, "xtr": xtr,
                         "xva": xva, "var": variances,
                         "index": build_knn_index(xtr, xy[tr], variances)})

    def candidate(gamma, n_particles, ess_tau, ctx):
        return replace(filter_cfg, gamma=gamma, n_particles=n_particles,
                       ess_tau=ess_tau, r=ctx["var"].var,
                       seed=derive_seed(seed, 7))

    tables: dict[str, list] = {}

    # --- filters ---
    if filter_method in ("kf", "ukf"):
        combos = [(g, grids.n_particles[0], grids.ess_tau[0])
                  for g in grids.gamma]
    elif filter_method == "pf":
        combos = [(grids.gamma[0], mp, tau)
                  for mp in grids.n_particles for tau in grids.ess_tau]
    else:
        combos = [(grids.gamma[0], grids.n_particles[0], grids.ess_tau[0])]
    scored = []
    for combo in combos:
        fold_rmse = []
        for ctx in fold_ctx:
            cfg = candidate(*combo, ctx)
            xva_f = filter_streams_by_rp(ctx["xva"], rp[ctx["va"]], cfg)
            index = ctx["index"]
            pred = predict_wknn_batch(index, xva_f, min(PROBE_K, index.m))
            fold_rmse.append(rmse_xy(pred, xy[ctx["va"]]))
        scored.append((combo, float(np.mean(fold_rmse))))
    tables["filter"] = scored
    gamma, n_particles, ess_tau = _argmin_first(scored)

    # cache filtered validation features under the winning filter
    for ctx in fold_ctx:
        cfg = candidate(gamma, n_particles, ess_tau, ctx)
        ctx["xva_f"] = filter_streams_by_rp(ctx["xva"], rp[ctx["va"]], cfg)

    # --- regressors: k for wKNN, (n_trees, depth) for the forest ---
    # per-fold validation predictions of every regressor setting, kept for
    # the fusion sweep
    knn_preds, rf_preds = {}, {}
    scored = []
    for k in grids.k:
        knn_preds[k] = [predict_wknn_batch(ctx["index"], ctx["xva_f"],
                                           min(k, ctx["index"].m))
                        for ctx in fold_ctx]
        fold_rmse = [rmse_xy(pred, xy[ctx["va"]])
                     for ctx, pred in zip(fold_ctx, knn_preds[k])]
        scored.append((k, float(np.mean(fold_rmse))))
    tables["knn_k"] = scored
    k_best = _argmin_first(scored)

    scored = []
    for t in grids.n_trees:
        for depth in grids.max_depth:
            rf_preds[t, depth] = [
                train_rf(ctx["xtr"], xy[ctx["tr"]],
                         RfConfig(t, depth, seed=derive_seed(seed, 11, i))
                         ).predict_batch(ctx["xva_f"])
                for i, ctx in enumerate(fold_ctx)]
            fold_rmse = [rmse_xy(pred, xy[ctx["va"]])
                         for ctx, pred in zip(fold_ctx, rf_preds[t, depth])]
            scored.append(((t, depth), float(np.mean(fold_rmse))))
    tables["rf"] = scored
    n_trees_best, depth_best = _argmin_first(scored)

    # --- fusion: alpha and cell width on the fused estimate ---
    per_fold_preds = list(zip(rf_preds[n_trees_best, depth_best],
                              knn_preds[k_best]))
    scored = []
    for h in grids.cell_width:
        grid = make_grid(train.bounds, h)
        for alpha in grids.alpha:
            fold_rmse = []
            for ctx, (p_rf, p_knn) in zip(fold_ctx, per_fold_preds):
                fused = fuse_points_batch(p_rf, p_knn, grid, alpha,
                                          theta_discount, dst_point_mode)
                fold_rmse.append(rmse_xy(fused, xy[ctx["va"]]))
            scored.append(((alpha, h), float(np.mean(fold_rmse))))
    tables["fusion"] = scored
    alpha_best, h_best = _argmin_first(scored)

    return SelectedParams(filter_method, float(gamma), int(n_particles),
                          float(ess_tau), int(k_best), int(n_trees_best),
                          depth_best, float(alpha_best), float(h_best), tables)


# ---------------------------------------------------------------------------
# ablation ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationConfig:
    ratios: tuple = (0.70, 0.15, 0.15)
    n_splits: int = 1
    base_seed: int = 0
    filter: FilterConfig = field(default_factory=FilterConfig)
    k: int = 7
    eps: float = 1e-9
    n_trees: int = 200
    max_depth: int | None = 28
    alpha_grid: tuple = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    cell_width: float = 0.5
    theta_discount: float = 0.05
    dst_point_mode: str = "belief_weighted"
    noise: tuple = (NoiseSpec(),)
    norm_mode: str = "dbm_zscore"

    def __post_init__(self):
        rules.check_fields(self, "AblationConfig", rules.ABLATION)
        check_noise_labels(self.noise, "AblationConfig.noise")


def variant_names(filter_method: str) -> tuple[str, str, str, str]:
    f = filter_method.upper()
    return (f"{f}+RF", f"{f}+RF+KNN+DST", f"{f}+PH+RF", f"{f}+PH+RF+KNN+DST")


@dataclass
class EvalReport:
    """Ablation results: per-variant RMSE per condition and split, per-sample
    errors on the first split, significance tests, and split-level intervals."""

    variants: tuple
    conditions: tuple
    n_splits: int
    rmse: dict                 # variant -> condition -> [per-split rmse]
    per_sample_errors: dict    # variant -> condition -> list (split 0)
    p_values: dict             # family -> condition -> {raw, adjusted, reject}
    ci: dict                   # variant -> condition -> {mean, half, lo, hi}
    dst_mode_rmse: dict        # variant -> condition -> mode -> [per-split]
    runtime: dict
    config: dict

    def rmse_values(self, variant: str, condition: str) -> np.ndarray:
        return np.asarray(self.rmse[variant][condition], dtype=float)

    def mean_rmse(self, variant: str, condition: str) -> float:
        return float(self.rmse_values(variant, condition).mean())

    def csv_rows(self):
        rows = [("variant", "condition", "split", "rmse")]
        for v in self.variants:
            for c in self.conditions:
                for s, r in enumerate(self.rmse[v][c]):
                    rows.append((v, c, s, r))
        return rows

    def to_json_dict(self) -> dict:
        return {"variants": list(self.variants),
                "conditions": list(self.conditions),
                "n_splits": self.n_splits,
                "rmse": self.rmse,
                "per_sample_errors": self.per_sample_errors,
                "p_values": self.p_values,
                "ci": self.ci,
                "dst_mode_rmse": self.dst_mode_rmse,
                "runtime": self.runtime,
                "config": self.config}


def _evaluate_condition(models, sigma_dbm, test, cfg: AblationConfig,
                        noise: NoiseSpec | None):
    """Per-variant error vectors for one (possibly perturbed) test pass of a
    split fit_split calibrated; sigma_dbm is its training dBm std."""
    stats = models["stats"]
    raw = test.rss_matrix()
    if noise is not None and noise.kind == "dbm_10pct":
        raw = inject_dbm_noise(raw, sigma_dbm, noise.level,
                               np.random.default_rng(noise.seed))
    x = normalize_matrix(raw, stats)
    if noise is not None and noise.kind != "dbm_10pct":
        sigma_hat = np.sqrt(models["variances"].var)
        rng = np.random.default_rng(noise.seed)
        if noise.kind == "gauss_jitter":
            x = inject_gauss_jitter(x, sigma_hat, noise.eta, rng)
        else:
            x = inject_bursty(x, sigma_hat, noise.p, noise.kappa, rng)
    x_f = filter_streams_by_rp(x, test.rp_ids(), models["fcfg"])
    truth = test.xy_matrix()

    errors = {}
    modes_rmse = {}
    names = variant_names(cfg.filter.method)
    for (rf_only, full), space in (((names[0], names[1]), "plain"),
                                   ((names[2], names[3]), "aug")):
        ph_stats, rf, knn, _, _, alpha = models["spaces"][space]
        p_rf, p_knn = locate(x_f, ph_stats, rf, knn, cfg.k, cfg.eps)
        errors[rf_only] = euclidean_errors(p_rf, truth)
        per_mode = {}
        for mode in ("belief_weighted", "argmax_centroid"):
            fused = fuse_points_batch(p_rf, p_knn, models["grid"], alpha,
                                      cfg.theta_discount, mode)
            per_mode[mode] = euclidean_errors(fused, truth)
        errors[full] = per_mode[cfg.dst_point_mode]
        modes_rmse[full] = {m: rmse_xy_from_errors(e)
                            for m, e in per_mode.items()}
    return errors, modes_rmse


def rmse_xy_from_errors(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(err) ** 2)))


def run_ablation_ladder(data: RadioMap, cfg: AblationConfig = AblationConfig()) -> EvalReport:
    """Evaluate the four-variant ladder under every configured condition.

    Conditions are the clean pass plus each noise spec; splits repeat the whole
    protocol with seeds derived from the base seed. Significance (full variant
    vs the filtered-forest baseline) is computed on the per-sample errors of
    the first split and Holm-adjusted across conditions.
    """
    t0 = time.perf_counter()
    names = variant_names(cfg.filter.method)
    conditions = ("clean",) + tuple(n.label for n in cfg.noise)
    noise_by_label = {n.label: n for n in cfg.noise}

    rmse: dict = {v: {c: [] for c in conditions} for v in names}
    per_sample: dict = {v: {} for v in names}
    dst_modes: dict = {v: {c: {} for c in conditions}
                       for v in (names[1], names[3])}
    runtime = {"fit": 0.0, "evaluate": 0.0}

    for split_id in range(cfg.n_splits):
        seed = derive_seed(cfg.base_seed, split_id)
        train, val, test = stage("split", stratified_split, data,
                                 SplitSpec(cfg.ratios, seed))
        t_fit = time.perf_counter()
        models = fit_split(train, val, cfg, seed,
                           (("plain", False, 1), ("aug", True, 2)))
        sigma_dbm = train.rss_matrix().std(axis=0)
        runtime["fit"] += time.perf_counter() - t_fit

        t_eval = time.perf_counter()
        for cond in conditions:
            noise = noise_by_label.get(cond)
            errors, modes = _evaluate_condition(models, sigma_dbm, test, cfg,
                                                noise)
            for v in names:
                rmse[v][cond].append(rmse_xy_from_errors(errors[v]))
                if split_id == 0:
                    per_sample[v][cond] = [float(e) for e in errors[v]]
            for v, per_mode in modes.items():
                for mode, value in per_mode.items():
                    dst_modes[v][cond].setdefault(mode, []).append(value)
        runtime["evaluate"] += time.perf_counter() - t_eval

    # significance: full pipeline vs baseline, first split, per condition
    p_values: dict = {"wilcoxon": {}, "paired_t": {}}
    raw_w, raw_t = [], []
    for cond in conditions:
        base = np.asarray(per_sample[names[0]][cond])
        full = np.asarray(per_sample[names[3]][cond])
        raw_w.append(wilcoxon_signed_rank(full, base).p_value)
        raw_t.append(paired_t_test(full, base).p_value)
    for family, raws in (("wilcoxon", raw_w), ("paired_t", raw_t)):
        holm = holm_bonferroni(raws)
        for i, cond in enumerate(conditions):
            p_values[family][cond] = {"raw": float(raws[i]),
                                      "adjusted": float(holm.adjusted[i]),
                                      "reject": bool(holm.reject[i])}

    ci: dict = {}
    if cfg.n_splits >= 2:
        for v in names:
            ci[v] = {}
            for c in conditions:
                mean, half = confidence_interval(rmse[v][c])
                ci[v][c] = {"mean": mean, "half": half,
                            "lo": mean - half, "hi": mean + half}

    runtime["total"] = time.perf_counter() - t0
    config_snapshot = {"ratios": list(cfg.ratios), "n_splits": cfg.n_splits,
                       "base_seed": cfg.base_seed,
                       "filter": cfg.filter.choices(),
                       "k": cfg.k, "n_trees": cfg.n_trees,
                       "max_depth": cfg.max_depth,
                       "alpha_grid": list(cfg.alpha_grid),
                       "cell_width": cfg.cell_width,
                       "theta_discount": cfg.theta_discount,
                       "dst_point_mode": cfg.dst_point_mode,
                       "norm_mode": cfg.norm_mode,
                       "noise": [vars(n).copy() for n in cfg.noise]}
    return EvalReport(names, conditions, cfg.n_splits, rmse, per_sample,
                      p_values, ci, dst_modes, runtime, config_snapshot)
