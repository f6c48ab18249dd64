"""End-to-end pipeline: calibration to a JSON artifact, per-scan prediction
and belief maps, and the latency benchmark.

One calibration step, shared by fit and ladder, and one locate step, shared
by fit, ladder and session: evaluate.fit_split calibrates a split
(normalization, filter, the PH stats, forest and kNN index of a feature
space, and the DST scale), and evaluate.locate turns filtered rows into the
two sources' positions. A session keeps the state of the filters'
start_filter/step_filter pair, locates each scan as a batch of one, and fuses
it with the DST step fuse_rows runs (evaluate._fuse_distances), so a streamed
session and the batch evaluation agree bit for bit. A scan's belief map is
the fused DST mass a session keeps on request (keep_bba), written by
write_belief_map.

The artifact stores everything a deployment needs (normalization statistics,
metric variances, filter covariances, the forest's node table, the kNN
points/labels, topological feature statistics, fusion parameters, and the
fitted fuzzy measure) as one versioned JSON document. The bulk arrays (the
node table and the kNN points/labels) are typed binary blobs inside it (see
_pack); every other field is a plain JSON value. The node table keeps only
the entries prediction reads (see _forest_blobs). Loading rebuilds the full
table and the search index and reproduces predictions bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from operator import getitem

import numpy as np

from . import evaluate as ev
from . import rules
from .datamodel import (DBM_CEIL, DBM_FLOOR, DBM_TOL, Bounds, Position,
                        RadioMap, SplitSpec, stratified_split)
from .evaluate import StageError, stage  # noqa: F401 - StageError re-exported
from .filters import (FilterConfig, KfState, PfState, kf_step, pf_noise,
                      pf_step, start_filter, step_filter)
from .fuse import (Bba, ChoquetMeasure, GridSpec, argmax_belief, bba_from_point,
                   centroid_distances, choquet, confidences,
                   confidences_from_distances, convex_combo, dempster_combine,
                   fit_choquet_measure, make_grid, weighted_centroid,
                   write_belief_csv, write_belief_pgm)
from .preprocess import ChannelVariances, NormStats, apply_norm, normalize_matrix
from .regress import KnnIndex, RfConfig, RfModel, build_knn_index, predict_wknn
from .rules import FUSION_MODES  # noqa: F401 - re-exported
from .topo import augment, features_for_vector
# Not called in this module (evaluate.fit_split fits, and a session scores
# both sources from one distance block), but the traced benchmark
# (perfbench/spans.py) wraps these names here, so they stay.
from .fuse import confidence  # noqa: F401
from .preprocess import (fit_channel_variances, fit_norm_stats,  # noqa: F401
                         fit_zscore_stats)
from .regress import train_rf  # noqa: F401
from .topo import features_matrix  # noqa: F401

ARTIFACT_VERSION = "3"


class ArtifactError(ValueError):
    """An artifact that cannot be loaded: an unsupported version, or a field
    (named in the message) that is missing or holds a value out of range."""


@dataclass(frozen=True)
class PipelineConfig:
    """Calibration-time choices for one deployable pipeline."""

    norm_mode: str = "dbm_zscore"
    filter: FilterConfig = field(default_factory=FilterConfig)
    use_ph: bool = True
    k: int = 7
    eps: float = 1e-9
    n_trees: int = 200
    max_depth: int | None = 28
    alpha: float | None = None  # None -> select on validation
    alpha_grid: tuple = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    cell_width: float = 0.5
    theta_discount: float = 0.05
    fusion_mode: str = "dst"
    dst_point_mode: str = "belief_weighted"
    ratios: tuple = (0.70, 0.15, 0.15)
    seed: int = 0
    grids: ev.SearchGrids | None = None  # None skips cross-validated search
    convex_lambda: float = 0.5

    def __post_init__(self):
        rules.check_fields(self, "PipelineConfig", rules.PIPELINE)
        if self.grids is not None and not isinstance(self.grids,
                                                     ev.SearchGrids):
            raise ValueError("PipelineConfig.grids must be None or a "
                             f"SearchGrids, got {self.grids!r}")


@dataclass(frozen=True, eq=False)
class PipelineArtifact:
    version: str
    meta: dict
    config: dict
    norm: NormStats
    variances: ChannelVariances
    filter_cfg: FilterConfig
    rf: RfModel
    knn: KnnIndex
    ph_stats: NormStats | None
    grid: GridSpec
    alpha: float
    beta: float
    theta_discount: float
    measure: ChoquetMeasure
    dst_point_mode: str
    fusion_mode: str
    k: int
    eps: float
    convex_lambda: float

    @property
    def d(self) -> int:
        return self.norm.d


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# The artifact's bulk arrays, each stored as a typed blob (see _pack), with
# the dtype and the number of dimensions a loaded blob must have. Node
# indices are int32: 2**31 nodes would take ~100 GB in memory.
_BLOBS = {"rf.feature": ("<i4", 1), "rf.offsets": ("<i4", 1),
          "rf.right": ("<i4", 1), "rf.threshold": ("<f8", 1),
          "rf.leaf_xy": ("<f8", 2), "knn.points": ("<f8", 2),
          "knn.labels": ("<f8", 2)}


def _pack(arr: np.ndarray) -> dict:
    """An array as a typed blob: its little-endian dtype, its shape and the
    base64 of its C-order bytes. _unpack reverses it bit for bit."""
    arr = np.asarray(arr)
    arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {"dtype": arr.dtype.str, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unpack(name: str, blob) -> np.ndarray:
    """The array that a blob of artifact field `name` holds, in native byte
    order. A blob of a dtype, dimension count or byte length the field does
    not allow, or whose data is not base64, is an ArtifactError naming the
    field."""
    dtype, ndim = _BLOBS[name]

    def bad(why: str) -> ArtifactError:
        return ArtifactError(f"artifact field {name}: {why}")

    if not (isinstance(blob, dict)
            and set(blob) == {"dtype", "shape", "data"}):
        raise bad("must be a {dtype, shape, data} blob")
    if blob["dtype"] != dtype:
        raise bad(f"dtype {blob['dtype']!r} is not {dtype!r}")
    shape = blob["shape"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise bad(f"shape {shape!r} is not {ndim} sizes >= 0")
    if not isinstance(blob["data"], str):
        raise bad("data must be a base64 string")
    try:
        raw = base64.b64decode(blob["data"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise bad(f"data is not valid base64 ({exc})") from exc
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if len(raw) != size:
        raise bad(f"data holds {len(raw)} bytes, shape {shape} of "
                  f"{blob['dtype']} needs {size}")
    arr = np.frombuffer(raw, dtype).reshape(shape)
    return arr.astype(dtype.newbyteorder("="), copy=False)


def _forest_blobs(rf: RfModel) -> dict:
    """The node table as format v3 stores it: the entries prediction reads.
    feature and offsets are whole; right and threshold hold one entry per
    inner node and leaf_xy one row per leaf, in table order. left is not
    stored: in preorder an inner node's left child is the next node."""
    inner = rf.feature >= 0
    return {"feature": _pack(rf.feature.astype(np.int32)),
            "offsets": _pack(rf.offsets.astype(np.int32)),
            "right": _pack(rf.right[inner].astype(np.int32)),
            "threshold": _pack(rf.threshold[inner]),
            "leaf_xy": _pack(rf.leaf_xy[~inner])}


def artifact_to_dict(a: PipelineArtifact) -> dict:
    f, rf = a.filter_cfg, a.rf
    return _jsonable({
        "version": a.version,
        "meta": a.meta,
        "config": a.config,
        "norm": {"mode": a.norm.mode, "mu": a.norm.mu, "sigma": a.norm.sigma,
                 "floored": a.norm.floored.astype(bool)},
        "variances": {"var": a.variances.var, "shrinkage": a.variances.shrinkage},
        "filter": {"method": f.method, "q_gamma": f.gamma, "r": f.r,
                   "pf": {"n_particles": f.n_particles, "ess_tau": f.ess_tau,
                          "predict_sigma": f.predict_sigma, "seed": f.seed}},
        "rf": {"config": asdict(rf.config), "n_features": rf.n_features}
        | _forest_blobs(rf),
        "knn": {"points": _pack(a.knn.points), "labels": _pack(a.knn.labels),
                "var": a.knn.metric.var, "k": a.k, "eps": a.eps},
        "ph_stats": (None if a.ph_stats is None else
                     {"mu": a.ph_stats.mu, "sigma": a.ph_stats.sigma,
                      "floored": a.ph_stats.floored.astype(bool)}),
        "fusion": {"mode": a.fusion_mode, "alpha": a.alpha, "beta": a.beta,
                   "cell_width": a.grid.h, "theta_discount": a.theta_discount,
                   "dst_point_mode": a.dst_point_mode,
                   "bounds": a.grid.bounds.as_tuple(),
                   "measure": {"mu1": a.measure.mu1, "mu2": a.measure.mu2},
                   "convex_lambda": a.convex_lambda},
    })


def _field(name: str, build, *args):
    """build(*args), its ValueError raised again as an ArtifactError that
    names the artifact field the arguments come from."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ArtifactError(f"artifact field {name}: {exc}") from exc


def _finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")


def _full_column(n: int, at: np.ndarray, values: np.ndarray,
                 fill) -> np.ndarray:
    """A column of one entry per node of n: `values` at the node indices
    `at`, `fill` at the others, with the dtype a fit gives the column."""
    dtype = np.intp if values.dtype.kind == "i" else np.float64
    out = np.full((n,) + values.shape[1:], fill, dtype=dtype)
    out[at] = values
    return out


def _forest_from_dict(r: dict) -> RfModel:
    """The rf section as an RfModel, its full node table rebuilt from the
    stored entries (see _forest_blobs); a value it rejects is an
    ArtifactError naming the rf.* field."""
    config = _field("rf.config", lambda c: RfConfig(**c), r["config"])
    feature = _unpack("rf.feature", r["feature"])
    n = len(feature)
    inner, leaves = np.flatnonzero(feature >= 0), np.flatnonzero(feature < 0)
    stored = {}
    for name, shape, per in (("right", (len(inner),), "inner node"),
                             ("threshold", (len(inner),), "inner node"),
                             ("leaf_xy", (len(leaves), 2), "leaf")):
        stored[name] = _unpack(f"rf.{name}", r[name])
        if stored[name].shape != shape:
            raise ArtifactError(f"artifact field rf.{name} has shape "
                                f"{stored[name].shape}, expected {shape}: "
                                f"one entry per {per} of rf.feature")
    columns = {"feature": feature,
               "threshold": _full_column(n, inner, stored["threshold"], 0.0),
               "left": _full_column(n, inner, inner + 1, -1),
               "right": _full_column(n, inner, stored["right"], -1),
               "leaf_xy": _full_column(n, leaves, stored["leaf_xy"], 0.0),
               "offsets": _unpack("rf.offsets", r["offsets"]).astype(np.intp)}
    try:
        return RfModel(config, r["n_features"], **columns)
    except ValueError as exc:  # "RfModel.<column> ..."
        name = str(exc).partition(" ")[0].removeprefix("RfModel.")
        raise ArtifactError(f"artifact field rf.{name}: {exc}") from exc


def artifact_from_dict(d: dict) -> PipelineArtifact:
    if d.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(f"artifact version {d.get('version')!r} is not "
                            f"supported (expected {ARTIFACT_VERSION!r}); "
                            "refit it with `fpfuse fit`")

    def value(key):
        return reduce(getitem, key.split("."), d)

    def check(key, rule):
        section, _, name = key.rpartition(".")
        rules.check(f"artifact field {section}", name, value(key), rule,
                    ArtifactError)

    for key, rule in rules.ARTIFACT.items():  # by its field's rule
        check(key, rule)
    for key, (other, when, rule) in rules.ARTIFACT_WHEN.items():
        if value(other) == when:
            check(key, rules.Rule(f"{rule.text} when {other} is {when!r}",
                                  rule.test))
    fusion, f = d["fusion"], d["filter"]
    norm = NormStats(d["norm"]["mode"], np.array(d["norm"]["mu"]),
                     np.array(d["norm"]["sigma"]),
                     np.array(d["norm"]["floored"], dtype=bool))
    variances = _field("variances.var", ChannelVariances,
                       np.array(d["variances"]["var"]),
                       d["variances"]["shrinkage"])
    # the v1 filter section; its pf keys are the particle fields' names
    filter_cfg = FilterConfig(f["method"], f["q_gamma"], r=np.array(f["r"]),
                              **f["pf"])
    for name, arr in (("norm.sigma", norm.sigma), ("norm.floored", norm.floored),
                      ("variances.var", variances.var),
                      ("filter.r", filter_cfg.r)):
        if np.shape(arr) != (norm.d,):
            raise ArtifactError(f"artifact field {name} has shape "
                                f"{np.shape(arr)}, expected ({norm.d},) as "
                                "norm.mu")
    ph_stats = None
    if d["ph_stats"] is not None:
        ph_stats = NormStats("dbm_zscore", np.array(d["ph_stats"]["mu"]),
                             np.array(d["ph_stats"]["sigma"]),
                             np.array(d["ph_stats"]["floored"], dtype=bool))
        for name in ("mu", "sigma", "floored"):
            shape = np.shape(getattr(ph_stats, name))
            if shape != (4,):
                raise ArtifactError(f"artifact field ph_stats.{name} has "
                                    f"shape {shape}, expected (4,)")
    rf = _forest_from_dict(d["rf"])
    n_features = norm.d + (4 if ph_stats is not None else 0)
    if rf.n_features != n_features:
        raise ArtifactError(f"artifact field rf.n_features is {rf.n_features}"
                            f", expected {n_features} (channels plus 4 "
                            "with ph_stats)")
    points = _unpack("knn.points", d["knn"]["points"])
    if points.ndim != 2 or points.shape[1] != n_features:
        raise ArtifactError(f"artifact field knn.points has shape "
                            f"{points.shape}, expected rows of {n_features}")
    knn_var = _field("knn.var", ChannelVariances, np.array(d["knn"]["var"]))
    if knn_var.var.shape != (n_features,):
        raise ArtifactError(f"artifact field knn.var has shape "
                            f"{knn_var.var.shape}, expected ({n_features},)")
    labels = _unpack("knn.labels", d["knn"]["labels"])
    if labels.shape != (len(points), 2):
        raise ArtifactError(f"artifact field knn.labels has shape "
                            f"{labels.shape}, expected ({len(points)}, 2)")
    for name, arr in (("knn.points", points), ("knn.labels", labels)):
        _field(name, _finite, arr)
    knn = build_knn_index(points, labels, knn_var)
    grid = _field("fusion.cell_width", make_grid,
                  _field("fusion.bounds", Bounds, *fusion["bounds"]),
                  fusion["cell_width"])
    return PipelineArtifact(
        version=d["version"], meta=d["meta"], config=d["config"], norm=norm,
        variances=variances, filter_cfg=filter_cfg, rf=rf, knn=knn,
        ph_stats=ph_stats, grid=grid, alpha=fusion["alpha"],
        beta=fusion["beta"], theta_discount=fusion["theta_discount"],
        measure=_field("fusion.measure", lambda m: ChoquetMeasure(**m),
                       fusion["measure"]),
        dst_point_mode=fusion["dst_point_mode"], fusion_mode=fusion["mode"],
        k=d["knn"]["k"], eps=d["knn"]["eps"],
        convex_lambda=fusion["convex_lambda"])


def save_artifact(a: PipelineArtifact, path) -> None:
    """Serialize atomically as compact JSON (keys sorted, no indentation):
    the file appears only once fully written."""
    payload = json.dumps(artifact_to_dict(a), sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(payload + "\n")
    os.replace(tmp, path)


def load_artifact(path) -> PipelineArtifact:
    """Read an artifact; any content that does not load is an ArtifactError
    naming the file."""
    # json.loads decodes the bytes faster than a text-mode read would
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return artifact_from_dict(json.loads(raw))
    except ArtifactError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed artifact "
                            f"({type(exc).__name__}: {exc})") from exc


def fit_pipeline(data: RadioMap, cfg: PipelineConfig = PipelineConfig()) -> PipelineArtifact:
    """Calibrate one pipeline on a survey; every stage failure names itself.

    A grid search's winners replace cfg's fields; evaluate.fit_split then
    calibrates the split, and its validation positions give the confidence
    scale beta and the fuzzy measure."""
    train, val, _test = stage("split", stratified_split, data,
                              SplitSpec(cfg.ratios, cfg.seed))
    if cfg.grids is not None:
        sel = stage("grid-search", ev.cv_grid_search, train, cfg.grids,
                    5, cfg.seed, cfg.filter, cfg.norm_mode,
                    cfg.theta_discount, cfg.dst_point_mode)
        cfg = replace(cfg, filter=replace(cfg.filter, gamma=sel.gamma,
                                          n_particles=sel.n_particles,
                                          ess_tau=sel.ess_tau),
                      k=sel.k, n_trees=sel.n_trees, max_depth=sel.max_depth,
                      alpha=sel.alpha, cell_width=sel.cell_width)
    fit = ev.fit_split(train, val, cfg, cfg.seed,
                       [("pipeline", cfg.use_ph, 1)], cfg.alpha)
    ph_stats, rf, knn, p_rf, p_knn, alpha = fit["spaces"]["pipeline"]
    grid, yval = fit["grid"], val.xy_matrix()
    preds = np.vstack([p_rf, p_knn])
    med = ev.median_min_centroid_distance(preds, grid)
    beta = 1.0 / max(med, 1e-9)

    err_rf = ev.euclidean_errors(p_rf, yval)
    err_knn = ev.euclidean_errors(p_knn, yval)
    scores = confidences(preds, grid, beta).reshape(2, -1).T
    targets = np.exp(-beta * np.minimum(err_rf, err_knn))
    measure = stage("fit-measure", fit_choquet_measure, scores, targets).measure

    meta = {"dataset": data.meta.get("name", "unknown"),
            "n_wifi": data.meta["n_wifi"], "n_ble": data.meta["n_ble"],
            "d": data.d, "channel_kinds": list(data.channel_kinds),
            "n_train": train.n_samples, "n_val": val.n_samples,
            "seed": cfg.seed}
    config_snapshot = _jsonable({
        "norm_mode": cfg.norm_mode, "filter": cfg.filter.choices(),
        "use_ph": cfg.use_ph, "k": cfg.k, "eps": cfg.eps,
        "n_trees": cfg.n_trees, "max_depth": cfg.max_depth,
        "alpha_grid": list(cfg.alpha_grid),
        "ratios": list(cfg.ratios), "seed": cfg.seed,
        "fusion_mode": cfg.fusion_mode})
    return PipelineArtifact(
        version=ARTIFACT_VERSION, meta=meta, config=config_snapshot,
        norm=fit["stats"], variances=fit["variances"], filter_cfg=fit["fcfg"],
        rf=rf, knn=knn, ph_stats=ph_stats, grid=grid, alpha=float(alpha),
        beta=float(beta), theta_discount=cfg.theta_discount, measure=measure,
        dst_point_mode=cfg.dst_point_mode, fusion_mode=cfg.fusion_mode,
        k=int(cfg.k), eps=cfg.eps, convex_lambda=cfg.convex_lambda)


@dataclass
class PredictResult:
    position: Position
    rf_position: Position
    knn_position: Position
    confidence_rf: float
    confidence_knn: float
    fused_confidence: float
    bba: Bba | None = None


class ScanError(ValueError):
    """A scan PredictorSession.predict rejects before it touches any state:
    the wrong shape, or a channel (named in the message) that is not a finite
    value in the dBm range the survey loader accepts."""


class PredictorSession:
    """Stateful per-scan predictor; filter state persists across calls.

    One-shot prediction is a fresh session per scan (the filter then passes
    the first observation through, per the initialize-at-observation rule).
    """

    def __init__(self, artifact: PipelineArtifact):
        self.artifact = artifact
        self._filter_state: KfState | tuple | None = None  # until a scan

    def predict(self, raw_scan, fusion_mode: str | None = None,
                convex_lambda: float | None = None,
                keep_bba: bool = False) -> PredictResult:
        """Locate one raw dBm scan and advance the session's filter.

        The scan and convex_lambda (which must lie in [0, 1] whatever the
        mode) are checked before any state is touched. The new filter
        state is kept only once the whole prediction has succeeded, so a call
        that raises leaves the session as it was. With keep_bba the result
        carries the fused DST mass whatever the fusion mode.
        """
        a = self.artifact
        scan = np.asarray(raw_scan, dtype=float)
        if scan.shape != (a.d,):
            raise ScanError(f"scan must have {a.d} channels, got {scan.shape}")
        ok = (scan >= DBM_FLOOR - DBM_TOL) & (scan <= DBM_CEIL + DBM_TOL)
        if not ok.all():  # NaN compares False, so it fails here too
            i = int(np.argmin(ok))  # the first bad channel
            raise ScanError(f"scan channel {i} is {scan[i]}, not a dBm value "
                            f"in [{DBM_FLOOR}, {DBM_CEIL}]")
        mode = fusion_mode or a.fusion_mode
        rules.check("PredictorSession.predict", "fusion_mode", mode,
                    rules.FUSION_MODE)
        if convex_lambda is not None:
            rules.check("PredictorSession.predict", "convex_lambda",
                        convex_lambda, rules.UNIT)
        lam = a.convex_lambda if convex_lambda is None else convex_lambda

        z = apply_norm(scan, a.norm)
        if self._filter_state is None:
            state, z = start_filter(a.filter_cfg, z)
        else:
            state, z = step_filter(a.filter_cfg, self._filter_state, z)
        p_rf, p_knn = ev.locate(z[None, :], a.ph_stats, a.rf, a.knn, a.k,
                                a.eps)
        r_rf, r_knn = Position(*p_rf[0]), Position(*p_knn[0])
        # one (2, S) block of centroid distances, rf row then knn row, feeds
        # both confidences and the DST step
        dist = centroid_distances(np.concatenate([p_rf, p_knn]), a.grid)
        s_rf, s_knn = confidences_from_distances(dist, a.beta).tolist()
        fused_conf = choquet(s_rf, s_knn, a.measure)

        bba = None
        if mode == "dst" or keep_bba:
            points, fused, theta = ev._fuse_distances(
                dist, a.grid, a.alpha, a.theta_discount, a.dst_point_mode)
            position = Position(*points[0])
            bba = Bba(fused[0], float(theta[0]))
        if mode == "choquet":
            num = s_rf * a.measure.mu1
            den = num + s_knn * a.measure.mu2
            lam_star = 0.5 if den <= 0 else min(1.0, max(0.0, num / den))
            position = convex_combo(r_rf, r_knn, lam_star)
        elif mode == "convex":
            position = convex_combo(r_rf, r_knn, lam)
        self._filter_state = state
        return PredictResult(position, r_rf, r_knn, s_rf, s_knn, fused_conf,
                             bba if keep_bba else None)


def predict_one(artifact: PipelineArtifact, raw_scan, **kwargs) -> PredictResult:
    return PredictorSession(artifact).predict(raw_scan, **kwargs)


def write_belief_map(bba: Bba, grid: GridSpec, pgm_path,
                     csv_path=None) -> tuple[int, Position]:
    """Write a fused mass as PGM (and CSV); returns the argmax cell."""
    write_belief_pgm(bba, grid, pgm_path)
    if csv_path is not None:
        write_belief_csv(bba, grid, csv_path)
    return argmax_belief(bba, grid)


# ---------------------------------------------------------------------------
# latency benchmark (per-update cost model validation)
# ---------------------------------------------------------------------------

def _time_stage(fn, n: int, stat=np.median) -> float:
    out = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        fn()
        out.append(time.perf_counter_ns() - t0)
    return float(stat(out))


def bench_pipeline(artifact: PipelineArtifact, n_queries: int = 50,
                   seed: int = 0) -> dict:
    """Median per-stage latency plus log-log scaling slopes in the number of
    trees, particles, and grid cells (each varied alone). A slope fits the
    fastest of each size's repeated timings, which another process on the
    host can only slow down. pf_ns and kf_ns are per-channel update costs:
    one pf_step handed a fresh pf_noise block (the draw and its scaling
    timed with it), and one d-channel kf_step divided by d."""
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    rng = np.random.default_rng(seed)
    a = artifact
    scans = rng.uniform(-90.0, -30.0, size=(n_queries, a.d))
    z_all = normalize_matrix(scans, a.norm)

    # the filter stage is one step from the state the first scan starts
    state, _ = start_filter(a.filter_cfg, z_all[0])

    report: dict = {"stages_ns": {}, "scaling": {}}

    i_query = {"i": 0}

    def next_z():
        i_query["i"] = (i_query["i"] + 1) % n_queries
        return z_all[i_query["i"]]

    z0 = z_all[0]
    report["stages_ns"]["filter"] = _time_stage(
        lambda: step_filter(a.filter_cfg, state, z0), n_queries)
    if a.ph_stats is not None:
        report["stages_ns"]["ph"] = _time_stage(
            lambda: features_for_vector(next_z()), n_queries)
        feats = np.array([augment(z, features_for_vector(z), a.ph_stats)
                          for z in z_all])
    else:
        feats = z_all
    report["stages_ns"]["rf"] = _time_stage(
        lambda: a.rf.predict_batch(feats[i_query["i"]].reshape(1, -1)),
        n_queries)

    def knn_once():
        next_z()
        predict_wknn(a.knn, feats[i_query["i"]], min(a.k, a.knn.m), a.eps)

    report["stages_ns"]["knn"] = _time_stage(knn_once, n_queries)

    p0 = Position(*a.rf.predict_batch(feats[0].reshape(1, -1))[0])
    p1 = predict_wknn(a.knn, feats[0], min(a.k, a.knn.m), a.eps)

    def dst_once(grid):
        m = dempster_combine(
            bba_from_point(p0, grid, a.alpha, a.theta_discount),
            bba_from_point(p1, grid, a.alpha, a.theta_discount))
        weighted_centroid(m, grid)

    report["stages_ns"]["dst"] = _time_stage(lambda: dst_once(a.grid), n_queries)

    # scaling in T (trees used), M_p (particles), S (cells)
    def fastest(fn):
        return _time_stage(fn, max(15, n_queries // 2), np.min)

    # a fresh cloud of mp particles, stepped on a fresh draw of mp normals
    def pf_step_once(mp):
        prng = np.random.default_rng(seed)
        cloud = PfState(prng.normal(0.0, 1.0, mp), np.full(mp, 1.0 / mp))
        return lambda: pf_step(cloud, pf_noise(prng, mp, 1.0), 0.1, 1.0,
                               0.3, prng)

    tree_counts = [t for t in (25, 50, 100, 200, 400) if t <= a.rf.n_trees]
    if len(tree_counts) >= 2:
        lat = [fastest(lambda m=a.rf.prefix(t): m.predict_batch(feats[:1]))
               for t in tree_counts]
        report["scaling"]["n_trees"] = _loglog_slope(tree_counts, lat)

    particle_counts = (1_000, 4_000, 16_000)
    lat = [fastest(pf_step_once(mp)) for mp in particle_counts]
    report["scaling"]["n_particles"] = _loglog_slope(particle_counts, lat)
    report["pf_step_ns"] = lat[-1]

    grids = [make_grid(a.grid.bounds, h) for h in (2.0, 1.0, 0.5, 0.25)]
    lat = [fastest(lambda g=g: dst_once(g)) for g in grids]
    report["scaling"]["n_cells"] = _loglog_slope([g.n_cells for g in grids],
                                                 lat)

    # PF-vs-KF per-channel update cost at the artifact's particle count; a
    # KF step moves all d channels of one KfState, as a session's does
    pf_ns = _time_stage(pf_step_once(a.filter_cfg.n_particles), n_queries)
    r = a.filter_cfg.r
    kf_state, q = KfState(z0, r), a.filter_cfg.gamma * r
    kf_ns = _time_stage(lambda: kf_step(kf_state, z_all[-1], q, r),
                        n_queries) / a.d
    report["pf_vs_kf_ratio"] = pf_ns / max(kf_ns, 1.0)
    report["pf_ns"] = pf_ns
    report["kf_ns"] = kf_ns
    return report


def _loglog_slope(xs, ys) -> float:
    slope = np.polyfit(np.log(np.asarray(xs, dtype=float)),
                       np.log(np.asarray(ys, dtype=float)), 1)[0]
    return float(slope)
