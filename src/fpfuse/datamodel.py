"""Radio-map data model: columnar surveys, CSV ingestion, synthesis, splits.

A radio map is the labelled survey of (RSS fingerprint, position) pairs collected
at reference points (RPs) on a bounded floor, stored as three columns: an
(N, d) dBm matrix, an (N, 2) position matrix and an (N,) RP-id vector. A map
is validated once, when built, and its columns are read-only. Generation and
splitting are pure functions of (input, seed) that draw and subset whole
arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rules

DBM_FLOOR = -120.0
DBM_CEIL = 0.0
DBM_TOL = 1e-9  # readings this far outside [DBM_FLOOR, DBM_CEIL] still pass
MISSING_RSS_DBM = -100.0  # sentinel for empty CSV cells, below every observed value


class ParseError(ValueError):
    """A CSV cell could not be parsed; the message names the offending line."""


class SchemaError(ValueError):
    """Header or row layout does not match the declared channel schema."""


class SplitError(ValueError):
    """A survey too small for the split: an RP whose share of validation or
    test samples would be empty."""


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned floor rectangle in metres."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(f"degenerate bounds (zero area): {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y, tol: float = 1e-9):
        """Whether (x, y) lies inside; elementwise for arrays."""
        return ((self.x_min - tol <= x) & (x <= self.x_max + tol)
                & (self.y_min - tol <= y) & (y <= self.y_max + tol))

    def as_tuple(self):
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class Position:
    """A 2-D floor coordinate in metres."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def _first_invalid(rss: np.ndarray, xy: np.ndarray, bounds: Bounds | None):
    """(row, description) of the first invalid entry, or None. RSS values
    must be finite and in the plausible dBm range, coordinates finite and,
    when bounds are given, inside them."""
    checks = [(rss, ~np.isfinite(rss), "is not finite"),
              (rss, (rss < DBM_FLOOR - DBM_TOL) | (rss > DBM_CEIL + DBM_TOL),
               f"outside plausible dBm range [{DBM_FLOOR}, {DBM_CEIL}]"),
              (xy, ~np.isfinite(xy), "is not finite")]
    for arr, bad, what in checks:
        if bad.any():
            i, j = np.argwhere(bad)[0]
            name = f"channel {j}: rss" if arr is rss else f"position {'xy'[j]}"
            return int(i), f"{name} {float(arr[i, j])!r} {what}"
    if bounds is not None:
        inside = bounds.contains(xy[:, 0], xy[:, 1])
        if not inside.all():
            i = int(np.argmin(inside))
            return i, f"position {tuple(xy[i].tolist())} outside bounds {bounds}"
    return None


def _read_only(value, dtype) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RadioMap:
    """The labelled survey as columns, one row per sample: rss (N, d) dBm
    fingerprints (Wi-Fi channels first, then BLE), xy (N, 2) positions in
    metres and rp (N,) int RP ids; read-only copies, checked once here, with
    errors naming the row and the channel. Plus floor bounds and meta, which
    carries at least: name, n_wifi, n_ble, imputed_count."""

    rss: np.ndarray
    xy: np.ndarray
    rp: np.ndarray
    channel_kinds: tuple[str, ...]
    bounds: Bounds
    meta: dict

    def __post_init__(self):
        rss, xy = _read_only(self.rss, float), _read_only(self.xy, float)
        rp, kinds = np.asarray(self.rp), tuple(self.channel_kinds)
        n, d = rss.shape if rss.ndim == 2 else (0, 0)
        if (min(n, d) < 1 or len(kinds) != d or xy.shape != (n, 2)
                or rp.shape != (n,)):
            raise ValueError(
                "radio map needs N >= 1 samples of d >= 1 channels: rss (N, d),"
                f" d channel kinds, xy (N, 2), rp (N,); got rss {rss.shape}, "
                f"{len(kinds)} kinds, xy {xy.shape}, rp {rp.shape}")
        for j, kind in enumerate(kinds):
            if kind not in ("wifi", "ble"):
                raise ValueError(
                    f"channel {j}: kind {kind!r} must be 'wifi' or 'ble'")
        if rp.dtype.kind not in "iu":
            raise ValueError(f"rp ids must be integers, got dtype {rp.dtype}")
        bad = _first_invalid(rss, xy, self.bounds)
        if bad is not None:
            raise ValueError(f"row {bad[0]}, {bad[1]}")
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "rp", _read_only(rp, int))
        object.__setattr__(self, "channel_kinds", kinds)

    @property
    def n_samples(self) -> int:
        return self.rss.shape[0]

    @property
    def d(self) -> int:
        return self.rss.shape[1]

    def rss_matrix(self) -> np.ndarray:
        return self.rss.copy()

    def xy_matrix(self) -> np.ndarray:
        return self.xy.copy()

    def rp_ids(self) -> np.ndarray:
        return self.rp.copy()

    def rp_rows(self) -> list[tuple[int, np.ndarray]]:
        """(RP id, its sample indices in stored order) per RP, ids ascending."""
        order = np.argsort(self.rp, kind="stable")
        ids, starts = np.unique(self.rp[order], return_index=True)
        return list(zip(ids.tolist(), np.split(order, starts[1:])))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        rules.check_fields(self, "SplitSpec", rules.SPLIT)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic survey layout: jittered RP grid, uniform anchors, log-distance RSS.

    RSS for channel i is tx_power - 10 * path_loss_exp * log10(dist to anchor i)
    plus zero-mean Gaussian shadowing, clamped to the plausible dBm range.
    Defaults model an obstructed indoor site surveyed with window-averaged
    scans: exponent 3, residual per-fingerprint shadowing of 1 dBm.
    """

    n_rp: int = 15
    samples_per_rp: int = 80
    n_wifi: int = 7
    n_ble: int = 3
    bounds: Bounds = field(default_factory=lambda: Bounds(0.0, 0.0, 6.0, 14.0))
    path_loss_exp: float = 3.0
    tx_power_dbm: float = -30.0
    shadowing_std_dbm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        rules.check_fields(self, "SynthSpec", rules.SYNTH)


def _expected_header(n_wifi: int, n_ble: int) -> list[str]:
    return (["rp_id", "x", "y"]
            + [f"wifi_{i + 1}" for i in range(n_wifi)]
            + [f"ble_{i + 1}" for i in range(n_ble)])


def _infer_schema(header: list[str]) -> tuple[int, int]:
    n_wifi = sum(1 for h in header if h.startswith("wifi_"))
    n_ble = sum(1 for h in header if h.startswith("ble_"))
    if n_wifi + n_ble < 1:
        raise SchemaError("header declares no wifi_*/ble_* channels")
    return n_wifi, n_ble


def load_radio_map(path, n_wifi: int | None = None, n_ble: int | None = None,
                   name: str | None = None) -> RadioMap:
    """Read a survey CSV (header `rp_id,x,y,wifi_1..,ble_1..`, RSS in dBm).

    Empty RSS cells are imputed to the -100 dBm sentinel and counted in
    meta["imputed_count"]. Channel counts are taken from the header unless
    given explicitly, in which case the header must agree.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row is mandatory")
        header = [h.strip() for h in header]
        if n_wifi is None or n_ble is None:
            n_wifi, n_ble = _infer_schema(header)
        if header != _expected_header(n_wifi, n_ble):
            raise SchemaError(
                f"{path}: header {header!r} does not match schema "
                f"(n_wifi={n_wifi}, n_ble={n_ble})")
        d = n_wifi + n_ble
        linenos, rps, xys, rows = [], [], [], []
        imputed = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + d:
                raise SchemaError(
                    f"{path}: line {lineno}: expected {3 + d} columns, "
                    f"got {len(row)}")
            try:
                rps.append(int(row[0]))
                if not -2**63 <= rps[-1] < 2**63:
                    raise ValueError(f"rp_id {rps[-1]} outside the int64 range")
                xys.append((float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            rss = []
            for cell in (c.strip() for c in row[3:]):
                try:
                    rss.append(float(cell) if cell else MISSING_RSS_DBM)
                except ValueError as exc:
                    raise ParseError(
                        f"{path}: line {lineno}: bad RSS cell {cell!r}") from exc
            imputed += sum(1 for c in row[3:] if not c.strip())
            rows.append(rss)
            linenos.append(lineno)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    rss, xy = np.array(rows), np.array(xys)
    bad = _first_invalid(rss, xy, None)
    if bad is not None:
        raise ParseError(f"{path}: line {linenos[bad[0]]}: {bad[1]}")
    pad = 1e-6  # Bounds refuses zero area; surveys along a line still load
    lo, hi = (xy.min(axis=0) - pad).tolist(), (xy.max(axis=0) + pad).tolist()
    meta = {"name": name or path.stem, "n_wifi": n_wifi, "n_ble": n_ble,
            "imputed_count": imputed}
    return RadioMap(rss, xy, rps, ("wifi",) * n_wifi + ("ble",) * n_ble,
                    Bounds(lo[0], lo[1], hi[0], hi[1]), meta)


def save_radio_map(rmap: RadioMap, path) -> None:
    """Write the survey CSV; floats use repr so reload is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(rmap.meta["n_wifi"], rmap.meta["n_ble"]))
        # tolist() gives Python scalars; a numpy scalar's repr is 'np.float64(…)'
        for rp, xy, rss in zip(rmap.rp.tolist(), rmap.xy.tolist(),
                               rmap.rss.tolist()):
            writer.writerow([rp] + [repr(v) for v in xy + rss])


def log_distance_rss(dist_m, tx_power_dbm: float, path_loss_exp: float):
    """Mean RSS of the log-distance model: tx - 10 * n * log10(distance).

    Distances below 1 mm are clamped so the near-field singularity cannot
    produce infinities; values are not clamped to the dBm range here.
    """
    dist_m = np.maximum(np.asarray(dist_m, dtype=float), 1e-3)
    return tx_power_dbm - 10.0 * path_loss_exp * np.log10(dist_m)


def synth_radio_map(spec: SynthSpec) -> RadioMap:
    """Generate a deterministic synthetic survey from a log-distance model."""
    rng = np.random.default_rng(spec.seed)
    b = spec.bounds
    d = spec.n_wifi + spec.n_ble

    # RPs on a jittered grid with roughly square cells
    n_cols = max(1, math.ceil(math.sqrt(spec.n_rp * b.width / b.height)))
    n_rows = math.ceil(spec.n_rp / n_cols)
    cw, ch = b.width / n_cols, b.height / n_rows
    r, c = np.divmod(np.arange(spec.n_rp), n_cols)
    jitter = rng.uniform(-0.3, 0.3, size=(spec.n_rp, 2))
    rp_x = np.minimum(np.maximum(b.x_min + (c + 0.5) * cw + jitter[:, 0] * cw,
                                 b.x_min), b.x_max)
    rp_y = np.minimum(np.maximum(b.y_min + (r + 0.5) * ch + jitter[:, 1] * ch,
                                 b.y_min), b.y_max)

    anchors = np.column_stack([rng.uniform(b.x_min, b.x_max, size=d),
                               rng.uniform(b.y_min, b.y_max, size=d)])

    dist = np.hypot(anchors[:, 0] - rp_x[:, None], anchors[:, 1] - rp_y[:, None])
    mean_rss = log_distance_rss(dist, spec.tx_power_dbm, spec.path_loss_exp)
    # one call draws in C order, RP by RP and sample by sample, so each
    # fingerprint's shadowing is the d-vector a per-sample draw would give
    per = spec.samples_per_rp
    noise = rng.normal(0.0, spec.shadowing_std_dbm, size=(spec.n_rp, per, d))
    rss = np.clip(mean_rss[:, None, :] + noise, DBM_FLOOR, DBM_CEIL)
    meta = {"name": f"synth-{spec.seed}", "n_wifi": spec.n_wifi,
            "n_ble": spec.n_ble, "imputed_count": 0,
            "anchors": anchors.tolist()}
    return RadioMap(rss.reshape(-1, d),
                    np.repeat(np.column_stack([rp_x, rp_y]), per, axis=0),
                    np.repeat(np.arange(spec.n_rp), per),
                    ("wifi",) * spec.n_wifi + ("ble",) * spec.n_ble,
                    spec.bounds, meta)


def stratified_split(rmap: RadioMap, spec: SplitSpec):
    """Partition samples per RP into (train, val, test) radio maps.

    Within each RP the samples are shuffled by the seed, then floor(n * ratio)
    go to val and test and the remainder to train, so val/test sizes differ
    from the exact ratio by less than one sample per RP. Each part keeps the
    stored order.
    """
    rng = np.random.default_rng(spec.seed)
    part = np.zeros(rmap.n_samples, dtype=np.int8)  # 0 train, 1 val, 2 test
    for rp_id, idx in rmap.rp_rows():
        n = len(idx)
        n_val = int(math.floor(n * spec.ratios[1]))
        n_test = int(math.floor(n * spec.ratios[2]))
        idx = idx[rng.permutation(n)]
        if n_val < 1 or n_test < 1:
            raise SplitError(
                f"RP {rp_id} has {n} samples; ratios {spec.ratios} leave an "
                "empty validation or test share")
        part[idx[:n_val]] = 1
        part[idx[n_val:n_val + n_test]] = 2

    def subset(k):
        rows = np.flatnonzero(part == k)
        return RadioMap(rmap.rss[rows], rmap.xy[rows], rmap.rp[rows],
                        rmap.channel_kinds, rmap.bounds, dict(rmap.meta))

    return subset(0), subset(1), subset(2)
