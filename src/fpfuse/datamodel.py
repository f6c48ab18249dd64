"""Radio-map data model: fingerprints, CSV ingestion, synthesis, stratified splits.

A radio map is the labelled survey of (RSS fingerprint, position) pairs collected
at reference points (RPs) on a bounded floor. All types are immutable after
construction; generation and splitting are pure functions of (input, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DBM_FLOOR = -120.0
DBM_CEIL = 0.0
DBM_TOL = 1e-9  # readings this far outside [DBM_FLOOR, DBM_CEIL] still pass
MISSING_RSS_DBM = -100.0  # sentinel for empty CSV cells, below every observed value


class ParseError(ValueError):
    """A CSV cell could not be parsed; the message names the offending line."""


class SchemaError(ValueError):
    """Header or row layout does not match the declared channel schema."""


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

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return (self.x_min - tol <= x <= self.x_max + tol
                and self.y_min - tol <= y <= self.y_max + tol)

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

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One windowed RSS scan: a d-vector of dBm values plus per-channel radio tags.

    Channel order is all Wi-Fi channels first, then all BLE channels.
    """

    rss: np.ndarray
    channel_kinds: tuple[str, ...]

    def __post_init__(self):
        arr = np.array(self.rss, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("rss must be a non-empty 1-D vector")
        if len(self.channel_kinds) != arr.size:
            raise ValueError("channel_kinds length must match rss length")
        if any(k not in ("wifi", "ble") for k in self.channel_kinds):
            raise ValueError("channel kinds must be 'wifi' or 'ble'")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rss values must be finite")
        if arr.min() < DBM_FLOOR - DBM_TOL or arr.max() > DBM_CEIL + DBM_TOL:
            raise ValueError(
                f"rss outside plausible dBm range [{DBM_FLOOR}, {DBM_CEIL}]")
        arr.setflags(write=False)
        object.__setattr__(self, "rss", arr)
        object.__setattr__(self, "channel_kinds", tuple(self.channel_kinds))

    @property
    def d(self) -> int:
        return self.rss.size


@dataclass(frozen=True)
class Sample:
    fingerprint: Fingerprint
    position: Position
    rp_id: int


@dataclass(frozen=True, eq=False)
class RadioMap:
    """The labelled survey: samples, floor bounds, and dataset metadata.

    meta carries at least: name, n_wifi, n_ble, imputed_count.
    """

    samples: tuple[Sample, ...]
    bounds: Bounds
    meta: dict

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("radio map needs at least one sample")
        kinds = samples[0].fingerprint.channel_kinds
        for s in samples:
            if s.fingerprint.channel_kinds != kinds:
                raise ValueError("all fingerprints must share channel layout")
            if not self.bounds.contains(s.position.x, s.position.y):
                raise ValueError(
                    f"position {s.position} outside bounds {self.bounds}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def d(self) -> int:
        return self.samples[0].fingerprint.d

    @property
    def channel_kinds(self) -> tuple[str, ...]:
        return self.samples[0].fingerprint.channel_kinds

    def rss_matrix(self) -> np.ndarray:
        return np.array([s.fingerprint.rss for s in self.samples])

    def xy_matrix(self) -> np.ndarray:
        return np.array([[s.position.x, s.position.y] for s in self.samples])

    def rp_ids(self) -> np.ndarray:
        return np.array([s.rp_id for s in self.samples], dtype=int)

    def by_rp(self) -> dict[int, list[int]]:
        """Sample indices grouped by reference point, in stored order."""
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(self.samples):
            groups.setdefault(s.rp_id, []).append(i)
        return groups


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise ValueError("all three split ratios must be positive")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


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
        for name in ("n_rp", "samples_per_rp", "n_wifi", "n_ble"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.shadowing_std_dbm < 0:
            raise ValueError("shadowing_std_dbm must be >= 0")


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
        kinds = ("wifi",) * n_wifi + ("ble",) * n_ble
        samples = []
        imputed = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + d:
                raise SchemaError(
                    f"{path}: line {lineno}: expected {3 + d} columns, "
                    f"got {len(row)}")
            try:
                rp_id = int(row[0])
                x, y = float(row[1]), float(row[2])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            rss = np.empty(d)
            for j, cell in enumerate(row[3:]):
                cell = cell.strip()
                if cell == "":
                    rss[j] = MISSING_RSS_DBM
                    imputed += 1
                    continue
                try:
                    rss[j] = float(cell)
                except ValueError as exc:
                    raise ParseError(
                        f"{path}: line {lineno}: bad RSS cell {cell!r}") from exc
            try:
                fp = Fingerprint(rss, kinds)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            samples.append(Sample(fp, Position(x, y), rp_id))
    if not samples:
        raise SchemaError(f"{path}: no data rows")
    xs = [s.position.x for s in samples]
    ys = [s.position.y for s in samples]
    pad = 1e-6  # Bounds refuses zero area; surveys along a line still load
    bounds = Bounds(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    meta = {"name": name or path.stem, "n_wifi": n_wifi, "n_ble": n_ble,
            "imputed_count": imputed}
    return RadioMap(tuple(samples), bounds, meta)


def save_radio_map(rmap: RadioMap, path) -> None:
    """Write the survey CSV; floats use repr so reload is exact."""
    n_wifi = rmap.meta["n_wifi"]
    n_ble = rmap.meta["n_ble"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(n_wifi, n_ble))
        for s in rmap.samples:
            writer.writerow([s.rp_id, repr(s.position.x), repr(s.position.y)]
                            + [repr(float(v)) for v in s.fingerprint.rss])


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
    kinds = ("wifi",) * spec.n_wifi + ("ble",) * spec.n_ble

    # RPs on a jittered grid with roughly square cells
    n_cols = max(1, math.ceil(math.sqrt(spec.n_rp * b.width / b.height)))
    n_rows = math.ceil(spec.n_rp / n_cols)
    cw, ch = b.width / n_cols, b.height / n_rows
    rp_pos = []
    for idx in range(spec.n_rp):
        r, c = divmod(idx, n_cols)
        cx = b.x_min + (c + 0.5) * cw
        cy = b.y_min + (r + 0.5) * ch
        jx, jy = rng.uniform(-0.3, 0.3, size=2)
        x = min(max(cx + jx * cw, b.x_min), b.x_max)
        y = min(max(cy + jy * ch, b.y_min), b.y_max)
        rp_pos.append((x, y))

    anchors = np.column_stack([rng.uniform(b.x_min, b.x_max, size=d),
                               rng.uniform(b.y_min, b.y_max, size=d)])

    samples = []
    for rp_id, (x, y) in enumerate(rp_pos):
        dist = np.hypot(anchors[:, 0] - x, anchors[:, 1] - y)
        mean_rss = log_distance_rss(dist, spec.tx_power_dbm, spec.path_loss_exp)
        for _ in range(spec.samples_per_rp):
            rss = mean_rss + rng.normal(0.0, spec.shadowing_std_dbm, size=d)
            rss = np.clip(rss, DBM_FLOOR, DBM_CEIL)
            samples.append(Sample(Fingerprint(rss, kinds), Position(x, y), rp_id))
    meta = {"name": f"synth-{spec.seed}", "n_wifi": spec.n_wifi,
            "n_ble": spec.n_ble, "imputed_count": 0,
            "anchors": anchors.tolist()}
    return RadioMap(tuple(samples), spec.bounds, meta)


def stratified_split(rmap: RadioMap, spec: SplitSpec):
    """Partition samples per RP into (train, val, test) radio maps.

    Within each RP the samples are shuffled by the seed, then floor(n * ratio)
    go to val and test and the remainder to train, so val/test sizes differ
    from the exact ratio by less than one sample per RP.
    """
    rng = np.random.default_rng(spec.seed)
    groups = rmap.by_rp()
    train_idx, val_idx, test_idx = [], [], []
    for rp_id in sorted(groups):
        idx = np.array(groups[rp_id])
        perm = rng.permutation(len(idx))
        idx = idx[perm]
        n = len(idx)
        n_val = int(math.floor(n * spec.ratios[1]))
        n_test = int(math.floor(n * spec.ratios[2]))
        if n_val < 1 or n_test < 1:
            raise ValueError(
                f"RP {rp_id} has {n} samples; ratios {spec.ratios} leave an "
                "empty validation or test share")
        val_idx.extend(idx[:n_val])
        test_idx.extend(idx[n_val:n_val + n_test])
        train_idx.extend(idx[n_val + n_test:])

    def subset(indices):
        picked = tuple(rmap.samples[i] for i in sorted(indices))
        return RadioMap(picked, rmap.bounds, dict(rmap.meta))

    return subset(train_idx), subset(val_idx), subset(test_idx)
