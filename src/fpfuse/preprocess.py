"""Physically consistent RSS normalization and training-set channel statistics.

Two normalization modes are supported: direct z-scoring of dBm values, and
conversion to linear power (mW, p = 10^(dBm/10)) before z-scoring. Statistics
are always estimated on training data only and then frozen, so validation and
test sets see the training transform (no leakage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rules

SIGMA_FLOOR = 1e-9  # replaces the std of (near-)constant channels
VAR_SHRINKAGE = 1e-6  # l2 term added to metric variances for conditioning


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-channel location/scale in the chosen space, write-once."""

    mode: str
    mu: np.ndarray
    sigma: np.ndarray
    floored: np.ndarray  # bool per channel: sigma fell below SIGMA_FLOOR

    def __post_init__(self):
        rules.check("NormStats", "mode", self.mode, rules.NORM_MODE)
        for name in ("mu", "sigma", "floored"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.sigma < SIGMA_FLOOR):
            raise ValueError("sigma below floor; fit should have clamped it")

    @property
    def d(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class ChannelVariances:
    """Diagonal metric variances (normalized space) with l2 shrinkage."""

    var: np.ndarray
    shrinkage: float = VAR_SHRINKAGE

    def __post_init__(self):
        arr = np.asarray(self.var, dtype=float)
        if not np.all(arr > 0):  # NaN fails
            raise ValueError("metric variances must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "var", arr)

    @property
    def d(self) -> int:
        return self.var.size


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def fit_zscore_stats(matrix: np.ndarray, mode: str = "dbm_zscore") -> NormStats:
    """Column-wise mean and population std with the degenerate-channel floor."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    mu = matrix.mean(axis=0)
    sigma = matrix.std(axis=0)  # population (ddof=0), scaler convention
    floored = sigma < SIGMA_FLOOR
    sigma = np.where(floored, SIGMA_FLOOR, sigma)
    return NormStats(mode, mu, sigma, floored)


def fit_norm_stats(raw: np.ndarray, mode: str = "dbm_zscore") -> NormStats:
    """Normalization statistics of the training rows only: the (N, d) raw dBm
    matrix, converted to mW first in mw_zscore mode (NormStats rejects any
    other mode)."""
    return fit_zscore_stats(dbm_to_mw(raw) if mode == "mw_zscore" else raw,
                            mode)


def apply_norm(f, stats: NormStats) -> np.ndarray:
    """Normalize one raw dBm d-vector (or (N, d) rows) with frozen train stats."""
    vec = np.asarray(f, dtype=float)
    if vec.shape[-1] != stats.d:
        raise ValueError(f"dimension mismatch: vector has {vec.shape[-1]} "
                         f"channels, stats have {stats.d}")
    if stats.mode == "mw_zscore":
        vec = dbm_to_mw(vec)
    return (vec - stats.mu) / stats.sigma


def normalize_matrix(raw: np.ndarray, stats: NormStats) -> np.ndarray:
    """Row-wise apply_norm for an (N, d) matrix of raw dBm values."""
    return apply_norm(np.asarray(raw, dtype=float), stats)


def fit_channel_variances(train_normalized: np.ndarray,
                          shrinkage: float = VAR_SHRINKAGE) -> ChannelVariances:
    """Unbiased per-channel variances of the normalized training matrix.

    The shrinkage term keeps the diagonal metric invertible when a channel is
    constant. Fixed at fit time and reused unchanged at test time.
    """
    m = np.asarray(train_normalized, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError("need at least 2 rows to estimate variances")
    var = m.var(axis=0, ddof=1) + shrinkage
    return ChannelVariances(var, shrinkage)
