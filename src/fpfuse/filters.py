"""Per-channel scalar denoising filters: Kalman, unscented Kalman, particle.

Every RSS channel is filtered independently with a random-walk state model
x_t = x_{t-1} + v,  z_t = x_t + n,  v ~ N(0, q),  n ~ N(0, r).
The measurement variance r comes from training-set channel statistics and
q = gamma * r. The particle filter uses the same Gaussian likelihood and
triggers systematic resampling when the effective sample size drops below
tau * n_particles.

pf_step works in place on its fresh noise draw and one weight buffer, and
systematic_resample finds each position's particle in one linear pass (an
arithmetic guess stepped to the exact count) instead of a binary search.
Both equal the out-of-place, binary-search forms bit for bit, random draws
included, so a stream's estimates do not depend on which form ran.

One function pair filters a scan: start_filter on a stream's first scan,
step_filter on each later one; both return (state, estimate).
PredictorSession runs the pair over live scans. filter_stream denoises a
recorded stream to the same bits: KF and UKF through the pair, PF channel by
channel, so that only one particle cloud is alive at a time. Each channel
starts as in start_filter, draws only from its own generator and steps
through pf_step, the one particle-filter step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

METHODS = ("kf", "ukf", "pf", "none")


@dataclass(frozen=True)
class UkfParams:
    """Scalar unscented-transform spread parameters (standard defaults)."""

    alpha: float = 1e-3
    kappa: float = 0.0
    beta: float = 2.0


@dataclass(frozen=True)
class PfParams:
    n_particles: int = 10_000
    ess_tau: float = 0.3
    predict_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if not 0.0 < self.ess_tau < 1.0:
            raise ValueError("ess_tau must be in (0, 1)")
        if self.predict_sigma < 0:
            raise ValueError("predict_sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """Which filter to run per channel and its noise model."""

    method: str = "kf"  # kf | ukf | pf | none
    q_gamma: float = 0.5  # process noise as a multiple of r
    r: np.ndarray | None = None  # per-channel measurement variances
    pf: PfParams = field(default_factory=PfParams)
    ukf: UkfParams = field(default_factory=UkfParams)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown filter method {self.method!r}")
        if self.r is not None:
            arr = np.asarray(self.r, dtype=float)
            if np.any(arr <= 0):
                raise ValueError("measurement variances must be positive")
            arr.setflags(write=False)
            object.__setattr__(self, "r", arr)


@dataclass(frozen=True)
class KfState:
    """Scalar posterior: estimate x_hat with variance p."""

    x_hat: float
    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("state variance must be positive")


@dataclass(frozen=True, eq=False)
class PfState:
    particles: np.ndarray
    weights: np.ndarray
    degenerate_reset: bool = False  # last update underflowed and was reset

    def __post_init__(self):
        p = np.asarray(self.particles, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.shape != w.shape or p.ndim != 1:
            raise ValueError("particles and weights must be matching 1-D arrays")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("weights must be a probability vector")
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "particles", p)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, particles: np.ndarray, weights: np.ndarray,
                 degenerate_reset: bool) -> "PfState":
        """A state from float arrays that pf_step has just built, weights
        already normalized: the weight checks are skipped (about 17 us at
        10 000 particles), the arrays still become read-only."""
        particles.setflags(write=False)
        weights.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "particles", particles)
        object.__setattr__(state, "weights", weights)
        object.__setattr__(state, "degenerate_reset", degenerate_reset)
        return state

    @property
    def estimate(self) -> float:
        return float(self.weights @ self.particles)


def kf_step(state: KfState, z: float, q: float, r: float) -> KfState:
    """One predict/update cycle of the scalar Kalman filter."""
    if q < 0 or r <= 0:
        raise ValueError("need q >= 0 and r > 0")
    p = state.p + q
    gain = p / (p + r)
    x = state.x_hat + gain * (z - state.x_hat)
    p = (1.0 - gain) * p
    return KfState(x, p)


def ukf_step(state: KfState, z: float, q: float, r: float,
             params: UkfParams = UkfParams()) -> KfState:
    """One scalar unscented update.

    Sigma points are propagated through the (identity) process and measurement
    models and the moments recomputed from weighted sums, so on this linear
    model the result agrees with kf_step to floating-point cancellation.
    """
    if q < 0 or r <= 0:
        raise ValueError("need q >= 0 and r > 0")
    n = 1.0
    lam = params.alpha ** 2 * (n + params.kappa) - n
    c = n + lam  # = alpha^2 (n + kappa)
    wm = np.array([lam / c, 0.5 / c, 0.5 / c])
    wc = wm.copy()
    wc[0] += 1.0 - params.alpha ** 2 + params.beta

    spread = math.sqrt(c * state.p)
    chi = np.array([state.x_hat, state.x_hat + spread, state.x_hat - spread])
    # identity dynamics; recompute predicted moments from the points
    x_pred = float(wm @ chi)
    p_pred = float(wc @ (chi - x_pred) ** 2) + q
    if not p_pred > 0:
        raise ValueError(f"ukf_step: predicted variance {p_pred!r} is not "
                         "positive")

    spread = math.sqrt(c * p_pred)
    chi = np.array([x_pred, x_pred + spread, x_pred - spread])
    zeta = chi  # identity measurement model
    z_pred = float(wm @ zeta)
    s = float(wc @ (zeta - z_pred) ** 2) + r
    cross = float(wc @ ((chi - x_pred) * (zeta - z_pred)))
    gain = cross / s
    x = x_pred + gain * (z - z_pred)
    p = p_pred - gain * s * gain
    return KfState(x, p)


def effective_sample_size(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    return 1.0 / float(w @ w)


@functools.lru_cache(maxsize=8)
def _strides(m: int) -> np.ndarray:
    """k / m for k < m, read-only and shared by every resample of m."""
    out = np.arange(m) / m
    out.setflags(write=False)
    return out


def systematic_resample(particles: np.ndarray, weights: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Stride resampling from one uniform offset u ~ U[0, 1/m).

    Position p_k = u + k/m takes the first particle whose cumulative weight
    exceeds it, or the last particle when no earlier one does: the result
    of searchsorted(cumsum(weights), p, side="right") clipped to m - 1
    whenever that cumulative sum is sorted. It is found in linear time.
    below[i], the number of positions under cumulative[i], starts from the
    arithmetic guess ceil((cumulative[i] - u) * m) and is stepped down, then
    up, until position below[i] - 1 lies under cumulative[i] and position
    below[i] does not; particle i then takes below[i] - below[i - 1]
    positions and the last particle the rest.
    """
    m = len(particles)
    u = rng.uniform(0.0, 1.0 / m)
    positions = u + _strides(m)
    cumulative = np.cumsum(weights[:-1])
    guess = (cumulative - u) * m
    np.ceil(guess, out=guess)
    np.clip(guess, 0, m, out=guess)
    bounds = np.empty(m + 1, dtype=np.intp)  # 0, below[0], ..., below[m-2], m
    bounds[0], bounds[m] = 0, m
    below = bounds[1:m]
    below[:] = guess
    # ext[b] is position b - 1, with -inf and +inf past either end
    ext = np.concatenate(([-np.inf], positions, [np.inf]))
    while (over := ext[below] >= cumulative).any():
        below -= over
    while (under := cumulative > ext[1:][below]).any():
        below += under
    return np.repeat(particles, np.diff(bounds))


def pf_step(state: PfState, z: float, r: float, tau: float,
            predict_sigma: float, rng: np.random.Generator) -> PfState:
    """One particle-filter cycle: predict, weight, normalize, maybe resample.

    If every likelihood underflows to zero the weights reset to uniform and
    the returned state is flagged degenerate. The step works in place on
    the fresh noise draw and on one weight buffer; each operation is the
    same IEEE operation on the same operands as its out-of-place form.
    """
    m = len(state.particles)
    particles = rng.normal(0.0, predict_sigma, size=m)
    particles += state.particles
    weights = particles - z
    np.square(weights, out=weights)
    np.negative(weights, out=weights)
    weights /= 2.0 * r  # the log-likelihood
    weights -= weights.max()
    np.exp(weights, out=weights)
    weights *= state.weights
    total = weights.sum()
    degenerate = False
    if total <= 0.0 or not np.isfinite(total):
        weights.fill(1.0 / m)
        degenerate = True
    else:
        weights /= total
    if effective_sample_size(weights) < tau * m:
        particles = systematic_resample(particles, weights, rng)
        weights.fill(1.0 / m)
    return PfState._trusted(particles, weights, degenerate)


def _check_r(cfg: FilterConfig, d: int) -> None:
    if cfg.r is None or cfg.r.size != d:
        raise ValueError("cfg.r must hold one variance per channel")


def _start_cloud(pf: PfParams, i: int,
                 z_i: float) -> tuple[PfState, np.random.Generator]:
    """Channel i's first cloud, N(z_i, 1), drawn from its own generator
    (seeded by (pf.seed, i)), and that generator."""
    rng = np.random.default_rng(np.random.SeedSequence(pf.seed, spawn_key=(i,)))
    m = pf.n_particles
    return PfState(rng.normal(z_i, 1.0, m), np.full(m, 1.0 / m)), rng


def start_filter(cfg: FilterConfig, z: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Start every channel's filter at the first scan z: (state, estimate).

    The state has one entry per channel: for KF/UKF a KfState at the
    observation with p0 = r_i; for PF the channel's first cloud, its
    generator, and that generator's bit state after the draw. Method 'none'
    keeps no state and passes z through.
    """
    if cfg.method == "none":
        return (), z
    _check_r(cfg, len(z))
    if cfg.method != "pf":
        return (tuple(KfState(float(z_i), float(r_i))
                      for z_i, r_i in zip(z, cfg.r)), z.copy())
    state = []
    for i in range(len(z)):
        cloud, rng = _start_cloud(cfg.pf, i, float(z[i]))
        state.append((cloud, rng, rng.bit_generator.state))
    return tuple(state), np.array([entry[0].estimate for entry in state])


def step_filter(cfg: FilterConfig, state: tuple,
                z: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Advance every channel by one scan z: (new state, estimate).

    The result depends only on the given state and z, and that state stays
    valid: a caller that drops the result (because a later stage rejected
    the scan) goes on from the old state. A PF channel's generator is reset
    to the entry's bit state before it draws, so the states of one stream
    share generators and must be stepped from one thread.
    """
    if cfg.method == "none":
        return state, z
    out = np.empty(len(z))
    new = []
    if cfg.method == "pf":
        for i, (cloud, rng, bits) in enumerate(state):
            rng.bit_generator.state = bits
            cloud = pf_step(cloud, float(z[i]), float(cfg.r[i]),
                            cfg.pf.ess_tau, cfg.pf.predict_sigma, rng)
            new.append((cloud, rng, rng.bit_generator.state))
            out[i] = cloud.estimate
        return tuple(new), out
    for i, s in enumerate(state):
        r = float(cfg.r[i])
        if cfg.method == "kf":
            s = kf_step(s, float(z[i]), cfg.q_gamma * r, r)
        else:
            s = ukf_step(s, float(z[i]), cfg.q_gamma * r, r, cfg.ukf)
        new.append(s)
        out[i] = s.x_hat
    return tuple(new), out


def filter_stream(series: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Denoise a (T, d) stream, equal to start_filter on the first row and
    step_filter on each later one. Method 'none' is the identity.

    A PF stream is filtered channel by channel: each channel's cloud starts
    as in start_filter, is stepped through every row and is dropped before
    the next channel starts. A channel draws only from its own generator, so
    the order of the loops changes no bit.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[0] < 1:
        raise ValueError("series must be a (T, d) matrix with T >= 1")
    out = np.empty_like(series)
    if cfg.method == "pf":
        _check_r(cfg, series.shape[1])
        pf = cfg.pf
        for i, column in enumerate(series.T.tolist()):
            cloud, rng = _start_cloud(pf, i, column[0])
            out[0, i] = cloud.estimate
            r = float(cfg.r[i])
            for t in range(1, len(column)):
                cloud = pf_step(cloud, column[t], r, pf.ess_tau,
                                pf.predict_sigma, rng)
                out[t, i] = cloud.estimate
        return out
    state, out[0] = start_filter(cfg, series[0])
    for t in range(1, len(series)):
        state, out[t] = step_filter(cfg, state, series[t])
    return out
