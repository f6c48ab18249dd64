"""Per-channel denoising filters: Kalman, unscented Kalman, particle.

Every RSS channel is filtered independently with a random-walk state model
x_t = x_{t-1} + v,  z_t = x_t + n,  v ~ N(0, q),  n ~ N(0, r).
The measurement variance r comes from training-set channel statistics and
q = gamma * r. The particle filter uses the same Gaussian likelihood and
triggers systematic resampling when the effective sample size drops below
tau * n_particles.

One frozen FilterConfig holds every setting of a filter and checks them when
it is built; the UKF spread is fixed (UKF_ALPHA, UKF_KAPPA, UKF_BETA).

pf_step works in place on its fresh noise draw and one weight buffer, and
systematic_resample finds each position's particle in one linear pass (an
arithmetic guess stepped to the exact count) instead of a binary search.
Both equal the out-of-place, binary-search forms bit for bit, random draws
included, so a stream's estimates do not depend on which form ran.

One function pair filters a scan: start_filter on a stream's first scan,
step_filter on each later one; both return (state, estimate). KF/UKF state
is one KfState of (d,) arrays, and kf_step and ukf_step step every channel
in one elementwise pass, each channel bit for bit a scalar step.
PredictorSession runs the pair over live scans. filter_stream denoises a
recorded stream to the same bits: KF and UKF through the pair, PF channel by
channel through pf_step, the one particle-filter step.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

METHODS = ("kf", "ukf", "pf", "none")


# The scalar unscented transform's spread (the standard defaults) and the
# sigma-point weights it gives: c = n + lambda = alpha^2 (n + kappa), n = 1.
UKF_ALPHA = 1e-3
UKF_KAPPA = 0.0
UKF_BETA = 2.0
_UKF_LAM = UKF_ALPHA ** 2 * (1.0 + UKF_KAPPA) - 1.0
_UKF_C = 1.0 + _UKF_LAM
_UKF_WM = np.array([_UKF_LAM / _UKF_C, 0.5 / _UKF_C, 0.5 / _UKF_C])
_UKF_WC = _UKF_WM.copy()
_UKF_WC[0] += 1.0 - UKF_ALPHA ** 2 + UKF_BETA


def _check_sigma(sigma: float) -> None:
    """Reject a negative noise scale as rng.normal does: -0.0 is negative,
    NaN is not."""
    if math.copysign(1.0, sigma) < 0 and not math.isnan(sigma):
        raise ValueError("predict_sigma must be >= 0")


@dataclass(frozen=True)
class FilterConfig:
    """Which filter runs on each channel, and its noise model.

    A user sets method, gamma and the particle fields. A fit binds r (one
    measurement variance per channel) and seed (the root of the PF
    generators) with dataclasses.replace.
    """

    method: str = "pf"  # kf | ukf | pf | none
    gamma: float = 0.5  # process noise q = gamma * r
    n_particles: int = 10_000
    ess_tau: float = 0.3
    predict_sigma: float = 1.0
    r: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        def reject(name: str, rule: str):
            raise ValueError(f"FilterConfig.{name} must be {rule}, got "
                             f"{getattr(self, name)!r}")

        if self.method not in METHODS:
            reject("method", f"one of {METHODS}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            reject("gamma", "finite and >= 0")
        if not isinstance(self.n_particles, numbers.Integral) or self.n_particles < 2:
            reject("n_particles", "an integer >= 2")
        if not 0.0 < self.ess_tau < 1.0:
            reject("ess_tau", "in (0, 1)")
        if not math.isfinite(self.predict_sigma):  # rng.normal takes NaN
            reject("predict_sigma", "finite")
        if math.copysign(1.0, self.predict_sigma) < 0:  # -0.0 too, as numpy
            reject("predict_sigma", ">= 0")
        if self.seed is not None and not (
                isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            reject("seed", "None or an integer >= 0")
        if self.r is not None:
            r = np.asarray(self.r, dtype=float)
            if r.ndim != 1 or not np.all(np.isfinite(r) & (r > 0)):
                reject("r", "None or a 1-D array of finite values > 0")
            r.setflags(write=False)
            object.__setattr__(self, "r", r)

    def choices(self) -> dict:
        """The user-set fields, as the fit's and the ladder's config
        snapshots record them."""
        return {name: getattr(self, name) for name in
                ("method", "gamma", "n_particles", "ess_tau", "predict_sigma")}


@dataclass(frozen=True, eq=False)
class KfState:
    """Gaussian posteriors: estimates x_hat with variances p, read-only float
    arrays of one shape, (d,) for d channels or 0-d for one."""

    x_hat: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x, p = np.array(self.x_hat, dtype=float), np.array(self.p, dtype=float)
        if x.shape != p.shape or not (p > 0).all():
            raise ValueError("state variance must be positive, one per "
                             "estimate")
        for name, value in (("x_hat", x), ("p", p)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


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


def kf_step(state: KfState, z, q, r) -> KfState:
    """One Kalman predict/update cycle on every channel; z, q and r are
    scalars or one value per channel."""
    if np.less(q, 0).any() or np.less_equal(r, 0).any():
        raise ValueError("need q >= 0 and r > 0")
    p = state.p + q
    gain = p / (p + r)
    x = state.x_hat + gain * (z - state.x_hat)
    p = (1.0 - gain) * p
    return KfState(x, p)


def _sigma_points(mean, var) -> np.ndarray:
    """Each channel's sigma points in a row of four (the fourth repeats the
    first): like a fresh 3-point array, each row starts 16-byte aligned."""
    spread = np.sqrt(_UKF_C * var)
    return np.stack([mean, mean + spread, mean - spread, mean], axis=-1)


def _weighted(w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Each channel's w @ pts[i, :3] as the scalar w @ chi's BLAS dot under
    any kernel: weights first (points first or np.vecdot may round
    differently), on a 16-byte aligned row (OpenBLAS Prescott needs it)."""
    return (w @ pts[..., :3, None])[..., 0]


def ukf_step(state: KfState, z, q, r) -> KfState:
    """One unscented update on every channel; z, q and r as in kf_step.

    Sigma points are propagated through the (identity) process and measurement
    models and the moments recomputed from weighted sums, so on this linear
    model the result agrees with kf_step to floating-point cancellation.
    """
    if np.less(q, 0).any() or np.less_equal(r, 0).any():
        raise ValueError("need q >= 0 and r > 0")
    wm, wc = _UKF_WM, _UKF_WC

    chi = _sigma_points(state.x_hat, state.p)
    # identity dynamics; recompute predicted moments from the points
    x_pred = _weighted(wm, chi)
    p_pred = _weighted(wc, (chi - x_pred[..., None]) ** 2) + q
    if not (p_pred > 0).all():
        i = int(np.argmin(p_pred > 0))  # the first failing channel
        raise ValueError(f"ukf_step: channel {i} predicted variance "
                         f"{float(p_pred.flat[i])!r} is not positive")

    chi = _sigma_points(x_pred, p_pred)  # zeta = chi: identity measurement
    z_pred = _weighted(wm, chi)
    dz = chi - z_pred[..., None]
    s = _weighted(wc, dz ** 2) + r
    cross = _weighted(wc, (chi - x_pred[..., None]) * dz)
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
    _check_sigma(predict_sigma)
    m = len(state.particles)
    # rng.normal(0.0, predict_sigma, m) as numpy computes it, without its
    # per-element parameter handling: the same standard draws, each scaled,
    # then shifted by 0.0 (which turns -0.0 into +0.0)
    particles = rng.standard_normal(m)
    particles *= predict_sigma
    particles += 0.0
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


def _check_bound(cfg: FilterConfig, d: int) -> None:
    """The fields a fit binds: r for every filter, seed for the PF."""
    if cfg.r is None or cfg.r.size != d:
        raise ValueError("cfg.r must hold one variance per channel")
    if cfg.method == "pf" and cfg.seed is None:
        raise ValueError("cfg.seed must be bound before a particle filter runs")


def _start_cloud(cfg: FilterConfig, i: int,
                 z_i: float) -> tuple[PfState, np.random.Generator]:
    """Channel i's first cloud, N(z_i, 1), drawn from its own generator
    (seeded by (cfg.seed, i)), and that generator."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
    m = cfg.n_particles
    particles = rng.standard_normal(m)  # rng.normal(z_i, 1.0, m), bit for bit
    particles += z_i
    return PfState(particles, np.full(m, 1.0 / m)), rng


def start_filter(cfg: FilterConfig,
                 z: np.ndarray) -> tuple[KfState | tuple, np.ndarray]:
    """Start every channel's filter at the first scan z: (state, estimate).

    For KF/UKF the state is one KfState at the observation with p0 = r; for
    PF it has one entry per channel: the channel's first cloud, its
    generator, and that generator's bit state after the draw. Method 'none'
    keeps no state and passes z through.
    """
    if cfg.method == "none":
        return (), z
    _check_bound(cfg, len(z))
    if cfg.method != "pf":
        state = KfState(z, cfg.r)
        return state, state.x_hat
    state = []
    for i in range(len(z)):
        cloud, rng = _start_cloud(cfg, i, float(z[i]))
        state.append((cloud, rng, rng.bit_generator.state))
    return tuple(state), np.array([entry[0].estimate for entry in state])


def step_filter(cfg: FilterConfig, state: KfState | tuple,
                z: np.ndarray) -> tuple[KfState | tuple, np.ndarray]:
    """Advance every channel by one scan z: (new state, estimate).

    The result depends only on the given state and z, and that state stays
    valid: a caller that drops the result (because a later stage rejected
    the scan) goes on from the old state. A PF channel's generator is reset
    to the entry's bit state before it draws, so the states of one stream
    share generators and must be stepped from one thread.
    """
    if cfg.method == "none":
        return state, z
    if cfg.method == "pf":
        out = np.empty(len(z))
        new = []
        for i, (cloud, rng, bits) in enumerate(state):
            rng.bit_generator.state = bits
            cloud = pf_step(cloud, float(z[i]), float(cfg.r[i]),
                            cfg.ess_tau, cfg.predict_sigma, rng)
            new.append((cloud, rng, rng.bit_generator.state))
            out[i] = cloud.estimate
        return tuple(new), out
    step = kf_step if cfg.method == "kf" else ukf_step
    state = step(state, z, cfg.gamma * cfg.r, cfg.r)
    return state, state.x_hat


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
        _check_bound(cfg, series.shape[1])
        for i, column in enumerate(series.T.tolist()):
            cloud, rng = _start_cloud(cfg, i, column[0])
            out[0, i] = cloud.estimate
            r = float(cfg.r[i])
            for t in range(1, len(column)):
                cloud = pf_step(cloud, column[t], r, cfg.ess_tau,
                                cfg.predict_sigma, rng)
                out[t, i] = cloud.estimate
        return out
    state, out[0] = start_filter(cfg, series[0])
    for t in range(1, len(series)):
        state, out[t] = step_filter(cfg, state, series[t])
    return out
