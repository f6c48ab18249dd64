import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (reference_kf_step, reference_pf_step,  # noqa: E402
                     reference_systematic_resample, reference_ukf_step)

import fpfuse  # noqa: E402
from fpfuse import filters  # noqa: E402
from fpfuse.filters import (FilterConfig, KfState, PfState,
                            effective_sample_size,
                            filter_stream, kf_step, pf_noise, pf_step,
                            start_filter, step_filter, systematic_resample,
                            ukf_step)  # noqa: E402


class TestKf:
    def test_hand_case(self):
        s = kf_step(KfState(0.0, 1.0), 2.0, 0.0, 1.0)
        assert s.x_hat == pytest.approx(1.0, abs=1e-12)
        assert s.p == pytest.approx(0.5, abs=1e-12)

    def test_zero_gain_limit(self):
        s = kf_step(KfState(3.0, 1.0), -100.0, 0.0, 1e12)
        assert abs(s.x_hat - 3.0) < 1e-9

    def test_convergence_to_constant(self):
        s = KfState(0.0, 1.0)
        for _ in range(100):
            s = kf_step(s, 5.0, 0.25, 1.0)
        assert abs(s.x_hat - 5.0) < 0.05

    def test_variance_monotone_without_process_noise(self):
        s = KfState(0.0, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            new = kf_step(s, rng.normal(), 0.0, 1.0)
            assert new.p <= s.p
            s = new

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kf_step(KfState(0.0, 1.0), 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            kf_step(KfState(0.0, 1.0), 0.0, 0.0, 0.0)


class TestUkf:
    def test_matches_kf_hand_case(self):
        s = ukf_step(KfState(0.0, 1.0), 2.0, 0.0, 1.0)
        assert s.x_hat == pytest.approx(1.0, abs=1e-9)

    def test_equivalence_on_linear_model(self):
        rng = np.random.default_rng(0)
        kf = ukf = KfState(rng.normal(), 1.0)
        worst = 0.0
        for _ in range(10_000):
            z = rng.normal(scale=3.0)
            q = 0.5 * abs(rng.normal())
            r = 0.05 + abs(rng.normal())
            kf = kf_step(kf, z, q, r)
            ukf = ukf_step(ukf, z, q, r)
            worst = max(worst, abs(kf.x_hat - ukf.x_hat), abs(kf.p - ukf.p))
        assert worst < 1e-6

    def test_near_degenerate_variance_stays_finite(self):
        s = ukf_step(KfState(0.0, 1e-12), 2.0, 0.0, 1.0)
        assert np.isfinite(s.x_hat) and np.isfinite(s.p) and s.p > 0

    def test_vanishing_predicted_variance_raises(self):
        # the smallest subnormal variance underflows in the sigma spread, so
        # with q = 0 the predicted variance is exactly 0
        with pytest.raises(ValueError, match="ukf_step"):
            ukf_step(KfState(0.0, 5e-324), 2.0, 0.0, 1.0)


class TestPf:
    def test_all_particles_at_measurement(self):
        m = 64
        state = PfState(np.full(m, 0.9), np.full(m, 1.0 / m))
        rng = np.random.default_rng(0)
        out = pf_step(state, np.multiply(rng.standard_normal(m), 0.0) + 0.0,
                      0.9, 1.0, 0.3, rng)  # no prediction noise
        assert out.estimate == pytest.approx(0.9, abs=0.0)
        assert np.allclose(out.weights, 1.0 / m)

    @pytest.mark.parametrize("particles, weights", [
        (np.zeros(3), np.array([0.5, 0.6, -0.1])),  # negative
        (np.zeros(3), np.array([0.5, 0.25, 0.2])),  # sums to 0.95
        (np.zeros(2), np.array([np.nan, 1.0])),
        (np.zeros(3), np.full(2, 0.5)),  # lengths differ
        (np.zeros((2, 2)), np.full((2, 2), 0.25)),  # not 1-D
    ])
    def test_public_constructor_rejects_bad_weights(self, particles, weights):
        with pytest.raises(ValueError):
            PfState(particles, weights)

    def test_step_returns_read_only_state(self):
        m = 50
        state = PfState(np.linspace(-1.0, 1.0, m), np.full(m, 1.0 / m))
        for tau in (0.0, 1.0):  # without and with resampling
            rng = np.random.default_rng(1)
            out = pf_step(state, np.multiply(rng.standard_normal(m), 0.1)
                          + 0.0, 0.2, 0.5, tau, rng)
            assert not out.particles.flags.writeable
            assert not out.weights.flags.writeable
            assert abs(out.weights.sum() - 1.0) < 1e-12

    def test_step_reads_its_noise_block_and_checks_its_length(self):
        m = 50
        state = PfState(np.linspace(-1.0, 1.0, m), np.full(m, 1.0 / m))
        eps = np.multiply(np.random.default_rng(2).standard_normal(m), 0.3)
        eps += 0.0
        eps.setflags(write=False)  # one block serves every channel of a scan
        before = eps.tobytes()
        pf_step(state, eps, 0.2, 0.5, 1.0, np.random.default_rng(3))
        assert eps.tobytes() == before
        for bad in (eps[:-1], np.zeros((m, 1))):
            with pytest.raises(ValueError, match="one standard normal draw"):
                pf_step(state, bad, 0.2, 0.5, 1.0, np.random.default_rng(3))

    def test_ess_definition_no_resample(self):
        w = np.full(100, 0.01)
        assert effective_sample_size(w) == pytest.approx(100.0)

    def test_ess_is_independent_of_blas_threads(self):
        # OpenBLAS splits a dot of more than 10 000 elements across its
        # threads, which changes both its cost and its rounding; the ESS
        # sum must not depend on how many threads BLAS runs
        code = ("import numpy as np\n"
                "from fpfuse.filters import effective_sample_size\n"
                "for seed in range(8):\n"
                "    w = np.random.default_rng(seed).random(16_000)\n"
                "    w /= w.sum()\n"
                "    print(effective_sample_size(w).hex())\n")
        src = str(Path(fpfuse.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True,
                               env={**os.environ, "PYTHONPATH": src,
                                    "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert len(outs[0].split()) == 8
        assert outs[0] == outs[1]

    def test_constant_signal_convergence(self):
        rng = np.random.default_rng(7)
        m = 10_000
        state = PfState(rng.normal(0.7, 1.0, m), np.full(m, 1.0 / m))
        for _ in range(50):
            state = pf_step(state, np.multiply(rng.standard_normal(m), 1.0)
                            + 0.0, 0.7, 1.0, 0.3, rng)
        assert abs(state.estimate - 0.7) < 0.05

    def test_weight_simplex_invariant(self):
        rng = np.random.default_rng(3)
        m = 200
        state = PfState(rng.normal(size=m), np.full(m, 1.0 / m))
        for t in range(50):
            state = pf_step(state, np.multiply(rng.standard_normal(m), 1.0)
                            + 0.0, float(np.sin(t)), 0.5, 0.5, rng)
            assert np.all(state.weights >= 0)
            assert abs(state.weights.sum() - 1.0) < 1e-9
            ess = effective_sample_size(state.weights)
            assert 1.0 - 1e-9 <= ess <= m + 1e-9

    def test_degenerate_likelihood_resets(self):
        # all mass on a particle 1000 sigma from the measurement underflows
        particles = np.array([1000.0, 0.0])
        weights = np.array([1.0, 0.0])
        rng = np.random.default_rng(0)
        out = pf_step(PfState(particles, weights),
                      np.multiply(rng.standard_normal(2), 0.0) + 0.0, 0.0,
                      1e-4, 0.3, rng)
        assert out.degenerate_reset

    def test_systematic_resample_preserves_mean(self):
        devs = []
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            particles = rng.normal(size=10_000)
            w = rng.random(10_000)
            w /= w.sum()
            resampled = systematic_resample(particles, w, rng)
            devs.append(abs(resampled.mean() - w @ particles))
        assert max(devs) < 0.02

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_resample_output_is_subset(self, seed):
        rng = np.random.default_rng(seed)
        particles = rng.normal(size=50)
        w = rng.random(50)
        w /= w.sum()
        out = systematic_resample(particles, w, rng)
        assert set(out).issubset(set(particles))


class TestFilterStream:
    def test_none_is_identity(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(20, 3))
        out = filter_stream(series, FilterConfig("none"))
        assert np.array_equal(out, series)

    def test_constant_series_is_fixed_point(self):
        series = np.full((30, 2), 1.5)
        cfg = FilterConfig("kf", 0.25, r=np.array([1.0, 2.0]))
        out = filter_stream(series, cfg)
        assert np.allclose(out, 1.5, atol=1e-12)

    def test_kf_reduces_white_noise_variance(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(1000, 1))
        out = filter_stream(series, FilterConfig("kf", 0.25, r=np.array([1.0])))
        assert out.var() < series.var()

    def test_pf_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=(10, 2))
        cfg = FilterConfig("pf", 0.5, 500, 0.5, 1.0, r=np.array([1.0, 1.0]),
                           seed=3)
        assert np.array_equal(filter_stream(series, cfg),
                              filter_stream(series, cfg))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            filter_stream(np.zeros((5, 3)), FilterConfig("kf", 0.5, r=np.array([1.0])))

    def test_initialized_at_first_observation(self):
        series = np.array([[4.0], [4.5]])
        out = filter_stream(series, FilterConfig("ukf", 0.5, r=np.array([1.0])))
        assert out[0, 0] == 4.0

    @pytest.mark.parametrize("method", ["kf", "ukf", "pf", "none"])
    def test_step_leaves_its_state_unchanged(self, method):
        cfg = FilterConfig(method, 0.5, 200, 0.9, 1.0, r=np.array([1.0, 2.0]),
                           seed=1)
        state, _ = start_filter(cfg, np.array([0.5, -1.0]))
        z = np.array([3.0, -0.2])  # far from the cloud: the PF resamples
        first = step_filter(cfg, state, z)
        again = step_filter(cfg, state, z)
        assert np.array_equal(first[1], again[1])
        _, next_est = step_filter(cfg, first[0], z)
        expect = filter_stream(np.array([[0.5, -1.0], z, z]), cfg)
        assert np.array_equal(next_est, expect[2])


def _replay(series, cfg):
    """Scan by scan: start_filter on the first row, step_filter on each
    later one; also returns how many PF steps resampled or reset."""
    state, first = start_filter(cfg, series[0])
    rows, resampled, degenerate = [first], 0, 0
    for z in series[1:]:
        state, est = step_filter(cfg, state, z)
        rows.append(est)
        if cfg.method == "pf":
            for cloud in state[0]:
                degenerate += cloud.degenerate_reset
                resampled += bool(np.all(cloud.weights == cloud.weights[0]))
    return np.array(rows), resampled, degenerate


def _hand_pf_replay(series, cfg):
    """A PF stream by hand: one generator seeded by cfg.seed, one N(0, 1)
    block shifted by each z_i for the first clouds, then one block of
    standard normals per scan, scaled by predict_sigma, that pf_step reads
    channel by channel.
    Returns (clouds, estimates, the generator's final bit state)."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    m = cfg.n_particles
    base = rng.standard_normal(m)
    clouds = [PfState(base + z, np.full(m, 1.0 / m)) for z in series[0]]
    rows = [[cloud.estimate for cloud in clouds]]
    for scan in series[1:]:
        noise = np.multiply(rng.standard_normal(m), cfg.predict_sigma) + 0.0
        for i, z in enumerate(scan):
            clouds[i] = pf_step(clouds[i], noise, float(z), float(cfg.r[i]),
                                cfg.ess_tau, rng)
        rows.append([cloud.estimate for cloud in clouds])
    return clouds, np.array(rows), rng.bit_generator.state


class TestSharedDrawStream:
    """filter_stream runs every method through start_filter/step_filter. A
    PF stream has one generator: one N(0, 1) block starts every channel's
    cloud, and each later scan draws one block that every channel's
    pf_step shares."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 20),
           d=st.integers(1, 4), method=st.sampled_from(["kf", "ukf", "pf",
                                                         "none"]),
           m=st.integers(2, 50),
           tau=st.sampled_from([1e-12, 0.01, 0.5, 0.99, 1.0 - 1e-12]),
           sigma=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
           r_scale=st.sampled_from([1e-6, 1e-2, 1.0, 25.0]))
    def test_equals_scan_major_replay(self, seed, t, d, method, m, tau, sigma,
                                      r_scale):
        rng = np.random.default_rng(seed)
        series = rng.normal(0.0, 2.0, size=(t, d))
        cfg = FilterConfig(method, 0.5, m, tau, sigma,
                           r=r_scale * rng.uniform(0.5, 2.0, d), seed=seed)
        expect, _, _ = _replay(series, cfg)
        assert filter_stream(series, cfg).tobytes() == expect.tobytes()

    def test_resets_and_resamples_are_replayed(self):
        # a tiny r underflows clouds that drift off the data; tau near 1
        # resamples on most steps, tau near 0 keeps the zero weights
        rng = np.random.default_rng(5)
        series = np.cumsum(rng.normal(0.0, 3.0, size=(20, 3)), axis=0)
        for tau, event in ((1.0 - 1e-12, "resampled"), (1e-12, "degenerate")):
            cfg = FilterConfig("pf", 0.5, 20, tau, 0.5, r=np.full(3, 1e-6),
                               seed=11)
            expect, resampled, degenerate = _replay(series, cfg)
            assert {"resampled": resampled, "degenerate": degenerate}[event] > 0
            assert filter_stream(series, cfg).tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 12),
           d=st.integers(1, 12), m=st.sampled_from([2, 3, 50, 1_000]),
           tau=st.sampled_from([1e-12, 0.3, 0.9, 1.0 - 1e-12]),
           sigma=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
           r_scale=st.sampled_from([1e-6, 1e-2, 1.0, 25.0]))
    def test_pf_equals_hand_replay_of_one_draw_per_scan(self, seed, t, d, m,
                                                         tau, sigma, r_scale):
        rng = np.random.default_rng(seed)
        series = rng.normal(0.0, 2.0, size=(t, d))
        cfg = FilterConfig("pf", 0.5, m, tau, sigma,
                           r=r_scale * rng.uniform(0.5, 2.0, d), seed=seed)
        clouds, expect, bits = _hand_pf_replay(series, cfg)
        state, first = start_filter(cfg, series[0])
        rows = [first]
        for z in series[1:]:
            state, est = step_filter(cfg, state, z)
            rows.append(est)
        got, stream_rng, got_bits = state
        assert np.array(rows).tobytes() == expect.tobytes()
        assert filter_stream(series, cfg).tobytes() == expect.tobytes()
        assert len(got) == d
        for ours, theirs in zip(got, clouds):
            assert ours.particles.tobytes() == theirs.particles.tobytes()
            assert ours.weights.tobytes() == theirs.weights.tobytes()
            assert ours.degenerate_reset == theirs.degenerate_reset
        assert got_bits == bits
        assert stream_rng.bit_generator.state == bits

    def test_pf_dimension_mismatch(self):
        cfg = FilterConfig("pf", n_particles=10, ess_tau=0.5,
                           r=np.array([1.0]), seed=0)
        with pytest.raises(ValueError, match="one variance per channel"):
            filter_stream(np.zeros((4, 2)), cfg)

    def test_pf_needs_a_bound_seed(self):
        # an unbound seed would draw from fresh OS entropy on every run
        cfg = FilterConfig("pf", n_particles=10, r=np.array([1.0]))
        with pytest.raises(ValueError, match="seed must be bound"):
            filter_stream(np.zeros((4, 1)), cfg)
        with pytest.raises(ValueError, match="seed must be bound"):
            start_filter(cfg, np.zeros(1))


def _outcome(fn):
    """fn()'s result, or the type of the ValueError it raised."""
    try:
        return fn()
    except ValueError:
        return ValueError


class TestArrayStateMatchesReference:
    """One KfState of (d,) arrays steps every channel in one elementwise
    pass; each channel equals the scalar reference steps bit for bit."""

    @staticmethod
    def reference(method):
        return reference_kf_step if method == "kf" else reference_ukf_step

    def reference_stream(self, series, cfg):
        step = self.reference(cfg.method)
        out = np.empty_like(series)
        for i, column in enumerate(series.T.tolist()):
            r = float(cfg.r[i])
            x, p = column[0], r
            out[0, i] = x
            for t in range(1, len(column)):
                x, p = step(x, p, column[t], cfg.gamma * r, r)
                out[t, i] = x
        return out

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["kf", "ukf"]),
           t=st.integers(1, 30), d=st.integers(1, 12),
           r_scale=st.sampled_from([1e-6, 1e-3, 1.0, 25.0]),
           gamma=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
           p_low=st.sampled_from([1e-12, 1e-6, 1.0]))
    def test_equals_per_channel_reference(self, seed, method, t, d, r_scale,
                                          gamma, p_low):
        rng = np.random.default_rng(seed)
        series = rng.normal(0.0, 2.0, size=(t, d))
        cfg = FilterConfig(method, gamma, r=r_scale * rng.uniform(0.5, 2.0, d))
        expect = self.reference_stream(series, cfg).tobytes()
        assert filter_stream(series, cfg).tobytes() == expect
        assert _replay(series, cfg)[0].tobytes() == expect

        # any state: variances from p_low up, stepped as d channels and as
        # the scalar (0-d) case of the same functions
        x0 = rng.normal(0.0, 2.0, d)
        p0 = p_low * 10.0 ** rng.uniform(0.0, 2.0, d)
        z = series[-1]
        step = self.reference(method)
        want = [_outcome(lambda i=i: step(x0[i], p0[i], z[i],
                                          cfg.gamma * cfg.r[i], cfg.r[i]))
                for i in range(d)]
        got = _outcome(lambda: step_filter(cfg, KfState(x0, p0), z)[0])
        if ValueError in want:
            assert got is ValueError
            return
        assert got.x_hat.tobytes() == np.array([w[0] for w in want]).tobytes()
        assert got.p.tobytes() == np.array([w[1] for w in want]).tobytes()
        one = (kf_step if method == "kf" else ukf_step)(
            KfState(x0[0], p0[0]), z[0], cfg.gamma * cfg.r[0], cfg.r[0])
        assert one.x_hat.shape == one.p.shape == ()
        assert np.array([one.x_hat, one.p]).tobytes() == np.array(want[0]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12))
    def test_vanishing_variance_names_the_first_channel(self, seed, d):
        # the smallest subnormal variance underflows in the sigma spread, so
        # with q = 0 the predicted variance is exactly 0
        rng = np.random.default_rng(seed)
        vanish = rng.random(d) < 0.4
        vanish[rng.integers(d)] = True
        first = int(np.argmax(vanish))
        p = np.where(vanish, 5e-324, rng.uniform(0.1, 2.0, d))
        cfg = FilterConfig("ukf", 0.0, r=rng.uniform(0.5, 2.0, d))
        for i in range(d):
            step = _outcome(lambda i=i: reference_ukf_step(
                0.0, p[i], 2.0, 0.0, cfg.r[i]))
            assert (step is ValueError) == vanish[i]
        with pytest.raises(ValueError,
                           match=f"^ukf_step: channel {first} predicted"):
            step_filter(cfg, KfState(np.zeros(d), p), np.full(d, 2.0))


class _Offset:
    """Stands in for the generator of systematic_resample: uniform(low,
    high) returns low + frac * (high - low), so a test fixes the offset."""

    def __init__(self, frac: float):
        self.frac = frac

    def uniform(self, low, high):
        return low + self.frac * (high - low)


PARTICLE_COUNTS = [2, 3, 7, 10_000]


def _weights(rng, particles, kind):
    m = len(particles)
    if kind == "flat":
        return np.full(m, 1.0 / m)
    if kind == "peaked":  # exact zeros where the likelihood underflows
        w = np.exp(-((particles - particles[0]) ** 2) / 1e-3)
        return w / w.sum()
    if kind == "one-hot":
        w = np.zeros(m)
        w[rng.integers(m)] = 1.0
        return w
    return rng.dirichlet(np.full(m, 0.05 if kind == "sparse" else 1.0))


class TestPfMatchesReference:
    """The in-place step and the linear resample equal the out-of-place step
    and binary-search resampling bit for bit, random draws included."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           kind=st.sampled_from(["flat", "peaked", "one-hot", "sparse",
                                 "dirichlet", "on-positions"]),
           frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    def test_resample(self, seed, m, kind, frac):
        rng = np.random.default_rng(seed)
        particles = np.arange(m, dtype=float)  # the output names the indices
        if kind == "on-positions":
            # cumulative weights that land exactly on resampling positions
            positions = frac / m + np.arange(m) / m
            cuts = np.sort(rng.choice(positions, size=m - 1))
            w = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        else:
            w = _weights(rng, rng.normal(size=m), kind)
        got = systematic_resample(particles, w, _Offset(frac))
        expect = reference_systematic_resample(particles, w, _Offset(frac))
        assert got.tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           kind=st.sampled_from(["flat", "peaked", "one-hot", "sparse",
                                 "dirichlet"]),
           z=st.floats(-5.0, 5.0), r=st.sampled_from([1e-4, 0.05, 1.0, 30.0]),
           tau=st.sampled_from([1e-12, 0.3, 0.9, 1.0 - 1e-12]),
           sigma=st.sampled_from([0.0, 1.0]))
    def test_pf_step(self, seed, m, kind, z, r, tau, sigma):
        init = np.random.default_rng(seed)
        particles = init.normal(size=m)
        state = PfState(particles, _weights(init, particles, kind))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = (state.particles, state.weights)
        for _ in range(3):
            state = pf_step(state, np.multiply(ours.standard_normal(m), sigma)
                            + 0.0, z, r, tau, ours)
            p, w, degenerate = reference_pf_step(*ref, z, r, tau, sigma, theirs)
            assert state.particles.tobytes() == p.tobytes()
            assert state.weights.tobytes() == w.tobytes()
            assert state.degenerate_reset == degenerate
            ref = (p, w)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           sigma=st.sampled_from([0.0, 5e-324, 1e-300, 0.3, 1.0, 4.0]),
           zeros=st.sampled_from(["none", "+0", "-0", "mixed"]))
    def test_noise_draw_equals_normal(self, seed, m, sigma, zeros):
        # tau ~ 0 never resamples, so the step returns its predicted cloud
        particles = np.random.default_rng(seed).normal(size=m)
        if zeros != "none":
            particles[:] = -0.0 if zeros == "-0" else 0.0
            if zeros == "mixed":
                particles[::2] = -0.0
        state = PfState(particles, np.full(m, 1.0 / m))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        out = pf_step(state, np.multiply(ours.standard_normal(m), sigma) + 0.0,
                      0.0, 1.0, 1e-12, ours)
        expect = particles + theirs.normal(0.0, sigma, size=m)
        assert out.particles.tobytes() == expect.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           sigma=st.sampled_from([0.0, 5e-324, 1e-300, 0.3, 1.0, 4.0]))
    def test_pf_noise_equals_normal(self, seed, m, sigma):
        # the block step_filter scales once per scan is rng.normal's draw
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        noise = pf_noise(ours, m, sigma)
        assert noise.tobytes() == theirs.normal(0.0, sigma, m).tobytes()
        assert not noise.flags.writeable
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           z=st.lists(st.sampled_from([0.0, -0.0, -1.5, 3.25, 1e-300]),
                      min_size=1, max_size=6))
    def test_start_cloud_equals_normal(self, seed, m, z):
        # every channel's first cloud is rng.normal(z_i, 1.0, m) from a
        # fresh generator of the stream's seed: one block, shifted per channel
        cfg = FilterConfig(n_particles=m, r=np.ones(len(z)), seed=seed)
        (clouds, rng, bits), est = start_filter(cfg, np.array(z))
        assert len(clouds) == len(z)
        for cloud, z_i in zip(clouds, z):
            theirs = np.random.default_rng(np.random.SeedSequence(seed))
            expect = theirs.normal(z_i, 1.0, m)
            assert cloud.particles.tobytes() == expect.tobytes()
            assert cloud.weights.tobytes() == np.full(m, 1.0 / m).tobytes()
            assert rng.bit_generator.state == bits == theirs.bit_generator.state
        assert est.tobytes() == np.array([c.estimate for c in clouds]).tobytes()

    def test_negative_zero_sigma_is_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="scale < 0"):
            np.random.default_rng(0).normal(0.0, -0.0, 3)
        for sigma in (-0.0, -1.0):
            with pytest.raises(ValueError, match="predict_sigma"):
                FilterConfig(predict_sigma=sigma)
            with pytest.raises(ValueError, match="predict_sigma"):
                pf_noise(np.random.default_rng(0), 4, sigma)
        # rng.normal takes a NaN scale, and so does pf_noise; the config type
        # rejects it, because a NaN cloud fails only a later stage
        assert np.isnan(np.random.default_rng(0).normal(0.0, np.nan, 1)[0])
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="predict_sigma must be finite"):
                FilterConfig(predict_sigma=sigma)

    @pytest.mark.parametrize("kwargs,field", [
        ({"n_particles": 1}, "n_particles"), ({"n_particles": 2.5}, "n_particles"),
        ({"ess_tau": 0.0}, "ess_tau"), ({"ess_tau": np.nan}, "ess_tau"),
        ({"predict_sigma": np.nan}, "predict_sigma"),
        ({"predict_sigma": -0.0}, "predict_sigma"),
    ])
    def test_params_name_the_rejected_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^FilterConfig.{field} must"):
            FilterConfig(**kwargs)

    @pytest.mark.parametrize("m", PARTICLE_COUNTS)
    @pytest.mark.parametrize("tau", [1e-12, 1.0 - 1e-12])
    def test_full_underflow(self, m, tau):
        # all mass on the particle farthest from z: every weight underflows
        particles = np.linspace(0.0, 1.0, m)
        weights = np.zeros(m)
        weights[-1] = 1.0
        rng = np.random.default_rng(m)
        out = pf_step(PfState(particles, weights),
                      np.multiply(rng.standard_normal(m), 0.0) + 0.0,
                      -1000.0, 1e-4, tau, rng)
        p, w, degenerate = reference_pf_step(particles, weights, -1000.0, 1e-4,
                                             tau, 0.0, np.random.default_rng(m))
        assert out.degenerate_reset and degenerate
        assert out.particles.tobytes() == p.tobytes()
        assert out.weights.tobytes() == w.tobytes()


class TestUniformWeights:
    """A first cloud's uniform weights step like the out-of-place reference,
    a degenerate reset leaves uniform weights whether or not it resamples,
    and no step writes its caller's arrays."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           z=st.floats(-5.0, 5.0), r=st.sampled_from([1e-4, 0.05, 1.0, 30.0]),
           tau=st.sampled_from([1e-12, 0.3, 0.9, 1.0 - 1e-12]),
           sigma=st.sampled_from([0.0, 1.0]))
    def test_first_cloud_steps_like_reference(self, seed, m, z, r, tau,
                                              sigma):
        cfg = FilterConfig(n_particles=m, r=np.ones(1), seed=seed)
        (clouds, _, _), _ = start_filter(cfg, np.array([z]))
        state = clouds[0]
        uniform = np.full(m, 1.0 / m)
        assert state.weights.tobytes() == uniform.tobytes()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = (state.particles, uniform)
        for _ in range(4):
            with mock.patch.object(filters, "systematic_resample",
                                   wraps=systematic_resample) as resample:
                state = pf_step(state, np.multiply(ours.standard_normal(m),
                                                   sigma) + 0.0,
                                z, r, tau, ours)
            p, w, degenerate = reference_pf_step(*ref, z, r, tau, sigma,
                                                 theirs)
            assert state.particles.tobytes() == p.tobytes()
            assert state.weights.tobytes() == w.tobytes()
            assert state.degenerate_reset == degenerate
            if degenerate or resample.called:
                assert state.weights.tobytes() == uniform.tobytes()
            ref = (p, w)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("m", PARTICLE_COUNTS)
    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_degenerate_reset_then_resample(self, m, tau):
        # every weight underflows and the weights reset to uniform; pf_step
        # does not check tau, so at tau = 2 the reset cloud is always
        # resampled, and at tau = 1 whenever its ESS, as computed, rounds
        # below m
        particles = np.linspace(0.0, 1.0, m)
        weights = np.zeros(m)
        weights[-1] = 1.0
        ours, theirs = np.random.default_rng(m), np.random.default_rng(m)
        out = pf_step(PfState(particles, weights), np.zeros(m), -1000.0,
                      1e-4, tau, ours)
        uniform = np.full(m, 1.0 / m)
        assert out.degenerate_reset
        assert out.weights.tobytes() == uniform.tobytes()
        resampled = effective_sample_size(uniform) < tau * m
        assert resampled or tau == 1.0
        reference = (systematic_resample(particles, uniform, theirs)
                     if resampled else particles)
        assert out.particles.tobytes() == reference.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from(PARTICLE_COUNTS),
           kind=st.sampled_from(["flat", "peaked", "one-hot", "sparse",
                                 "dirichlet", "first-cloud", "underflow"]),
           tau=st.sampled_from([1e-12, 0.3, 1.0 - 1e-12, 1.0]))
    def test_no_step_writes_its_inputs(self, seed, m, kind, tau):
        rng = np.random.default_rng(seed)
        particles = rng.normal(size=m)
        z, r = 0.3, 0.5
        if kind == "first-cloud":  # start_filter's read-only weights
            cfg = FilterConfig(n_particles=m, r=np.ones(1), seed=seed)
            (clouds, _, _), _ = start_filter(cfg, np.array([z]))
            particles, weights = clouds[0].particles, clouds[0].weights
        elif kind == "underflow":  # all mass far from z: the step resets
            particles = np.linspace(0.0, 1.0, m)
            weights = np.zeros(m)
            weights[-1] = 1.0
            z, r = -1000.0, 1e-4
        else:
            weights = _weights(rng, particles, kind)
        sigma = 0.0 if kind == "underflow" else 1.0
        noise = np.multiply(rng.standard_normal(m), sigma) + 0.0
        arrays = (particles, weights, noise)
        before = [a.tobytes() for a in arrays]
        # the resample on the caller's arrays, then a step
        systematic_resample(particles, weights, np.random.default_rng(seed))
        assert [a.tobytes() for a in arrays] == before
        out = pf_step(PfState(particles, weights), noise, z, r, tau,
                      np.random.default_rng(seed))
        assert [a.tobytes() for a in arrays] == before
        assert out.particles is not particles
        assert out.weights is not weights
        assert not (out.particles.flags.writeable or out.weights.flags.writeable)
        if kind == "underflow":
            assert out.degenerate_reset
            assert out.weights.tobytes() == np.full(m, 1.0 / m).tobytes()
