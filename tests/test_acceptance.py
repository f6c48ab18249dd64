"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance and
prints a single `[acceptance] criterion N: PASS/FAIL` line (run with -s to see
the lines live). The directional-replication fixture performs the full
10-seed synthetic protocol once and is shared by criteria 4 and 5.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import sys
sys.path.insert(0, str(Path(__file__).parent))
from oracles import (brute_force_knn, rips_diagrams_bruteforce,  # noqa: E402
                     wilcoxon_exhaustive)

from fpfuse import cli  # noqa: E402
from fpfuse.datamodel import SynthSpec, synth_radio_map  # noqa: E402
from fpfuse.evaluate import (AblationConfig, confidence_interval,  # noqa: E402
                             holm_bonferroni, paired_t_test,
                             run_ablation_ladder, wilcoxon_signed_rank)
from fpfuse.filters import (FilterConfig, KfState, PfState,  # noqa: E402
                            kf_step, pf_step, systematic_resample, ukf_step)
from fpfuse.fuse import (Bba, ChoquetMeasure, choquet,  # noqa: E402
                         dempster_combine)
from fpfuse.pipeline import (PipelineConfig, bench_pipeline, fit_pipeline,  # noqa: E402
                             load_artifact, predict_one, save_artifact)
from fpfuse.preprocess import ChannelVariances  # noqa: E402
from fpfuse.regress import build_knn_index, query_knn  # noqa: E402
from fpfuse.topo import vr_persistence  # noqa: E402


def _line(name: str, passed: bool) -> bool:
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'}", flush=True)
    return passed


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalences within a 60 s budget
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalences():
    t0 = time.perf_counter()
    ok = True

    rng = np.random.default_rng(101)
    for _ in range(200):
        m = int(rng.integers(20, 1001))
        d = int(rng.integers(2, 21))
        k = int(rng.integers(1, 11))
        pts = rng.normal(size=(m, d))
        var = rng.uniform(0.1, 5.0, d)
        index = build_knn_index(pts, rng.normal(size=(m, 2)),
                                ChannelVariances(var, 0.0))
        q = rng.normal(size=d)
        _, i_fast = query_knn(index, q, k)
        _, i_slow = brute_force_knn(pts, var, q, k)
        ok &= set(i_fast) == set(i_slow)

    for _ in range(150):
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.6, size=n)
        if rng.random() < 0.3:
            b[: n // 2] = a[: n // 2]
        if np.all(a - b == 0):
            continue
        ok &= wilcoxon_signed_rank(a, b).p_value == wilcoxon_exhaustive(a, b)

    for _ in range(100):
        n = int(rng.integers(2, 9))
        cloud = rng.normal(size=(n, 2)) * rng.uniform(0.3, 3.0)
        diag = vr_persistence(cloud)
        h0, h1 = rips_diagrams_bruteforce(cloud)
        ok &= np.array_equal(diag.h0, h0) and np.array_equal(diag.h1, h1)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _line(f"criterion 1 (oracle equivalences, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 2: analytic fixtures
# ---------------------------------------------------------------------------

def test_criterion_2_analytic_fixtures():
    ok = True

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h1 = vr_persistence(square).h1
    ok &= h1.shape == (1, 2)
    ok &= abs(h1[0, 0] - 1.0) <= 1e-9 and abs(h1[0, 1] - math.sqrt(2)) <= 1e-9

    fused = dempster_combine(Bba(np.array([0.6, 0.4]), 0.0),
                             Bba(np.array([0.5, 0.5]), 0.0))
    ok &= abs(fused.singleton[0] - 0.6) <= 1e-12
    ok &= abs(fused.singleton[1] - 0.4) <= 1e-12

    rng = np.random.default_rng(2)
    s1, s2, mu1, mu2 = rng.random((4, 10_000))
    for i in range(10_000):
        c = choquet(s1[i], s2[i], ChoquetMeasure(mu1[i], mu2[i]))
        ok &= min(s1[i], s2[i]) - 1e-12 <= c <= max(s1[i], s2[i]) + 1e-12

    s = kf_step(KfState(0.0, 1.0), 2.0, 0.0, 1.0)
    ok &= abs(s.x_hat - 1.0) <= 1e-12 and abs(s.p - 0.5) <= 1e-12

    kf = ukf = KfState(0.3, 1.0)
    worst = 0.0
    for _ in range(10_000):
        z = rng.normal(scale=3.0)
        q = 0.5 * abs(rng.normal())
        r = 0.05 + abs(rng.normal())
        kf = kf_step(kf, z, q, r)
        ukf = ukf_step(ukf, z, q, r)
        worst = max(worst, abs(kf.x_hat - ukf.x_hat), abs(kf.p - ukf.p))
    ok &= worst < 1e-6

    assert _line("criterion 2 (analytic fixtures)", ok)


# ---------------------------------------------------------------------------
# criterion 3: filter statistics
# ---------------------------------------------------------------------------

def test_criterion_3_filter_statistics():
    ok = True

    rng = np.random.default_rng(7)
    m = 10_000
    state = PfState(rng.normal(0.7, 1.0, m), np.full(m, 1.0 / m))
    for _ in range(50):
        state = pf_step(state, np.multiply(rng.standard_normal(m), 1.0) + 0.0,
                        0.7, 1.0, 0.3, rng)
    ok &= abs(state.estimate - 0.7) < 0.05

    noise = np.random.default_rng(8).normal(size=1000)
    s = KfState(noise[0], 1.0)
    filtered = [s.x_hat]
    for z in noise[1:]:
        s = kf_step(s, float(z), 0.25, 1.0)
        filtered.append(s.x_hat)
    ok &= np.var(filtered) < np.var(noise)

    devs = []
    for trial in range(100):
        trng = np.random.default_rng(1000 + trial)
        particles = trng.normal(size=10_000)
        w = trng.random(10_000)
        w /= w.sum()
        devs.append(abs(systematic_resample(particles, w, trng).mean()
                        - w @ particles))
    ok &= max(devs) < 0.02

    assert _line("criterion 3 (filter statistics)", ok)


# ---------------------------------------------------------------------------
# criteria 4 + 5: directional replication on 10 synthetic maps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ladder_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(10):
        rmap = synth_radio_map(SynthSpec(seed=seed))
        report = run_ablation_ladder(rmap, AblationConfig(n_splits=1,
                                                          base_seed=seed))
        runs.append(report)
    return runs, time.perf_counter() - t0


def test_criterion_4_directional_replication(ladder_runs):
    runs, elapsed = ladder_runs
    base = np.array([r.mean_rmse("PF+RF", "dbm(10%)") for r in runs])
    full = np.array([r.mean_rmse("PF+PH+RF+KNN+DST", "dbm(10%)") for r in runs])
    p = wilcoxon_signed_rank(full, base).p_value
    ok = full.mean() <= base.mean() and p < 0.05 and elapsed < 600.0
    assert _line(
        f"criterion 4 (full {full.mean():.3f} m vs baseline {base.mean():.3f} m, "
        f"wilcoxon p={p:.4f}, {elapsed:.0f}s)", ok)


def test_criterion_5_noise_ordering(ladder_runs):
    runs, _ = ladder_runs
    clean = np.array([r.mean_rmse("PF+PH+RF+KNN+DST", "clean") for r in runs])
    noisy = np.array([r.mean_rmse("PF+PH+RF+KNN+DST", "dbm(10%)") for r in runs])
    wins = int((clean < noisy).sum())
    ok = wins >= 8
    assert _line(f"criterion 5 (noise-free < noisy in {wins}/10 seeds)", ok)


def test_noise_degrades_every_variant_in_the_majority(ladder_runs):
    # harness self-check: per variant, clean beats noisy on most seeds
    runs, _ = ladder_runs
    for v in runs[0].variants:
        wins = sum(r.mean_rmse(v, "clean") < r.mean_rmse(v, "dbm(10%)")
                   for r in runs)
        assert wins > 5, (v, wins)


# ---------------------------------------------------------------------------
# criterion 6: complexity budget
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_artifact():
    data = synth_radio_map(SynthSpec(n_rp=8, samples_per_rp=12, seed=0))
    cfg = PipelineConfig(filter=FilterConfig(method="pf", n_particles=10_000),
                         n_trees=200, alpha_grid=(1.0,), seed=0)
    return fit_pipeline(data, cfg)


def test_criterion_6_complexity_budget(bench_artifact):
    report = bench_pipeline(bench_artifact, n_queries=30, seed=0)
    slopes = report["scaling"]
    ok = all(s <= 1.2 for s in slopes.values())
    ok &= report["pf_vs_kf_ratio"] >= 5.0
    assert _line(
        "criterion 6 (slopes "
        + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
        + f"; pf/kf={report['pf_vs_kf_ratio']:.0f}x)", ok)


# ---------------------------------------------------------------------------
# criterion 7: reproducibility
# ---------------------------------------------------------------------------

def test_criterion_7_reproducibility(tmp_path, capsys):
    config = {"synth": {"n_rp": 6, "samples_per_rp": 12, "n_wifi": 4,
                        "n_ble": 2},
              "pipeline": {"filter": {"method": "pf", "n_particles": 500},
                           "n_trees": 12, "alpha_grid": [0.5, 2.0],
                           "cell_width": 1.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    ok = True

    for name in ("a1.json", "a2.json"):
        rc = cli.main(["fit", "--seed", "4", "--config", str(cfg_path),
                       "--out", str(tmp_path), "--name", name])
        ok &= rc == 0
    ok &= (tmp_path / "a1.json").read_bytes() == (tmp_path / "a2.json").read_bytes()

    capsys.readouterr()  # drain the fit commands' output
    outs = []
    for _ in range(2):
        rc = cli.main(["predict", "--artifact", str(tmp_path / "a1.json"),
                       "--scan=-60,-61,-62,-63,-64,-65"])
        ok &= rc == 0
        outs.append(capsys.readouterr().out)
    ok &= outs[0] == outs[1]

    artifact = load_artifact(tmp_path / "a1.json")
    save_artifact(artifact, tmp_path / "round.json")
    loaded = load_artifact(tmp_path / "round.json")
    rng = np.random.default_rng(3)
    probes = rng.uniform(-85.0, -35.0, size=(100, 6))
    for scan in probes:
        a = predict_one(artifact, scan).position
        b = predict_one(loaded, scan).position
        ok &= (a.x, a.y) == (b.x, b.y)

    assert _line("criterion 7 (byte-identical fits, bit-exact round trip)", ok)


# ---------------------------------------------------------------------------
# criterion 8: statistical machinery
# ---------------------------------------------------------------------------

def test_criterion_8_statistics(ladder_runs):
    ok = True

    res = holm_bonferroni([0.01, 0.04], alpha=0.05)
    ok &= np.array_equal(res.adjusted, [0.02, 0.04]) and res.reject.all()
    res = holm_bonferroni([0.03, 0.03, 0.03], alpha=0.05)
    ok &= np.allclose(res.adjusted, 0.09) and not res.reject.any()
    res = holm_bonferroni([0.2])
    ok &= res.adjusted[0] == 0.2

    t = paired_t_test(np.array([1.0, 2, 3, 4, 5]), np.zeros(5))
    ok &= abs(t.p_value - 0.0132) < 1e-3

    # CI over splits in mean +/- halfwidth form, per variant
    data = synth_radio_map(SynthSpec(n_rp=6, samples_per_rp=15, n_wifi=4,
                                     n_ble=2, seed=0))
    rep = run_ablation_ladder(data, AblationConfig(
        n_splits=10, base_seed=0, filter=FilterConfig(method="kf"),
        n_trees=12, alpha_grid=(1.0,), cell_width=1.0))
    for v in rep.variants:
        for c in rep.conditions:
            ci = rep.ci[v][c]
            values = rep.rmse_values(v, c)
            mean, half = confidence_interval(values)
            ok &= len(values) == 10
            ok &= ci["lo"] <= ci["mean"] <= ci["hi"]
            ok &= abs(ci["mean"] - mean) < 1e-12 and abs(ci["half"] - half) < 1e-12
    table_line = " | ".join(
        f"{v}: {rep.ci[v]['dbm(10%)']['mean']:.3f}±{rep.ci[v]['dbm(10%)']['half']:.3f}"
        for v in rep.variants)
    print("\n[acceptance] table-5 style:", table_line)

    assert _line("criterion 8 (statistical machinery)", ok)
