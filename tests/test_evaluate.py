import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

sys.path.insert(0, str(Path(__file__).parent))
from oracles import wilcoxon_exhaustive  # noqa: E402

from fpfuse import evaluate as ev  # noqa: E402
from fpfuse.datamodel import Position, SynthSpec, synth_radio_map  # noqa: E402
from fpfuse.evaluate import (AblationConfig, FilterSpec, NoiseSpec,  # noqa: E402
                             SearchGrids, SelectedParams, _argmin_first,
                             confidence_interval,
                             cv_grid_search, holm_bonferroni, inject_bursty,
                             inject_dbm_noise, inject_gauss_jitter,
                             paired_t_test, regularized_incomplete_beta,
                             rmse_xy, run_ablation_ladder, student_t_ppf,
                             wilcoxon_signed_rank)
from fpfuse.pipeline import StageError  # noqa: E402


class TestNoise:
    def test_identity_at_zero_intensity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=12)
        s = np.ones(12)
        assert np.array_equal(inject_gauss_jitter(z, s, 0.0, rng), z)
        assert np.array_equal(inject_bursty(z, s, 0.0, 3.0, rng), z)
        assert np.array_equal(inject_dbm_noise(z, s, 0.0, rng), z)

    def test_bursty_zero_kappa_keeps_values(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=10)
        out = inject_bursty(z, np.ones(10), 1.0, 0.0, rng)
        assert np.allclose(out, z)

    def test_gauss_moment(self):
        rng = np.random.default_rng(2)
        sigma = np.array([2.0])
        eta = 0.3
        z = np.zeros((100_000, 1))
        out = inject_gauss_jitter(z, sigma, eta, rng)
        assert np.std(out - z) == pytest.approx(eta * 2.0, rel=0.02)

    def test_bursty_moments(self):
        rng = np.random.default_rng(3)
        p, kappa = 0.05, 2.0
        z = np.zeros(100_000)
        out = inject_bursty(z, np.ones_like(z), p, kappa, rng)
        hits = out != 0.0
        assert abs(hits.mean() - p) < 0.005
        # Laplace(0,1) has mean absolute value 1
        assert np.abs(out[hits]).mean() == pytest.approx(kappa, rel=0.05)

    def test_dbm_moment(self):
        rng = np.random.default_rng(4)
        sigma = np.array([5.0])
        out = inject_dbm_noise(np.zeros((100_000, 1)), sigma, 0.10, rng)
        assert out.std() == pytest.approx(0.5, abs=0.01)

    def test_seeded_reproducibility(self):
        z = np.arange(8.0)
        s = np.ones(8)
        a = inject_dbm_noise(z, s, 0.1, np.random.default_rng(123))
        b = inject_dbm_noise(z, s, 0.1, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_source_never_mutated(self):
        z = np.zeros(6)
        inject_gauss_jitter(z, np.ones(6), 0.5, np.random.default_rng(0))
        assert np.array_equal(z, np.zeros(6))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="saltpepper")


class TestRmse:
    def test_perfect(self):
        pts = [Position(1, 2), Position(3, 4)]
        assert rmse_xy(pts, pts) == 0.0

    def test_3_4_5(self):
        assert rmse_xy([Position(0, 0)], [Position(3, 4)]) == 5.0

    def test_two_sample_hand_value(self):
        pred = [Position(0, 0), Position(0, 0)]
        truth = [Position(0, 0), Position(3, 4)]
        assert rmse_xy(pred, truth) == pytest.approx(np.sqrt(12.5))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 30, 2))
        assert rmse_xy(a, b) == rmse_xy(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse_xy(np.zeros((3, 2)), np.zeros((4, 2)))


class TestWilcoxon:
    def test_constant_shift_n6(self):
        a = np.arange(1.0, 7.0)
        res = wilcoxon_signed_rank(a, a + 3.0)
        assert res.p_value == pytest.approx(2.0 / 64.0, abs=0)
        assert res.method == "exact"

    def test_identical_samples_degenerate(self):
        a = np.arange(1.0, 9.0)
        res = wilcoxon_signed_rank(a, a.copy())
        assert res.p_value == 1.0
        assert res.degenerate

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(5, 13))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.7, size=n)
            if rng.random() < 0.35:  # force ties and zeros
                b[: n // 3] = a[: n // 3]
                b[n // 3:] = a[n // 3:] + np.round(b[n // 3:] - a[n // 3:], 1)
            if np.all(a - b == 0):
                continue
            assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_exhaustive(a, b)

    def test_normal_approximation_tracks_scipy(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=60)
        b = a + rng.normal(scale=0.5, size=60) + 0.2
        mine = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, correction=True,
                                   zero_method="wilcox", mode="approx")
        assert mine.method == "normal"
        assert mine.p_value == pytest.approx(ref.pvalue, rel=0.02)

    def test_needs_five_pairs(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [2.0, 3.0])


class TestPairedT:
    def test_textbook_case(self):
        res = paired_t_test(np.array([1.0, 2, 3, 4, 5]), np.zeros(5))
        assert res.statistic == pytest.approx(4.242640687, abs=1e-8)
        assert res.p_value == pytest.approx(0.0132, abs=1e-3)

    def test_zero_mean_symmetric(self):
        a = np.array([-2.0, -1.0, 1.0, 2.0])
        res = paired_t_test(a, np.zeros(4))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_zero_variance_flagged(self):
        res = paired_t_test(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert res.degenerate

    def test_matches_scipy_on_grid(self):
        rng = np.random.default_rng(5)
        for n in (4, 9, 25, 60):
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.4, size=n)
            mine = paired_t_test(a, b).p_value
            ref = scipy.stats.ttest_rel(a, b).pvalue
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_incomplete_beta_accuracy(self):
        for a, b, x in ((2.0, 0.5, 0.1818), (5.0, 5.0, 0.3), (0.5, 0.5, 0.99)):
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), abs=1e-10)

    def test_t_quantile(self):
        assert student_t_ppf(0.975, 9) == pytest.approx(2.2621571628, abs=1e-7)


class TestHolm:
    def test_single_p_unchanged(self):
        res = holm_bonferroni([0.03])
        assert res.adjusted[0] == 0.03

    def test_two_p_hand_case(self):
        res = holm_bonferroni([0.01, 0.04], alpha=0.05)
        assert np.allclose(res.adjusted, [0.02, 0.04])
        assert res.reject.all()

    def test_three_equal_none_rejected(self):
        res = holm_bonferroni([0.03, 0.03, 0.03], alpha=0.05)
        assert np.allclose(res.adjusted, [0.09, 0.09, 0.09])
        assert not res.reject.any()

    def test_adjusted_monotone_in_sorted_order(self):
        rng = np.random.default_rng(0)
        p = rng.random(15)
        res = holm_bonferroni(p)
        order = np.argsort(p)
        assert np.all(np.diff(res.adjusted[order]) >= -1e-15)

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(1)
        p = rng.random(10)
        res = holm_bonferroni(p)
        assert np.all(res.adjusted >= p - 1e-15)


class TestConfidenceInterval:
    def test_contains_mean(self):
        mean, half = confidence_interval([1.0, 2.0, 3.0, 2.5, 1.5])
        assert half > 0
        assert mean - half <= mean <= mean + half

    def test_matches_scipy_t_interval(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=10)
        mean, half = confidence_interval(v)
        lo, hi = scipy.stats.t.interval(0.95, 9, loc=v.mean(),
                                        scale=v.std(ddof=1) / np.sqrt(10))
        assert mean - half == pytest.approx(lo, abs=1e-7)
        assert mean + half == pytest.approx(hi, abs=1e-7)


def tiny_map(seed=0):
    return synth_radio_map(SynthSpec(n_rp=6, samples_per_rp=15, n_wifi=4,
                                     n_ble=2, seed=seed))


def fast_cfg(**kwargs):
    base = dict(filter=FilterSpec(method="kf"), n_trees=15,
                alpha_grid=(0.5, 2.0), cell_width=1.0)
    base.update(kwargs)
    return AblationConfig(**base)


class TestCvGridSearch:
    def test_one_point_grid_returns_it(self):
        grids = SearchGrids(gamma=(0.5,), n_particles=(500,), ess_tau=(0.3,),
                            k=(5,), n_trees=(10,), max_depth=(6,),
                            alpha=(1.0,), cell_width=(1.0,))
        sel = cv_grid_search(tiny_map(), grids, folds=3, seed=0,
                             filter_method="kf")
        assert (sel.gamma, sel.k, sel.n_trees, sel.max_depth) == (0.5, 5, 10, 6)
        assert (sel.alpha, sel.cell_width) == (1.0, 1.0)

    def test_dominated_config_never_wins(self):
        table = [("a", 2.0), ("b", 1.0), ("c", 1.5)]
        assert _argmin_first(table) == "b"
        # tie keeps the earlier grid entry
        assert _argmin_first([("a", 1.0), ("b", 1.0)]) == "a"

    def test_deterministic(self):
        grids = SearchGrids(gamma=(0.25, 1.0), n_particles=(500,),
                            ess_tau=(0.3,), k=(3, 7), n_trees=(10,),
                            max_depth=(4,), alpha=(0.5, 2.0),
                            cell_width=(1.0,))
        a = cv_grid_search(tiny_map(), grids, folds=3, seed=5,
                           filter_method="kf")
        b = cv_grid_search(tiny_map(), grids, folds=3, seed=5,
                           filter_method="kf")
        assert a == b

    def test_k_winner_consistent_with_table(self):
        grids = SearchGrids(gamma=(0.5,), n_particles=(500,), ess_tau=(0.3,),
                            k=(1, 5), n_trees=(8,), max_depth=(4,),
                            alpha=(1.0,), cell_width=(1.0,))
        sel = cv_grid_search(tiny_map(3), grids, folds=3, seed=1,
                             filter_method="kf")
        table = dict(sel.tables["knn_k"])
        assert sel.k == min(table, key=lambda kk: (table[kk],))

    def test_fusion_sweep_reuses_the_fold_forests(self, monkeypatch):
        configs = []
        train_rf = ev.train_rf
        monkeypatch.setattr(ev, "train_rf", lambda X, Y, cfg: (
            configs.append(cfg), train_rf(X, Y, cfg))[1])
        grids = SearchGrids(gamma=(0.25, 1.0), n_particles=(500,),
                            ess_tau=(0.3,), k=(3, 7), n_trees=(6, 10),
                            max_depth=(4, None), alpha=(0.5, 2.0),
                            cell_width=(1.0, 0.5))
        sel = cv_grid_search(tiny_map(), grids, folds=3, seed=5,
                             filter_method="kf")
        # one forest per (n_trees, max_depth, fold), none grown again
        assert len(configs) == 2 * 2 * 3
        assert len({(c.n_trees, c.max_depth, c.seed) for c in configs}) == 12
        # the selection of the search that regrew the winner's fold forests
        assert sel == SelectedParams("kf", 0.25, 500, 0.3, 3, 6, 4, 2.0, 1.0)
        assert sel.tables["fusion"] == [
            ((0.5, 1.0), 1.166807226248751), ((2.0, 1.0), 0.13391556583077954),
            ((0.5, 0.5), 1.2923338643795013), ((2.0, 0.5), 0.1350838366491801)]

    def test_infeasible_rp_raises(self):
        rmap = synth_radio_map(SynthSpec(n_rp=2, samples_per_rp=1,
                                         n_wifi=2, n_ble=1, seed=0))
        with pytest.raises(ValueError, match="infeasible"):
            cv_grid_search(rmap, SearchGrids(), folds=5, seed=0)

    def test_selection_invariant_to_grid_order_without_ties(self):
        base = dict(gamma=(0.5,), n_particles=(500,), ess_tau=(0.3,),
                    n_trees=(10,), max_depth=(4,), alpha=(1.0,),
                    cell_width=(1.0,))
        fwd = cv_grid_search(tiny_map(), SearchGrids(k=(1, 7), **base),
                             folds=3, seed=2, filter_method="kf")
        rev = cv_grid_search(tiny_map(), SearchGrids(k=(7, 1), **base),
                             folds=3, seed=2, filter_method="kf")
        table = dict(fwd.tables["knn_k"])
        if table[1] != table[7]:  # no tie: order cannot matter
            assert fwd.k == rev.k


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("dst_point_mode", "centroid"), ("norm_mode", "linear"),
        ("n_splits", 0), ("n_splits", -1), ("theta_discount", 1.5),
        ("cell_width", 0.0), ("k", 0), ("n_trees", 0), ("max_depth", 0),
        ("eps", -1e-9), ("alpha_grid", ()), ("alpha_grid", (1.0, -0.5))])
    def test_ablation_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"AblationConfig.{field}"):
            fast_cfg(**{field: value})

    def test_filter_spec_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="FilterSpec.method"):
            FilterSpec(method="ekf")

    def test_filter_spec_config_carries_fields(self):
        spec = FilterSpec("pf", 0.25, 500, 0.4, 2.0)
        cfg = spec.config(np.array([1.0, 2.0]), seed=9)
        assert (cfg.method, cfg.q_gamma) == ("pf", 0.25)
        assert (cfg.pf.n_particles, cfg.pf.ess_tau, cfg.pf.predict_sigma,
                cfg.pf.seed) == (500, 0.4, 2.0, 9)
        assert np.array_equal(cfg.r, [1.0, 2.0])


@pytest.fixture(scope="module")
def report():
    return run_ablation_ladder(tiny_map(), fast_cfg(n_splits=2))


class TestAblationLadder:
    def test_report_shape(self, report):
        assert len(report.variants) == 4
        assert len(report.conditions) == 1 + 1  # clean + default noise
        for v in report.variants:
            for c in report.conditions:
                assert len(report.rmse[v][c]) == 2

    def test_variant_names_follow_filter(self, report):
        assert report.variants[0] == "KF+RF"
        assert report.variants[3] == "KF+PH+RF+KNN+DST"

    def test_pvalues_present_and_adjusted(self, report):
        for family in ("wilcoxon", "paired_t"):
            for c in report.conditions:
                entry = report.p_values[family][c]
                assert 0.0 <= entry["raw"] <= 1.0
                assert entry["adjusted"] >= entry["raw"] - 1e-15

    def test_ci_brackets_mean(self, report):
        for v in report.variants:
            for c in report.conditions:
                ci = report.ci[v][c]
                assert ci["lo"] <= ci["mean"] <= ci["hi"]

    def test_csv_rows_shape(self, report):
        rows = report.csv_rows()
        assert rows[0] == ("variant", "condition", "split", "rmse")
        assert len(rows) == 1 + 4 * 2 * 2

    def test_json_round_trip(self, report):
        import json
        d = json.loads(json.dumps(report.to_json_dict()))
        assert d["variants"] == list(report.variants)
        assert d["n_splits"] == 2

    def test_dst_modes_reported(self, report):
        full = report.variants[3]
        for c in report.conditions:
            modes = report.dst_mode_rmse[full][c]
            assert set(modes) == {"belief_weighted", "argmax_centroid"}

    def test_deterministic(self):
        a = run_ablation_ladder(tiny_map(), fast_cfg())
        b = run_ablation_ladder(tiny_map(), fast_cfg())
        assert a.rmse == b.rmse

    def test_fit_failure_names_its_stage(self, monkeypatch):
        def broken(*args):
            raise ValueError("no forest")

        monkeypatch.setattr(ev, "train_rf", broken)
        with pytest.raises(StageError, match="train-rf") as info:
            run_ablation_ladder(tiny_map(), fast_cfg())
        assert info.value.stage == "train-rf"
        assert isinstance(info.value.cause, ValueError)

    def test_sources_not_mutated(self):
        rmap = tiny_map()
        before = rmap.rss_matrix().copy()
        run_ablation_ladder(rmap, fast_cfg())
        assert np.array_equal(rmap.rss_matrix(), before)
