import math
import re
import sys
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (reference_dempster, reference_fuse_rows,  # noqa: E402
                     reference_masses, reference_nearest_distances,
                     reference_point)

from fpfuse.datamodel import Bounds, Position  # noqa: E402
from fpfuse import evaluate  # noqa: E402
from fpfuse.evaluate import (fuse_point, fuse_points_batch,  # noqa: E402
                             fuse_rows, median_min_centroid_distance, rmse_xy,
                             select_alpha)
from fpfuse.fuse import (Bba, ChoquetMeasure, ConflictError,  # noqa: E402
                         argmax_belief, bba_from_point, choquet, confidence,
                         confidences, convex_combo, dempster_combine,
                         fit_choquet_measure, make_grid, weighted_centroid,
                         write_belief_csv, write_belief_pgm)


class TestGrid:
    def test_floor_6x14_unit_cells(self):
        grid = make_grid(Bounds(0, 0, 6, 14), 1.0)
        assert grid.n_cells == 84

    def test_2x2_centroids_row_major(self):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        assert grid.centroids.tolist() == [[0.5, 0.5], [1.5, 0.5],
                                           [0.5, 1.5], [1.5, 1.5]]

    def test_oversize_cell_ceiling(self):
        grid = make_grid(Bounds(0, 0, 6, 14), 10.0)
        assert grid.n_cells == 2  # ceil(0.6) * ceil(1.4)

    def test_centroids_inside_bounds(self):
        b = Bounds(1.0, -2.0, 7.3, 3.1)
        grid = make_grid(b, 0.8)
        for cx, cy in grid.centroids:
            assert b.contains(cx, cy)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            make_grid(Bounds(0, 0, 1, 1), 0.0)


class TestBba:
    def grid2(self):
        return make_grid(Bounds(0, 0, 2, 1), 1.0)  # cells (0.5,.5), (1.5,.5)

    def test_softmax_hand_case(self):
        # distances 1 and 2 at alpha 1: exp(-1), exp(-2) normalized
        m = bba_from_point(Position(-0.5, 0.5), self.grid2(), 1.0, 0.0)
        assert m.singleton[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert m.singleton[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_concentration_at_large_alpha(self):
        grid = self.grid2()
        m = bba_from_point(Position(0.5, 0.5), grid, 50.0, 0.1)
        assert m.singleton[0] > 0.99 * 0.9

    def test_uniform_at_vanishing_alpha(self):
        grid = self.grid2()
        m = bba_from_point(Position(0.1, 0.9), grid, 1e-9, 0.2)
        assert np.allclose(m.singleton, 0.8 / 2, atol=1e-6)

    def test_simplex_invariant(self):
        grid = make_grid(Bounds(0, 0, 5, 5), 0.7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = Position(*rng.uniform(0, 5, 2))
            m = bba_from_point(p, grid, float(rng.uniform(0.05, 10)),
                               float(rng.uniform(0, 0.5)))
            assert np.all(m.singleton >= 0)
            assert m.singleton.sum() + m.theta_mass == pytest.approx(1.0, abs=1e-9)


class TestDempster:
    def test_hand_case(self):
        fused = dempster_combine(Bba(np.array([0.6, 0.4]), 0.0),
                                 Bba(np.array([0.5, 0.5]), 0.0))
        assert fused.singleton[0] == pytest.approx(0.6, abs=1e-12)
        assert fused.singleton[1] == pytest.approx(0.4, abs=1e-12)

    def test_vacuous_is_identity(self):
        m = Bba(np.array([0.3, 0.45, 0.25]), 0.0)
        fused = dempster_combine(m, Bba(np.zeros(3), 1.0))
        assert np.allclose(fused.singleton, m.singleton, atol=1e-15)
        assert fused.theta_mass == 0.0

    def test_uniform_symmetric(self):
        m = Bba(np.array([0.5, 0.5]), 0.0)
        fused = dempster_combine(m, m)
        assert np.allclose(fused.singleton, 0.5)

    def test_total_conflict_raises(self):
        with pytest.raises(ConflictError):
            dempster_combine(Bba(np.array([1.0, 0.0]), 0.0),
                             Bba(np.array([0.0, 1.0]), 0.0))

    def test_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.dirichlet(np.ones(5)) * 0.9
            b = rng.dirichlet(np.ones(5)) * 0.7
            m1 = Bba(a, 1.0 - a.sum())
            m2 = Bba(b, 1.0 - b.sum())
            ab = dempster_combine(m1, m2)
            ba = dempster_combine(m2, m1)
            assert np.allclose(ab.singleton, ba.singleton, atol=1e-12)
            assert ab.theta_mass == pytest.approx(ba.theta_mass, abs=1e-12)

    def test_agreeing_points_argmax(self):
        grid = make_grid(Bounds(0, 0, 4, 4), 1.0)
        target = Position(2.4, 1.6)
        m1 = bba_from_point(Position(2.45, 1.55), grid, 3.0, 0.05)
        m2 = bba_from_point(Position(2.35, 1.62), grid, 3.0, 0.05)
        fused = dempster_combine(m1, m2)
        cell, centroid = argmax_belief(fused, grid)
        assert math.hypot(centroid.x - target.x, centroid.y - target.y) < 0.8

    def test_argmax_tie_breaks_low_index(self):
        m = Bba(np.full(4, 0.25), 0.0)
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        cell, _ = argmax_belief(m, grid)
        assert cell == 0


class TestConfidence:
    def test_on_centroid_is_one(self):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        assert confidence(Position(0.5, 0.5), grid, 2.0) == pytest.approx(1.0)

    def test_e_folding_distance(self):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        beta = 2.0
        p = Position(0.5, 0.5 + 1.0 / beta)
        assert confidence(p, grid, beta) == pytest.approx(math.exp(-1.0),
                                                          abs=1e-12)

    def test_monotone_decreasing(self):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        near = confidence(Position(0.6, 0.5), grid, 1.0)
        far = confidence(Position(0.9, 0.5), grid, 1.0)
        assert far < near


class TestChoquet:
    def test_equal_scores_any_measure(self):
        for mu in (ChoquetMeasure(0, 0), ChoquetMeasure(1, 0.3)):
            assert choquet(0.4, 0.4, mu) == 0.4

    def test_limits(self):
        assert choquet(0.2, 0.8, ChoquetMeasure(0.7, 1.0)) == 0.8  # max
        assert choquet(0.2, 0.8, ChoquetMeasure(0.7, 0.0)) == 0.2  # min
        assert choquet(0.8, 0.2, ChoquetMeasure(1.0, 0.7)) == 0.8

    def test_hand_value(self):
        assert choquet(0.2, 0.8, ChoquetMeasure(0.1, 0.5)) == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(s1=st.floats(0, 1), s2=st.floats(0, 1),
           mu1=st.floats(0, 1), mu2=st.floats(0, 1))
    def test_internality(self, s1, s2, mu1, mu2):
        c = choquet(s1, s2, ChoquetMeasure(mu1, mu2))
        assert min(s1, s2) - 1e-12 <= c <= max(s1, s2) + 1e-12

    def test_fit_max_rule(self):
        rng = np.random.default_rng(0)
        s = rng.random((300, 2))
        fit = fit_choquet_measure(s, np.maximum(s[:, 0], s[:, 1]))
        assert abs(fit.measure.mu1 - 1.0) < 1e-3
        assert abs(fit.measure.mu2 - 1.0) < 1e-3

    def test_fit_min_rule(self):
        rng = np.random.default_rng(1)
        s = rng.random((300, 2))
        fit = fit_choquet_measure(s, np.minimum(s[:, 0], s[:, 1]))
        assert fit.measure.mu1 < 1e-3 and fit.measure.mu2 < 1e-3

    def test_fit_degenerate_flags(self):
        rng = np.random.default_rng(2)
        s1 = rng.random(50)
        scores = np.column_stack([s1, s1])
        fit = fit_choquet_measure(scores, s1)
        assert fit.measure.mu1 == 0.5 and fit.measure.mu2 == 0.5
        assert not fit.mu1_identifiable and not fit.mu2_identifiable

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_fit_stays_in_box(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.random((20, 2))
        t = rng.random(20) * 2 - 0.5  # targets outside [0,1] still fine
        fit = fit_choquet_measure(s, t)
        assert 0.0 <= fit.measure.mu1 <= 1.0
        assert 0.0 <= fit.measure.mu2 <= 1.0


class TestConvexCombo:
    def test_endpoints_and_midpoint(self):
        r1, r2 = Position(0, 0), Position(2, 2)
        assert convex_combo(r1, r2, 1.0) == r1
        assert convex_combo(r1, r2, 0.0) == r2
        mid = convex_combo(r1, r2, 0.5)
        assert (mid.x, mid.y) == (1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(0, 1))
    def test_stays_on_segment(self, lam):
        r1, r2 = Position(-1, 4), Position(3, -2)
        p = convex_combo(r1, r2, lam)
        assert min(r1.x, r2.x) - 1e-12 <= p.x <= max(r1.x, r2.x) + 1e-12
        assert min(r1.y, r2.y) - 1e-12 <= p.y <= max(r1.y, r2.y) + 1e-12


class TestBeliefExport:
    def test_pgm_peak_matches_argmax(self, tmp_path):
        grid = make_grid(Bounds(0, 0, 3, 2), 1.0)
        m = bba_from_point(Position(2.5, 1.5), grid, 2.0, 0.05)
        pgm = tmp_path / "belief.pgm"
        write_belief_pgm(m, grid, pgm)
        lines = pgm.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2" and lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == grid.n_cells
        assert pixels.index(max(pixels)) == argmax_belief(m, grid)[0]
        assert max(pixels) == 255

    def test_csv_rowcount_and_mass_sum(self, tmp_path):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        m = bba_from_point(Position(1.0, 1.0), grid, 1.0, 0.0)
        out = tmp_path / "belief.csv"
        write_belief_csv(m, grid, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "cell_index,cx,cy,mass"
        assert len(rows) == 1 + grid.n_cells
        total = sum(float(r.split(",")[3]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_weighted_centroid_of_symmetric_mass(self):
        grid = make_grid(Bounds(0, 0, 2, 2), 1.0)
        m = Bba(np.full(4, 0.25), 0.0)
        c = weighted_centroid(m, grid)
        assert (c.x, c.y) == (1.0, 1.0)


DST_MODES = ("belief_weighted", "argmax_centroid")


def _source_rows(seed, n, bounds, spread):
    """n positions inside (and a little outside) the floor, and a second
    source's positions scattered around them by spread metres."""
    rng = np.random.default_rng(seed)
    first = np.column_stack([
        rng.uniform(bounds.x_min - 0.5, bounds.x_max + 0.5, n),
        rng.uniform(bounds.y_min - 0.5, bounds.y_max + 0.5, n)])
    return first, first + rng.normal(0.0, spread, first.shape)


class TestDstBlockMatchesReference:
    """The (N, S) DST block equals the per-row composition it replaced bit for
    bit, and raises the same ConflictError for the first row in total
    conflict."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
           size=st.sampled_from([(6.0, 14.0), (3.0, 4.0), (5.5, 2.25)]),
           h=st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]),
           theta=st.sampled_from([0.0, 0.05, 0.3]),
           alpha=st.sampled_from([0.1, 1.0, 5.0, 50.0, 1e3]),
           spread=st.sampled_from([0.01, 1.0, 5.0]),
           mode=st.sampled_from(DST_MODES))
    def test_batch_equals_per_row(self, seed, n, size, h, theta, alpha,
                                  spread, mode):
        bounds = Bounds(0.0, 0.0, *size)
        grid = make_grid(bounds, h)
        p_rf, p_knn = _source_rows(seed, n, bounds, spread)
        expect = reference_fuse_rows(p_rf, p_knn, grid.centroids, alpha,
                                     theta, mode)
        if isinstance(expect[0], str):  # ("conflict", K)
            message = re.escape(f"K = {expect[1]:.15f})")
            with pytest.raises(ConflictError, match=message):
                fuse_points_batch(p_rf, p_knn, grid, alpha, theta, mode)
            with pytest.raises(ConflictError, match=message):
                fuse_rows(p_rf, p_knn, grid, alpha, theta, mode)
            return
        points, masses, thetas = expect
        assert fuse_points_batch(p_rf, p_knn, grid, alpha, theta,
                                 mode).tobytes() == points.tobytes()
        got_points, got_masses, got_thetas = fuse_rows(p_rf, p_knn, grid,
                                                       alpha, theta, mode)
        assert got_points.tobytes() == points.tobytes()
        assert got_masses.tobytes() == np.array(masses).tobytes()
        assert got_thetas.tobytes() == np.array(thetas).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
           h=st.sampled_from([0.25, 0.5, 1.0]),
           beta=st.sampled_from([0.3, 1.0, 7.0]))
    def test_distances_and_confidences_equal_per_row(self, seed, n, h, beta):
        bounds = Bounds(0.0, 0.0, 6.0, 14.0)
        grid = make_grid(bounds, h)
        points = np.vstack(_source_rows(seed, n, bounds, 1.0))
        nearest = reference_nearest_distances(points, grid.centroids)
        assert median_min_centroid_distance(points, grid) == float(
            np.median(nearest))
        scores = confidences(points, grid, beta)
        expect = np.array([np.exp(-beta * d) for d in nearest])
        assert scores.tobytes() == expect.tobytes()
        assert [confidence(Position(*p), grid, beta) for p in points] == \
            scores.tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           h=st.sampled_from([0.25, 0.5, 1.0]),
           theta=st.sampled_from([0.0, 0.05, 0.3]),
           alpha=st.sampled_from([0.1, 2.0, 50.0]))
    def test_one_row_functions_equal_reference(self, seed, h, theta, alpha):
        bounds = Bounds(0.0, 0.0, 6.0, 14.0)
        grid = make_grid(bounds, h)
        (r1,), (r2,) = _source_rows(seed, 1, bounds, 1.0)
        p1, p2 = Position(*r1), Position(*r2)
        s1 = reference_masses(p1.x, p1.y, grid.centroids, alpha, theta)
        s2 = reference_masses(p2.x, p2.y, grid.centroids, alpha, theta)
        m1 = bba_from_point(p1, grid, alpha, theta)
        m2 = bba_from_point(p2, grid, alpha, theta)
        assert m1.singleton.tobytes() == s1.tobytes()
        assert m2.singleton.tobytes() == s2.tobytes()
        fused, fused_theta, conflict = reference_dempster(s1, theta, s2, theta)
        if fused is None:
            with pytest.raises(ConflictError,
                               match=re.escape(f"K = {conflict:.15f})")):
                dempster_combine(m1, m2)
            return
        m = dempster_combine(m1, m2)
        assert m.singleton.tobytes() == fused.tobytes()
        assert m.theta_mass == fused_theta
        for mode in DST_MODES:
            point, bba = fuse_point(p1, p2, grid, alpha, theta, mode)
            assert (point.x, point.y) == reference_point(fused,
                                                         grid.centroids, mode)
            assert bba.singleton.tobytes() == fused.tobytes()
            assert bba.theta_mass == fused_theta
        w = weighted_centroid(m, grid)
        assert (w.x, w.y) == reference_point(fused, grid.centroids,
                                             "belief_weighted")
        _, peak = argmax_belief(m, grid)
        assert (peak.x, peak.y) == reference_point(fused, grid.centroids,
                                                   "argmax_centroid")

    @pytest.mark.parametrize("mode", DST_MODES)
    def test_first_conflicting_row_is_reported(self, mode):
        # rows 0 and 1 agree; rows 2 and 3 are in total conflict with
        # different K (0.999999999999874 and 0.999999999999239)
        grid = make_grid(Bounds(0.0, 0.0, 6.0, 14.0), 0.5)
        p_rf = np.array([[1.0, 1.0], [2.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
        p_knn = np.array([[1.1, 1.0], [2.0, 3.1], [2.55, 1.0], [2.5, 1.0]])
        kind, k = reference_fuse_rows(p_rf, p_knn, grid.centroids, 30.0, 0.0,
                                      mode)
        assert kind == "conflict"
        later = reference_fuse_rows(p_rf[3:], p_knn[3:], grid.centroids,
                                    30.0, 0.0, mode)[1]
        assert f"{k:.15f}" != f"{later:.15f}"
        with pytest.raises(ConflictError, match=re.escape(f"K = {k:.15f})")):
            fuse_points_batch(p_rf, p_knn, grid, 30.0, 0.0, mode)
        # the rows before the conflict fuse as they would alone
        expect = reference_fuse_rows(p_rf[:2], p_knn[:2], grid.centroids,
                                     30.0, 0.0, mode)[0]
        assert fuse_points_batch(p_rf[:2], p_knn[:2], grid, 30.0, 0.0,
                                 mode).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_are_rejected(self, bad):
        grid = make_grid(Bounds(0.0, 0.0, 6.0, 14.0), 0.5)
        p = np.array([[1.0, 1.0], [2.0, bad]])
        for mode in DST_MODES:
            with pytest.raises(ValueError, match="finite"):
                fuse_points_batch(p, p[::-1].copy(), grid, 1.0, 0.05, mode)

    def test_empty_batch(self):
        grid = make_grid(Bounds(0.0, 0.0, 6.0, 14.0), 0.5)
        out = fuse_points_batch(np.empty((0, 2)), np.empty((0, 2)), grid, 1.0,
                                0.05, "belief_weighted")
        assert out.shape == (0, 2)


class TestSelectAlpha:
    """select_alpha computes the distance block once and picks the alpha the
    per-alpha fuse_points_batch loop picks, raising what it raises."""

    @staticmethod
    def per_alpha(p_rf, p_knn, truth, grid, alphas, theta, mode):
        best_alpha, best_rmse = None, math.inf
        for alpha in alphas:
            r = rmse_xy(fuse_points_batch(p_rf, p_knn, grid, alpha, theta,
                                          mode), truth)
            if r < best_rmse:
                best_alpha, best_rmse = alpha, r
        return float(best_alpha)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           h=st.sampled_from([0.25, 0.5, 1.0]),
           theta=st.sampled_from([0.0, 0.05, 0.3]),
           alphas=st.lists(st.sampled_from([0.1, 0.5, 1.0, 5.0, 50.0, 1e3]),
                           min_size=1, max_size=6),
           mode=st.sampled_from(DST_MODES))
    def test_equals_per_alpha_loop(self, seed, n, h, theta, alphas, mode):
        bounds = Bounds(0.0, 0.0, 6.0, 14.0)
        grid = make_grid(bounds, h)
        p_rf, p_knn = _source_rows(seed, n, bounds, 1.0)
        truth = _source_rows(seed + 1, n, bounds, 0.0)[0]
        try:
            expect = self.per_alpha(p_rf, p_knn, truth, grid, alphas, theta,
                                    mode)
        except ConflictError as exc:
            with pytest.raises(ConflictError, match=re.escape(str(exc))):
                select_alpha(p_rf, p_knn, truth, grid, alphas, theta, mode)
            return
        with mock.patch.object(evaluate, "centroid_distances",
                               wraps=evaluate.centroid_distances) as spy:
            assert select_alpha(p_rf, p_knn, truth, grid, alphas, theta,
                                mode) == expect
        assert spy.call_count == 1

    def test_non_finite_positions_are_rejected(self):
        grid = make_grid(Bounds(0.0, 0.0, 6.0, 14.0), 0.5)
        p = np.array([[1.0, 1.0], [2.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            select_alpha(p, p[::-1].copy(), p, grid, (1.0,), 0.05,
                         "belief_weighted")
