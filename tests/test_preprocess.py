import numpy as np
import pytest

from fpfuse.datamodel import SynthSpec, synth_radio_map
from fpfuse.preprocess import (SIGMA_FLOOR, apply_norm, dbm_to_mw,
                               fit_channel_variances, fit_norm_stats,
                               fit_zscore_stats, normalize_matrix)


def small_map():
    return synth_radio_map(SynthSpec(n_rp=4, samples_per_rp=6, seed=2))


class TestNormStats:
    def test_two_point_dbm_stats(self):
        stats = fit_zscore_stats(np.array([[-50.0], [-60.0]]))
        assert stats.mu[0] == -55.0
        assert stats.sigma[0] == 5.0  # population std

    def test_mw_mode_hand_values(self):
        stats = fit_zscore_stats(dbm_to_mw(np.array([[0.0], [10.0]])), "mw_zscore")
        assert np.allclose(stats.mu, [5.5])  # (1 mW + 10 mW) / 2

    def test_constant_channel_floored(self):
        stats = fit_zscore_stats(np.array([[-70.0], [-70.0]]))
        assert stats.sigma[0] == SIGMA_FLOOR
        assert stats.floored[0]

    def test_apply_identity_and_unit(self):
        rmap = small_map()
        stats = fit_norm_stats(rmap.rss_matrix(), "dbm_zscore")
        assert np.allclose(apply_norm(stats.mu, stats), 0.0)
        assert np.allclose(apply_norm(stats.mu + stats.sigma, stats), 1.0)

    def test_hand_zscore(self):
        stats = fit_zscore_stats(np.array([[-45.0], [-55.0]]))  # mu -50, sigma 5
        assert apply_norm(np.array([-40.0]), stats)[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        stats = fit_zscore_stats(np.array([[-45.0], [-55.0]]))
        with pytest.raises(ValueError):
            apply_norm(np.array([-40.0, -41.0]), stats)

    def test_train_matrix_is_standardized(self):
        rmap = small_map()
        stats = fit_norm_stats(rmap.rss_matrix(), "dbm_zscore")
        z = normalize_matrix(rmap.rss_matrix(), stats)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)

    def test_mw_mode_equals_composition(self):
        rmap = small_map()
        stats = fit_norm_stats(rmap.rss_matrix(), "mw_zscore")
        raw = rmap.rss_matrix()
        direct = normalize_matrix(raw, stats)
        composed = (dbm_to_mw(raw) - stats.mu) / stats.sigma
        assert np.array_equal(direct, composed)

    def test_stats_frozen(self):
        rmap = small_map()
        stats = fit_norm_stats(rmap.rss_matrix())
        with pytest.raises(ValueError):
            stats.mu[0] = 0.0


class TestChannelVariances:
    def test_constant_column_is_shrinkage_only(self):
        cv = fit_channel_variances(np.zeros((5, 2)))
        assert np.allclose(cv.var, 1e-6)

    def test_unbiased_variance_hand_case(self):
        cv = fit_channel_variances(np.array([[0.0], [2.0]]))
        assert cv.var[0] == pytest.approx(2.0 + 1e-6)  # ddof=1

    def test_zscored_matrix_near_unit(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(400, 3))
        z = (m - m.mean(0)) / m.std(0)
        cv = fit_channel_variances(z)
        assert np.allclose(cv.var, 1.0 + 1e-6 + (z.var(0, ddof=1) - z.var(0)),
                           atol=1e-2)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_channel_variances(np.array([[1.0, 2.0]]))
