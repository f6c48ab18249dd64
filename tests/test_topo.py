import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (reference_features, reference_vr_persistence,  # noqa: E402
                     rips_diagrams_bruteforce)

from fpfuse import topo  # noqa: E402
from fpfuse.preprocess import fit_zscore_stats  # noqa: E402
from fpfuse.topo import (PersistenceDiagram, augment, embed_curve,  # noqa: E402
                         features_for_vector, features_matrix, ph_features,
                         vr_persistence)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestEmbed:
    def test_two_points(self):
        cloud = embed_curve(np.array([0.5, -0.2]))
        assert np.array_equal(cloud, [[1.0, 0.5], [2.0, -0.2]])

    def test_constant_vector_is_horizontal(self):
        cloud = embed_curve(np.zeros(5))
        assert np.all(cloud[:, 1] == 0.0)

    def test_indices_one_based(self):
        cloud = embed_curve(np.zeros(8))
        assert np.array_equal(cloud[:, 0], np.arange(1, 9))

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            embed_curve(np.array([1.0]))


class TestPersistence:
    def test_unit_square_loop(self):
        diag = vr_persistence(UNIT_SQUARE)
        assert diag.h1.shape == (1, 2)
        assert diag.h1[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert diag.h1[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_collinear_points_have_no_loops(self):
        pts = np.column_stack([np.arange(6.0), np.zeros(6)])
        diag = vr_persistence(pts)
        assert diag.h1.size == 0
        h0o, h1o = rips_diagrams_bruteforce(pts)
        assert h1o.size == 0

    def test_path_graph_components(self):
        gap = 0.75
        pts = np.column_stack([gap * np.arange(5.0), np.zeros(5)])
        diag = vr_persistence(pts)
        assert diag.h0.shape == (4, 2)
        assert np.allclose(diag.h0[:, 0], 0.0)
        assert np.allclose(diag.h0[:, 1], gap)

    def test_component_count_always_n_minus_one(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 9, 16):
            diag = vr_persistence(rng.normal(size=(n, 2)))
            assert diag.h0.shape == (n - 1, 2)

    def test_matches_full_boundary_reduction(self):
        rng = np.random.default_rng(42)
        for trial in range(80):
            n = int(rng.integers(2, 9))
            cloud = rng.normal(size=(n, 2)) * rng.uniform(0.3, 3.0)
            diag = vr_persistence(cloud)
            h0o, h1o = rips_diagrams_bruteforce(cloud)
            assert np.array_equal(diag.h0, h0o), trial
            assert np.array_equal(diag.h1, h1o), trial

    def test_matches_oracle_on_embedded_curves(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            cloud = embed_curve(rng.normal(size=int(rng.integers(2, 9))))
            diag = vr_persistence(cloud)
            h0o, h1o = rips_diagrams_bruteforce(cloud)
            assert np.array_equal(diag.h0, h0o)
            assert np.array_equal(diag.h1, h1o)

    def test_h0_stability_under_small_perturbation(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(10, 2))
        rho = 1e-3
        moved = cloud + rng.uniform(-rho, rho, cloud.shape) / math.sqrt(2)
        d0 = np.sort(vr_persistence(cloud).h0[:, 1])
        d1 = np.sort(vr_persistence(moved).h0[:, 1])
        assert np.all(np.abs(d0 - d1) <= 2 * rho + 1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            vr_persistence(np.zeros((65, 2)))
        with pytest.raises(ValueError):
            vr_persistence(np.zeros((1, 2)))


class TestFeatures:
    def test_equal_bars_uniform_entropy(self):
        diag = PersistenceDiagram(np.array([[0.0, 1.0]] * 3), np.empty((0, 2)))
        feats = ph_features(diag)  # [count_h0, entropy_h0, count_h1, entropy_h1]
        assert feats.shape == (4,)
        assert feats[0] == 3
        assert feats[1] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_single_bar_zero_entropy(self):
        diag = PersistenceDiagram(np.array([[0.0, 2.0]]), np.empty((0, 2)))
        assert ph_features(diag)[1] == 0.0

    def test_quarter_three_quarter_entropy(self):
        diag = PersistenceDiagram(np.array([[0.0, 1.0], [0.0, 3.0]]),
                                  np.empty((0, 2)))
        assert ph_features(diag)[1] == pytest.approx(0.5623351446188083,
                                                     abs=1e-12)

    def test_zero_length_bars_dropped_from_entropy_only(self):
        diag = PersistenceDiagram(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                                  np.empty((0, 2)))
        feats = ph_features(diag)
        assert feats[0] == 3
        assert feats[1] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_h1(self):
        diag = PersistenceDiagram(np.array([[0.0, 1.0]]), np.empty((0, 2)))
        feats = ph_features(diag)
        assert feats[2] == 0 and feats[3] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000), scale=st.floats(0.1, 50.0))
    def test_entropy_and_count_scale_invariant(self, seed, scale):
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(7, 2))
        a = ph_features(vr_persistence(cloud))
        b = ph_features(vr_persistence(cloud * scale))
        assert a[0] == b[0] and a[2] == b[2]
        assert a[1] == pytest.approx(b[1], abs=1e-9)
        assert a[3] == pytest.approx(b[3], abs=1e-9)


class TestAugment:
    def test_training_means_map_to_zero(self):
        rng = np.random.default_rng(1)
        feats_train = features_matrix(rng.normal(size=(20, 6)))
        stats = fit_zscore_stats(feats_train)
        out = augment(np.zeros(6), stats.mu, stats)
        assert len(out) == 10
        assert np.array_equal(out[6:], np.zeros(4))

    def test_output_length(self):
        rng = np.random.default_rng(2)
        feats_train = features_matrix(rng.normal(size=(10, 5)))
        stats = fit_zscore_stats(feats_train)
        f = rng.normal(size=5)
        out = augment(f, ph_features(vr_persistence(embed_curve(f))), stats)
        assert out.shape == (9,)

    def test_train_matrix_standardized(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 6))
        feats = features_matrix(z)
        stats = fit_zscore_stats(feats)
        zs = (feats - stats.mu) / stats.sigma
        keep = ~stats.floored  # constant descriptors stay exactly zero
        assert np.all(np.abs(zs.mean(axis=0)[keep]) < 1e-9)


def _tied_values(rng, shape, kind, decimals):
    """Values with many exact ties in their pairwise distances."""
    if kind == "normal":
        return rng.normal(size=shape) * 2.0
    if kind == "rounded":
        return np.round(rng.normal(size=shape) * 2.0, decimals)
    if kind == "constant":
        return np.repeat(np.round(rng.normal(size=(shape[0], 1)), decimals),
                         shape[1], axis=1)
    # repeated entries drawn from a handful of values
    return rng.choice(np.round(rng.normal(size=3), decimals), size=shape)


class TestBatchedMatchesReference:
    """The batched features equal the loop-based reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16),
           n_rows=st.integers(1, 50),
           kind=st.sampled_from(["normal", "rounded", "constant", "repeated"]),
           decimals=st.integers(0, 2))
    def test_features_matrix(self, seed, d, n_rows, kind, decimals):
        F = _tied_values(np.random.default_rng(seed), (n_rows, d), kind,
                         decimals)
        expect = np.array([reference_features(row) for row in F])
        assert features_matrix(F).tobytes() == expect.tobytes()
        one = features_for_vector(F[-1])
        assert one.shape == (4,)
        assert one.tobytes() == expect[-1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16),
           kind=st.sampled_from(["normal", "rounded", "repeated"]),
           decimals=st.integers(0, 1))
    def test_vr_persistence(self, seed, n, kind, decimals):
        # arbitrary clouds, coincident points and zero-length bars included
        cloud = _tied_values(np.random.default_rng(seed), (n, 2), kind,
                             decimals)
        diag = vr_persistence(cloud)
        h0, h1 = reference_vr_persistence(cloud)
        assert diag.h0.tobytes() == h0.tobytes()
        assert diag.h1.tobytes() == h1.tobytes()

    def test_rows_split_over_passes(self, monkeypatch):
        F = _tied_values(np.random.default_rng(5), (40, 12), "rounded", 1)
        whole = features_matrix(F)
        monkeypatch.setattr(topo, "_CHUNK_CELLS", 700)  # 3 rows per pass
        assert features_matrix(F).tobytes() == whole.tobytes()

    def test_rejects_bad_input(self):
        for bad in (np.array([[0.0, np.nan, 1.0]]), np.array([[np.inf, 0.0]]),
                    np.zeros((2, 1)), np.zeros((2, 65))):
            with pytest.raises(ValueError):
                features_matrix(bad)
        with pytest.raises(ValueError):
            features_for_vector(np.zeros((2, 3)))
