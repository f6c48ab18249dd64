import json
import sys
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (brute_force_knn, forest_walk, kdtree_knn,  # noqa: E402
                     reference_forest, reference_wknn)

from fpfuse import pipeline, regress  # noqa: E402
from fpfuse.preprocess import ChannelVariances  # noqa: E402
from fpfuse.regress import (RfConfig, RfModel, build_knn_index,  # noqa: E402
                            predict_wknn, predict_wknn_batch, query_knn,
                            train_rf)


def tree_records(model):
    """Each tree's node arrays as plain lists, children numbered from the
    tree's root: the input forest_walk takes."""
    return [{name: col.tolist() for name, col in tree._asdict().items()}
            for tree in model.trees]


def table(model):
    """The model's node table as writable copies, keyed by column."""
    return {name: getattr(model, name).copy()
            for name in ("feature", "threshold", "left", "right", "leaf_xy",
                         "offsets")}


def assert_matches_reference(model, ref):
    assert len(model.trees) == len(ref)
    for tree, want in zip(model.trees, ref):
        for name in ("feature", "left", "right"):
            assert getattr(tree, name).tolist() == want[name]
        for name in ("threshold", "leaf_xy"):  # bit for bit, sign of 0
            assert (getattr(tree, name).tobytes()
                    == np.asarray(want[name], dtype=float).tobytes())


def tree_depth(tree) -> int:
    depth = np.zeros(len(tree.feature), dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):  # children follow parents
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())


def rp_survey(rng, n, noisy_share):
    """Rows at six reference points: a noisy and an exact RP-coded column,
    a noise column and a small count; targets are the RP coordinates (on a
    0.1 grid, so sums round), a share of them jittered."""
    rp = rng.integers(0, 6, n)
    X = np.column_stack([rp + rng.normal(0.0, 0.3, n), rp.astype(float),
                         rng.normal(size=n),
                         rng.integers(0, 4, n).astype(float)])
    Y = (rng.integers(1, 12, size=(6, 2)) * 0.1)[rp]
    k = int(noisy_share * n)
    Y[:k] += rng.normal(size=(k, 2))
    return X, Y


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = XOR_X.copy()


class TestRandomForest:
    def test_constant_target(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0]])
        Y = np.array([[2.5, 3.5], [2.5, 3.5]])
        model = train_rf(X, Y, RfConfig(n_trees=5, seed=0))
        p = model.predict_batch(np.array([[0.0, 1.0]]))
        assert p.tolist() == [[2.5, 3.5]]

    def test_xor_layout_memorized_at_depth_two(self):
        # each corner appears 8 times so bootstraps keep all four corners;
        # a depth-1 stump cannot represent the interaction, depth >= 2 can
        X = np.repeat(XOR_X, 8, axis=0)
        Y = np.repeat(XOR_Y, 8, axis=0)
        deep = train_rf(X, Y, RfConfig(n_trees=50, max_depth=4, seed=0))
        err = np.hypot(*(deep.predict_batch(XOR_X) - XOR_Y).T)
        assert err.max() < 0.25
        stump = train_rf(X, Y, RfConfig(n_trees=50, max_depth=1, seed=0))
        err1 = np.hypot(*(stump.predict_batch(XOR_X) - XOR_Y).T)
        assert err1.max() > 0.25

    def test_unlimited_depth_memorizes_training_points(self):
        X = np.repeat(XOR_X, 8, axis=0)
        Y = np.repeat(XOR_Y, 8, axis=0)
        model = train_rf(X, Y, RfConfig(n_trees=25, max_depth=None, seed=1))
        err = np.hypot(*(model.predict_batch(XOR_X) - XOR_Y).T)
        assert err.max() < 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        Y = rng.normal(size=(60, 2))
        probe = rng.normal(size=(20, 5))
        a = train_rf(X, Y, RfConfig(30, 8, seed=42))
        b = train_rf(X, Y, RfConfig(30, 8, seed=42))
        assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))

    def test_single_tree_equals_its_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 2))
        model = train_rf(X, Y, RfConfig(n_trees=1, max_depth=3, seed=7))
        x = X[4].reshape(1, -1)
        assert np.array_equal(model.predict_batch(x),
                              forest_walk(tree_records(model), x))

    def test_prediction_permutation_invariant_in_tree_order(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        Y = rng.normal(size=(50, 2))
        model = train_rf(X, Y, RfConfig(20, 6, seed=3))
        perm = tuple(model.trees[i] for i in rng.permutation(20))
        shuffled = RfModel.from_trees(model.config, model.n_features, perm)
        probe = rng.normal(size=(10, 4))
        assert np.allclose(model.predict_batch(probe),
                           shuffled.predict_batch(probe), atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            train_rf(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            train_rf(np.zeros((4, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("value", [0, -1, True])
    def test_config_rejects_max_features_below_one(self, value):
        with pytest.raises(ValueError, match="RfConfig.max_features"):
            RfConfig(max_features=value)

    def test_max_features_above_d_clips_to_d(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        Y = rng.normal(size=(25, 2))
        wide = train_rf(X, Y, RfConfig(8, 4, max_features=7, seed=2))
        exact = train_rf(X, Y, RfConfig(8, 4, max_features=3, seed=2))
        assert np.array_equal(wide.predict_batch(X), exact.predict_batch(X))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n_trees=st.integers(1, 40),
           max_depth=st.sampled_from([None, 1, 3]), constant=st.booleans(),
           batch=st.sampled_from([1, 50]))
    def test_packed_traversal_matches_node_walk(self, seed, n_trees,
                                                max_depth, constant, batch):
        # small integer features repeat, so split thresholds fall between
        # duplicated values; constant targets leave every tree a single leaf
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(30, 3)).astype(float)
        Y = (np.full((30, 2), 1.5) if constant
             else rng.normal(size=(30, 2)))
        model = train_rf(X, Y, RfConfig(n_trees, max_depth, seed=seed))
        trees = tree_records(model)
        queries = X[rng.integers(0, 30, size=batch)]
        splits = [(f, t) for tree in trees
                  for f, t in zip(tree["feature"], tree["threshold"]) if f >= 0]
        for row in queries[::2]:  # put half the queries exactly on a split
            if splits:
                f, t = splits[rng.integers(len(splits))]
                row[f] = t
        assert np.array_equal(model.predict_batch(queries),
                              forest_walk(trees, queries))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
           columns=st.lists(st.sampled_from(["normal", "count", "wide count",
                                             "constant", "copy"]),
                            min_size=1, max_size=5),
           labels=st.sampled_from(["integer RPs", "decimal RPs", "distinct"]),
           duplicate_rows=st.booleans(), min_leaf=st.sampled_from([1, 2, 3]),
           max_depth=st.sampled_from([None, 1, 3]),
           all_features=st.booleans(), n_trees=st.integers(1, 6))
    # found by search: each fails if ties are not broken by bootstrap
    # position or if a later equal cost replaces the first minimum
    @example(seed=9887, n=32, columns=["normal", "copy", "count"],
             labels="decimal RPs", duplicate_rows=False, min_leaf=1,
             max_depth=None, all_features=True, n_trees=6)
    @example(seed=2610, n=26, columns=["normal", "count", "constant"],
             labels="decimal RPs", duplicate_rows=False, min_leaf=1,
             max_depth=None, all_features=True, n_trees=6)
    @example(seed=3544, n=10, columns=["normal", "copy"],
             labels="integer RPs", duplicate_rows=False, min_leaf=1,
             max_depth=None, all_features=False, n_trees=6)
    def test_growth_matches_reference_grower(self, seed, n, columns, labels,
                                             duplicate_rows, min_leaf,
                                             max_depth, all_features, n_trees):
        # Integer columns (like PH counts), constants and copies of column 0
        # tie values within a feature and costs across features. Targets are
        # a few survey points: integer coordinates sum exactly, so equal
        # costs stay equal (first-minimum rule); decimal ones round, so the
        # order tied values are summed in decides near-equal costs (stable
        # tie rule).
        rng = np.random.default_rng(seed)
        make = {"normal": lambda: rng.normal(size=n),
                "count": lambda: rng.integers(0, 4, size=n).astype(float),
                "wide count": lambda: rng.integers(0, 10, size=n).astype(float),
                "constant": lambda: np.full(n, -61.0)}
        X = np.column_stack([make[c]() for c in columns if c != "copy"]
                            or [make["count"]()])
        X = np.column_stack([X] + [X[:, :1]] * columns.count("copy"))
        points = {"integer RPs": rng.integers(0, 3, size=(3, 2)) * 1.0,
                  "decimal RPs": rng.integers(1, 12, size=(3, 2)) * 0.1,
                  "distinct": rng.normal(size=(n, 2))}[labels]
        Y = points[rng.integers(0, len(points), size=n)]
        if duplicate_rows:
            rows = rng.integers(0, max(1, n // 3), size=n)
            X, Y = X[rows], Y[rows]
        d = X.shape[1]
        mtry = d if all_features else None
        model = train_rf(X, Y, RfConfig(n_trees, max_depth, mtry, min_leaf,
                                        seed))
        assert_matches_reference(
            model, reference_forest(X, Y, n_trees, max_depth, mtry, min_leaf,
                                    seed))

    def test_prefix_equals_forest_of_first_trees(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 2))
        model = train_rf(X, Y, RfConfig(12, 5, seed=1))
        probe = rng.normal(size=(9, 3))
        for t in (1, 5, 12):
            first = RfModel.from_trees(model.config, model.n_features,
                                       model.trees[:t])
            assert np.array_equal(model.prefix(t).predict_batch(probe),
                                  first.predict_batch(probe))

    def test_walk_table_is_lazy_and_order_free(self):
        # a prefix and a reloaded model predict the same bits whether or
        # not the full model built its walk table first; loading builds none
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 2))
        model = train_rf(X, Y, RfConfig(12, 6, seed=4))
        section = {"config": asdict(model.config),
                   "n_features": model.n_features}

        def reload():
            return pipeline._forest_from_dict(json.loads(json.dumps(
                section | pipeline._forest_blobs(model))))

        probe = rng.normal(size=(9, 3))
        records = tree_records(model)
        cold, warm = reload(), reload()
        assert "_walk" not in vars(cold) and "_walk" not in vars(warm)
        warm.predict_batch(probe)
        assert "_walk" in vars(warm)
        for t in (1, 5, 12):
            want = forest_walk(records[:t], probe).tobytes()
            for full in (cold, warm, model):
                assert full.prefix(t).predict_batch(probe).tobytes() == want
        assert "_walk" not in vars(cold)
        for full in (cold, warm, model):
            assert full.predict_batch(probe).tobytes() == \
                forest_walk(records, probe).tobytes()

    def test_serialization_round_trip(self):
        # the node table through the artifact's rf section and JSON
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 2))
        model = train_rf(X, Y, RfConfig(10, 6, seed=9))
        section = {"config": asdict(model.config),
                   "n_features": model.n_features}
        clone = pipeline._forest_from_dict(json.loads(json.dumps(
            section | pipeline._forest_blobs(model))))
        probe = rng.normal(size=(15, 3))
        assert np.array_equal(model.predict_batch(probe),
                              clone.predict_batch(probe))

    @pytest.mark.parametrize("column,value,match", [
        ("left", 0, "tree 0 node 0"),  # a cycle back to the root
        ("feature", 3, "tree 0 node 0"),  # feature == n_features
        ("right", 99, "tree 0 node 0"),  # child outside the tree
    ])
    def test_from_dict_rejects_bad_node(self, column, value, match):
        rng = np.random.default_rng(4)
        model = train_rf(rng.normal(size=(30, 3)), rng.normal(size=(30, 2)),
                         RfConfig(1, 3, seed=2))
        columns = table(model)
        assert columns["feature"][0] >= 0  # the root is an inner node
        columns[column][0] = value
        with pytest.raises(ValueError,
                           match=f"^RfModel.{column} is out of range at "
                                 f"forest {match}"):
            RfModel(model.config, model.n_features, **columns)

    # the node count is len(feature), so the other columns are measured
    # against it
    @pytest.mark.parametrize("column", ["threshold", "right", "leaf_xy",
                                        "offsets"])
    def test_table_names_a_column_of_the_wrong_length(self, column):
        rng = np.random.default_rng(4)
        model = train_rf(rng.normal(size=(30, 3)), rng.normal(size=(30, 2)),
                         RfConfig(2, 3, seed=2))
        columns = table(model)
        columns[column] = columns[column][:-1]
        with pytest.raises(ValueError, match=f"^RfModel.{column} "):
            RfModel(model.config, model.n_features, **columns)

    def test_rejects_a_forest_not_in_preorder(self):
        # a valid two-level tree, but its root's children are swapped in
        # position: the left child is node 2, not the next node
        args = (RfConfig(1), 2, np.array([0, -1, -1]),
                np.array([0.5, 0.0, 0.0]))
        leaves = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        RfModel(*args, np.array([1, -1, -1]), np.array([2, -1, -1]), leaves,
                np.array([0, 3]))
        with pytest.raises(ValueError, match="^RfModel.left is out of range "
                                             "at forest tree 0 node 0"):
            RfModel(*args, np.array([2, -1, -1]), np.array([1, -1, -1]),
                    leaves[[0, 2, 1]], np.array([0, 3]))

    def test_from_dict_rejects_leaf_with_child(self):
        with pytest.raises(ValueError, match="RfModel.left .* tree 0 node 0"):
            RfModel(RfConfig(1), 2, np.array([-1]), np.array([0.0]),
                    np.array([0]), np.array([-1]), np.zeros((1, 2)),
                    np.array([0, 1]))


class TestLockstepGrowth:
    """Trees grow together: every tree's stack steps at once, and all popped
    nodes are averaged, scored and split in shared padded passes. The forest
    must equal the one-tree-at-a-time reference grower bit for bit."""

    def test_uneven_forest_over_forced_passes(self, monkeypatch):
        X, Y = rp_survey(np.random.default_rng(2), 200, 0.02)
        cfg = RfConfig(30, 6, max_features=1, seed=5)
        model = train_rf(X, Y, cfg)
        sizes = [len(tree.feature) for tree in model.trees]
        depths = {tree_depth(tree) for tree in model.trees}
        assert max(sizes) >= 3 * min(sizes)  # trees end at different steps
        assert depths >= {5, 6}  # max_depth 6 stops only some trees
        ref = reference_forest(X, Y, 30, 6, 1, 1, 5)
        assert_matches_reference(model, ref)
        # one node per pass, then one tree at a time
        monkeypatch.setattr(regress, "_GROW_CELLS", 1)
        assert_matches_reference(train_rf(X, Y, cfg), ref)
        monkeypatch.setattr(regress, "_GROW_POSITIONS", 1)
        assert_matches_reference(train_rf(X, Y, cfg), ref)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 300),
           noisy_share=st.sampled_from([0.0, 0.05, 1.0]),
           n_trees=st.integers(1, 24), max_depth=st.sampled_from([None, 3, 7]),
           min_leaf=st.sampled_from([1, 2, 5]),
           max_features=st.sampled_from([None, 1, 4]),
           cells=st.sampled_from([None, 200]),
           positions=st.sampled_from([None, 500]))
    # equal costs across candidate features (both RP-coded columns split
    # the three rows alike): fails if a later candidate wins a tie
    @example(seed=0, n=3, noisy_share=0.0, n_trees=1, max_depth=None,
             min_leaf=1, max_features=4, cells=None, positions=None)
    # a few hundred rows over many passes and cohorts of two trees
    @example(seed=1, n=300, noisy_share=0.05, n_trees=24, max_depth=7,
             min_leaf=1, max_features=None, cells=200, positions=600)
    def test_matches_reference_grower(self, seed, n, noisy_share, n_trees,
                                      max_depth, min_leaf, max_features,
                                      cells, positions):
        # up to a few hundred rows, so one step pops nodes of many sizes;
        # small caps split steps into many passes and trees into cohorts
        X, Y = rp_survey(np.random.default_rng(seed), n, noisy_share)
        with mock.patch.object(regress, "_GROW_CELLS",
                               cells or regress._GROW_CELLS), \
                mock.patch.object(regress, "_GROW_POSITIONS",
                                  positions or regress._GROW_POSITIONS):
            model = train_rf(X, Y, RfConfig(n_trees, max_depth, max_features,
                                            min_leaf, seed))
        assert_matches_reference(
            model, reference_forest(X, Y, n_trees, max_depth, max_features,
                                    min_leaf, seed))

    @pytest.mark.parametrize("data_seed,scale,splits", [
        (3, 8.984953022720096e-08, False),
        (7, 1.5064802714465447e-07, True),
    ])
    def test_purity_at_the_threshold(self, data_seed, scale, splits):
        # found by search: the root's SSE is within an ulp of the purity
        # threshold, where the pairwise sum and the padded rows' sum land on
        # different sides of it; the pairwise sum decides
        X = np.arange(40.0)[:, None]
        Y = np.random.default_rng(data_seed).normal(size=(40, 2)) * scale
        model = train_rf(X, Y, RfConfig(1, 1, seed=0))
        assert (model.trees[0].feature[0] >= 0) == splits
        assert_matches_reference(model, reference_forest(X, Y, 1, 1, None, 1,
                                                         0))

    def test_negative_zero_targets(self):
        # numpy's mean adds the targets to +0.0, so a node whose targets
        # are all -0.0 has mean +0.0
        X, Y = rp_survey(np.random.default_rng(4), 60, 0.0)
        Y[:, 1] = -0.0
        Y[Y[:, 0] < 0.5, 0] = -0.0
        assert_matches_reference(train_rf(X, Y, RfConfig(5, None, seed=1)),
                                 reference_forest(X, Y, 5, None, None, 1, 1))

    def test_rejects_nan_features(self):
        X = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ValueError, match="NaN"):
            train_rf(X, np.zeros((3, 2)))


def toy_index(m=40, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    Y = rng.normal(size=(m, 2))
    var = rng.uniform(0.2, 3.0, d)
    return build_knn_index(X, Y, ChannelVariances(var, 0.0)), X, Y, var


class TestKnn:
    def test_stored_point_is_own_nearest(self):
        index, X, Y, _ = toy_index()
        dist, idx = query_knn(index, X[7], 1)
        assert idx[0] == 7
        assert dist[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(10, 200))
            d = int(rng.integers(2, 12))
            k = int(rng.integers(1, 8))
            X = rng.normal(size=(m, d))
            var = rng.uniform(0.1, 4.0, d)
            index = build_knn_index(X, rng.normal(size=(m, 2)),
                                    ChannelVariances(var, 0.0))
            q = rng.normal(size=d)
            _, i1 = query_knn(index, q, k)
            _, i2 = brute_force_knn(X, var, q, k)
            assert set(i1) == set(i2)

    def test_huge_variance_channel_barely_matters(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 3))
        Y = rng.normal(size=(100, 2))
        var = np.array([1.0, 1.0, 1e9])  # channel 2 is downweighted away
        scaled = build_knn_index(X, Y, ChannelVariances(var, 0.0))
        q = rng.normal(size=3)
        _, i_scaled = query_knn(scaled, q, 10)
        _, i_ref = brute_force_knn(X[:, :2], var[:2], q[:2], 10)
        assert np.array_equal(np.sort(i_scaled), np.sort(i_ref))

    def test_scaling_variances_leaves_ranking_unchanged(self):
        index, X, Y, var = toy_index(seed=8)
        doubled = build_knn_index(X, Y, ChannelVariances(var * 4.0, 0.0))
        q = np.zeros(X.shape[1])
        _, i1 = query_knn(index, q, 15)
        _, i2 = query_knn(doubled, q, 15)
        assert np.array_equal(i1, i2)

    def test_k1_returns_nearest_label(self):
        index, X, Y, _ = toy_index(seed=9)
        p = predict_wknn(index, X[3], 1)
        assert (p.x, p.y) == (Y[3, 0], Y[3, 1])

    def test_coincident_query_dominates(self):
        index, X, Y, _ = toy_index(seed=10)
        p = predict_wknn(index, X[5], 3)
        assert abs(p.x - Y[5, 0]) < 1e-6 and abs(p.y - Y[5, 1]) < 1e-6

    def test_two_equidistant_neighbors_average(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        Y = np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        index = build_knn_index(X, Y, ChannelVariances(np.ones(2), 0.0))
        p = predict_wknn(index, np.zeros(2), 2)
        assert (p.x, p.y) == (1.0, 0.0)

    def test_k_bounds(self):
        index, *_ = toy_index()
        with pytest.raises(ValueError):
            query_knn(index, np.zeros(4), 0)
        with pytest.raises(ValueError):
            query_knn(index, np.zeros(4), index.m + 1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 8))
    def test_prediction_in_convex_hull_of_neighbors(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 2))
        index = build_knn_index(X, Y, ChannelVariances(np.ones(3), 0.0))
        q = rng.normal(size=3)
        _, idx = query_knn(index, q, k)
        p = predict_wknn(index, q, k)
        hull = Y[idx]
        assert hull[:, 0].min() - 1e-9 <= p.x <= hull[:, 0].max() + 1e-9
        assert hull[:, 1].min() - 1e-9 <= p.y <= hull[:, 1].max() + 1e-9

    def test_rejects_non_finite_points_and_labels(self):
        _, X, Y, var = toy_index()
        metric = ChannelVariances(var, 0.0)
        bad_x = X.copy()
        bad_x[3, 1] = np.nan
        with pytest.raises(ValueError, match="points must be finite"):
            build_knn_index(bad_x, Y, metric)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="points must be finite"):  # scaled: inf
            build_knn_index(X * 1e300, Y, ChannelVariances(var * 1e-20, 0.0))
        bad_y = Y.copy()
        bad_y[5, 0] = np.inf
        with pytest.raises(ValueError, match="labels must be finite"):
            build_knn_index(X, bad_y, metric)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_query(self, bad):
        index, X, *_ = toy_index()
        q = X[:3].copy()
        q[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            query_knn(index, q[1], 3)
        with pytest.raises(ValueError, match="finite"):
            predict_wknn(index, q[1], 3)
        with pytest.raises(ValueError, match="finite"):
            predict_wknn_batch(index, q, 3)

    def test_rejects_query_of_wrong_dimension(self):
        index, *_ = toy_index(d=4)
        for q in (np.zeros(3), np.zeros((1, 4))):
            with pytest.raises(ValueError, match="dimension"):
                query_knn(index, q, 2)
            with pytest.raises(ValueError, match="dimension"):
                predict_wknn(index, q, 2)
        with pytest.raises(ValueError, match="dimension"):
            predict_wknn_batch(index, np.zeros((2, 5)), 2)

    def test_many_ties_go_to_the_lowest_indices(self):
        # 40 points at distance 1 from the query (more than a kd-tree query
        # with 16 spare neighbours could order), one far, one nearer
        unit = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        X = np.vstack([np.tile(unit, (10, 1)), [[5.0, 5.0], [0.0, 0.5]]])
        Y = np.arange(2 * len(X), dtype=float).reshape(-1, 2)
        index = build_knn_index(X, Y, ChannelVariances(np.ones(2), 0.0))
        delta, idx = query_knn(index, np.zeros(2), 25)
        assert idx[0] == 41 and delta[0] == 0.25
        assert idx[1:].tolist() == list(range(24))
        assert (delta[1:] == 1.0).all()


def _knn_case(seed, m, d, layout):
    """Points, labels and variances: Gaussian, rounded to integers (many
    equal distances) or drawn from a few distinct rows (duplicates)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d)) * rng.uniform(0.05, 20.0)
    var = rng.uniform(0.1, 5.0, d)
    if layout == "rounded":
        X, var = np.round(X), np.ones(d)
    elif layout == "duplicates":
        X = X[rng.integers(0, max(1, m // 4), m)]
    Y = np.round(rng.normal(size=(m, 2)) * 3.0, 1)
    return X, Y, var, rng


class TestKnnKernel:
    """The linear scan equals a cKDTree query ordered by (distance, index),
    bit for bit, over blocks answered in one or many passes."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
           d=st.integers(1, 20), n=st.integers(1, 12),
           layout=st.sampled_from(["gauss", "rounded", "duplicates"]),
           cells=st.sampled_from([None, 1, 200]), data=st.data())
    def test_matches_kdtree(self, seed, m, d, n, layout, cells, data):
        X, Y, var, rng = _knn_case(seed, m, d, layout)
        k = data.draw(st.integers(1, m), label="k")
        Q = rng.normal(size=(n, d)) * rng.uniform(0.05, 20.0)
        if layout == "rounded":
            Q = np.round(Q)
        hits = rng.integers(0, m, n)
        on_point = rng.random(n) < 0.3
        Q[on_point] = X[hits[on_point]]  # queries on stored points
        index = build_knn_index(X, Y, ChannelVariances(var, 0.0))
        want_delta, want_idx = kdtree_knn(X, var, Q, k)
        with mock.patch.object(regress, "_KNN_CELLS",
                               cells or regress._KNN_CELLS):
            delta, idx = regress._query_rows(index, Q, k)
            batch = predict_wknn_batch(index, Q, k, 1e-9)
        assert delta.tobytes() == want_delta.tobytes()
        assert idx.tolist() == want_idx.tolist()
        for i, q in enumerate(Q):
            one_delta, one_idx = query_knn(index, q, k)
            assert one_delta.tobytes() == want_delta[i].tobytes()
            assert one_idx.tolist() == want_idx[i].tolist()
            expect = reference_wknn(Y, want_delta[i], want_idx[i], 1e-9)
            assert batch[i].tobytes() == expect.tobytes()
            assert predict_wknn(index, q, k, 1e-9).xy.tobytes() == \
                expect.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           k=st.integers(1, 30), eps=st.sampled_from([1e-9, 1e-3, 1.0]))
    def test_batch_equals_per_row(self, seed, n, k, eps):
        X, Y, var, rng = _knn_case(seed, 90, 14, "gauss")
        index = build_knn_index(X, Y, ChannelVariances(var, 0.0))
        Q = X[rng.integers(0, 90, n)] + rng.normal(size=(n, 14)) * 0.1
        with mock.patch.object(regress, "_KNN_CELLS", 14 * 90 * 3):
            batch = predict_wknn_batch(index, Q, k, eps)  # passes of 3 rows
        rows = [predict_wknn(index, q, k, eps).xy for q in Q]
        assert batch.tobytes() == np.array(rows).tobytes()

    def test_one_dimensional_row_is_one_query(self):
        index, X, *_ = toy_index()
        assert predict_wknn_batch(index, X[2], 4).tobytes() == \
            predict_wknn(index, X[2], 4).xy[None].tobytes()


class TestOneRowPaths:
    """A one-row query takes its own, shorter path through the forest and
    the kNN scan; each row answered alone equals that row of a block."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 12),
           max_depth=st.sampled_from([1, 3, None]), n=st.integers(2, 9))
    def test_forest_row_alone_equals_its_block_row(self, seed, n_trees,
                                                   max_depth, n):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(30, 3)), 1)
        Y = rng.normal(size=(30, 2))
        model = train_rf(X, Y, RfConfig(n_trees, max_depth, seed=seed % 97))
        # rows on training values sit on split thresholds
        probe = np.vstack([X[rng.integers(0, 30, n // 2)],
                           rng.normal(size=(n - n // 2, 3))])
        block = model.predict_batch(probe)
        assert block.tobytes() == forest_walk(tree_records(model),
                                              probe).tobytes()
        for i, row in enumerate(probe):
            assert model.predict_batch(probe[i:i + 1]).tobytes() == \
                block[i:i + 1].tobytes()
            assert model.predict_batch(row).tobytes() == \
                block[i:i + 1].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
           d=st.integers(1, 20), n=st.integers(2, 12),
           layout=st.sampled_from(["gauss", "rounded", "duplicates"]),
           data=st.data())
    def test_knn_row_alone_equals_its_block_row(self, seed, m, d, n, layout,
                                                data):
        X, Y, var, rng = _knn_case(seed, m, d, layout)
        k = data.draw(st.integers(1, m), label="k")
        Q = np.round(rng.normal(size=(n, d)) * 3.0)
        on_point = rng.random(n) < 0.3
        Q[on_point] = X[rng.integers(0, m, n)][on_point]
        index = build_knn_index(X, Y, ChannelVariances(var, 0.0))
        delta, idx = regress._query_rows(index, Q, k)
        block = predict_wknn_batch(index, Q, k, 1e-9)
        for i in range(n):
            one_delta, one_idx = regress._query_rows(index, Q[i:i + 1], k)
            assert one_delta.tobytes() == delta[i:i + 1].tobytes()
            assert one_idx.tolist() == idx[i:i + 1].tolist()
            assert predict_wknn_batch(index, Q[i:i + 1], k, 1e-9).tobytes() \
                == block[i:i + 1].tobytes()

    @pytest.mark.parametrize("k", range(1, 12))
    def test_ties_at_the_kth_neighbour(self, k):
        # eight points at distance 1 from the origin, two at sqrt 2, and
        # the blocks' other rows off the lattice: ties straddle the k-th
        # neighbour for most k
        unit = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        X = np.vstack([unit, [[1.0, 1.0]], unit, [[-1.0, -1.0], [3.0, 3.0]]])
        Y = np.arange(2 * len(X), dtype=float).reshape(-1, 2)
        index = build_knn_index(X, Y, ChannelVariances(np.ones(2), 0.0))
        Q = np.array([[0.0, 0.0], [0.3, -0.2], [0.0, 0.0], [1.0, 1.0]])
        delta, idx = regress._query_rows(index, Q, k)
        block = predict_wknn_batch(index, Q, k, 1e-9)
        # (distance, index) order from the origin
        assert idx[0].tolist() == [0, 1, 2, 3, 5, 6, 7, 8, 4, 9, 10][:k]
        for i in range(len(Q)):
            one_delta, one_idx = query_knn(index, Q[i], k)
            assert one_delta.tobytes() == delta[i].tobytes()
            assert one_idx.tolist() == idx[i].tolist()
            assert predict_wknn_batch(index, Q[i:i + 1], k, 1e-9).tobytes() \
                == block[i:i + 1].tobytes()
