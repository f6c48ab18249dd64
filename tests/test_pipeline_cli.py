import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

import fpfuse
from fpfuse import cli
from fpfuse import evaluate as ev
from fpfuse import pipeline as pl
from fpfuse.datamodel import SynthSpec, synth_radio_map
from fpfuse.evaluate import SearchGrids, fuse_points_batch, locate
from fpfuse.filters import FilterConfig, filter_stream
from fpfuse.fuse import (ConflictError, confidences, write_belief_csv,
                         write_belief_pgm)
from fpfuse.pipeline import (ArtifactError, PipelineConfig, PredictorSession,
                             ScanError, StageError, bench_pipeline,
                             fit_pipeline, load_artifact, predict_one,
                             save_artifact, write_belief_map)
from fpfuse.preprocess import ChannelVariances, NormStats, normalize_matrix
from fpfuse.regress import (RfConfig, build_knn_index, predict_wknn_batch,
                            train_rf)
from fpfuse.topo import features_matrix


def small_data(seed=0):
    return synth_radio_map(SynthSpec(n_rp=6, samples_per_rp=12, n_wifi=4,
                                     n_ble=2, seed=seed))


def small_cfg(**kwargs):
    base = dict(filter=FilterConfig(method="kf"), n_trees=12,
                alpha_grid=(0.5, 2.0), cell_width=1.0, seed=3)
    base.update(kwargs)
    return PipelineConfig(**base)


def edit_blob(blob, field, edit):
    """Decode the packed array of artifact field `field` ("section.name")
    in a loaded artifact JSON, and store edit(a writable copy) packed
    again."""
    section, name = field.split(".")
    arr = pl._unpack(field, blob[section][name]).copy()
    blob[section][name] = pl._pack(edit(arr))


def set_at(index, value):
    """An edit_blob edit that sets one element."""
    def edit(arr):
        arr[index] = value
        return arr
    return edit


# the node table's columns, as RfModel holds them
RF_COLUMNS = ("feature", "threshold", "left", "right", "leaf_xy", "offsets")


@pytest.fixture(scope="module")
def artifact():
    return fit_pipeline(small_data(), small_cfg())


@pytest.fixture(scope="module")
def pf_artifact():
    return fit_pipeline(small_data(), small_cfg(
        filter=FilterConfig(method="pf", n_particles=300)))


@pytest.fixture(scope="module")
def plain_artifact():
    return fit_pipeline(small_data(), small_cfg(use_ph=False))


@pytest.fixture(scope="module")
def probe_scans():
    rng = np.random.default_rng(9)
    return rng.uniform(-85.0, -35.0, size=(100, 6))


class TestPipelineConfig:
    @pytest.mark.parametrize("field,value", [
        ("fusion_mode", "bogus"), ("dst_point_mode", "centroid"),
        ("norm_mode", "linear"), ("convex_lambda", 3.0),
        ("convex_lambda", -0.1), ("convex_lambda", float("nan")),
        ("theta_discount", 1.5), ("theta_discount", 1.0),
        ("theta_discount", -0.01), ("theta_discount", float("nan")),
        ("cell_width", 0.0), ("cell_width", -1.0), ("k", 0), ("n_trees", 0),
        ("max_depth", 0), ("eps", 0.0), ("eps", float("nan")),
        ("alpha", 0.0), ("alpha", -2.0), ("alpha_grid", ()),
        ("alpha_grid", (0.5, 0.0)), ("alpha_grid", (float("nan"),)),
        ("alpha", float("inf")), ("eps", float("inf")),
        ("ratios", (0.5, 0.5, 0.5)), ("grids", {}), ("k", 2.5),
        ("n_trees", 2.5), ("max_depth", 2.5), ("seed", -1), ("seed", 1.5),
        ("k", True), ("n_trees", True), ("max_depth", True), ("seed", True),
        ("cell_width", float("inf")), ("convex_lambda", True),
        ("use_ph", "no")])
    def test_rejects_unknown_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"PipelineConfig.{field}"):
            small_cfg(**{field: value})

    def test_accepts_lambda_bounds(self):
        assert small_cfg(convex_lambda=0.0).convex_lambda == 0.0
        assert small_cfg(convex_lambda=1.0).convex_lambda == 1.0

    def test_accepts_range_edges(self):
        cfg = small_cfg(theta_discount=0.0, max_depth=None, alpha=None, k=1,
                        n_trees=1, alpha_grid=(1e-3,))
        assert (cfg.theta_discount, cfg.max_depth, cfg.alpha) == (0.0, None,
                                                                  None)


class TestFitPipeline:
    def test_artifact_fields_populated(self, artifact):
        assert artifact.version == "3"
        assert artifact.d == 6
        assert artifact.alpha in (0.5, 2.0)
        assert artifact.beta > 0
        assert artifact.ph_stats is not None
        assert 0.0 <= artifact.measure.mu1 <= 1.0

    def test_refit_deterministic(self, artifact, tmp_path):
        again = fit_pipeline(small_data(), small_cfg())
        p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
        save_artifact(artifact, p1)
        save_artifact(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stage_error_names_stage(self):
        bad = small_data()
        with pytest.raises(StageError, match="split"):
            # ratios leaving empty validation shares per RP
            fit_pipeline(bad, small_cfg(ratios=(0.98, 0.01, 0.01)))

    def test_without_ph(self):
        art = fit_pipeline(small_data(), small_cfg(use_ph=False))
        assert art.ph_stats is None
        res = predict_one(art, np.full(6, -60.0))
        assert np.isfinite([res.position.x, res.position.y]).all()

    def test_with_cv_grids(self):
        grids = SearchGrids(gamma=(0.25, 1.0), n_particles=(200,),
                            ess_tau=(0.3,), k=(3, 5), n_trees=(8,),
                            max_depth=(4,), alpha=(1.0,), cell_width=(1.0,))
        art = fit_pipeline(small_data(), small_cfg(grids=grids))
        assert art.k in (3, 5)
        assert art.config["k"] in (3, 5)

    def test_cv_search_filters_at_the_users_predict_sigma(self, monkeypatch):
        # every stream of the PF sweep, and of the fit after it, steps at
        # the predict_sigma the user set
        sigmas = []
        filter_stream = ev.filter_stream
        monkeypatch.setattr(ev, "filter_stream", lambda x, cfg: (
            sigmas.append(cfg.predict_sigma), filter_stream(x, cfg))[1])
        grids = SearchGrids(gamma=(0.5,), n_particles=(100, 200),
                            ess_tau=(0.3,), k=(3,), n_trees=(6,),
                            max_depth=(4,), alpha=(1.0,), cell_width=(1.0,))
        fit_pipeline(small_data(), small_cfg(grids=grids, filter=FilterConfig(
            "pf", n_particles=100, predict_sigma=0.7)))
        # 6 RPs per stream set: 2 candidates + the winner on 5 folds, then
        # the fit's validation streams
        assert len(sigmas) == 6 * (3 * 5 + 1)
        assert set(sigmas) == {0.7}


class TestArtifactRoundTrip:
    def test_predictions_bit_identical(self, artifact, probe_scans, tmp_path):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        for scan in probe_scans:
            a = predict_one(artifact, scan)
            b = predict_one(loaded, scan)
            assert (a.position.x, a.position.y) == (b.position.x, b.position.y)

    @settings(max_examples=150, deadline=None)
    @given(arr=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                     max_side=6),
        # NaN and the infinities come with st.floats()
        elements=st.floats() | st.sampled_from(
            [-0.0, 5e-324, -2.225e-308, np.finfo(float).max,
             -np.finfo(float).max])))
    @example(arr=np.empty((0, 2)))
    @example(arr=np.array([[-0.0, 5e-324]]))
    def test_float_blob_round_trip_is_bit_exact(self, arr):
        field = "rf.threshold" if arr.ndim == 1 else "knn.points"
        self.check_blob_round_trip(field, arr)

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["rf.feature", "rf.right", "rf.offsets"]),
           arr=hnp.arrays(st.sampled_from([np.int32, np.int64]),
                          st.integers(0, 6)))
    def test_index_blob_round_trip_is_bit_exact(self, field, arr):
        # format v3 stores node indices as int32 only
        if arr.dtype == np.int32:
            self.check_blob_round_trip(field, arr)
        else:
            with pytest.raises(ArtifactError, match=f"^artifact field "
                                                    f"{field}: dtype '<i8'"):
                pl._unpack(field, json.loads(json.dumps(pl._pack(arr))))

    @staticmethod
    def check_blob_round_trip(field, arr):
        out = pl._unpack(field, json.loads(json.dumps(pl._pack(arr))))
        assert (out.dtype, out.shape) == (arr.dtype, arr.shape)
        assert out.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("fixture", ["artifact", "pf_artifact",
                                         "plain_artifact"])
    def test_dict_round_trip_predicts_identically(self, fixture, request,
                                                  probe_scans):
        a = request.getfixturevalue(fixture)
        b = pl.artifact_from_dict(json.loads(json.dumps(
            pl.artifact_to_dict(a))))
        for name in RF_COLUMNS:
            col_a, col_b = getattr(a.rf, name), getattr(b.rf, name)
            assert (col_a.dtype, col_a.tobytes()) == (col_b.dtype,
                                                      col_b.tobytes())
        assert a.knn.points.tobytes() == b.knn.points.tobytes()
        assert a.knn.labels.tobytes() == b.knn.labels.tobytes()
        sessions = PredictorSession(a), PredictorSession(b)
        for scan in probe_scans[:20]:
            ra, rb = (s.predict(scan, keep_bba=True) for s in sessions)
            assert outputs(ra) == outputs(rb)
            assert ra.bba.singleton.tobytes() == rb.bba.singleton.tobytes()
            assert ra.bba.theta_mass == rb.bba.theta_mass

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           d=st.integers(1, 5), n_trees=st.integers(1, 6),
           max_depth=st.sampled_from([1, 2, 3, None]),
           min_leaf=st.integers(1, 3), constant=st.booleans())
    @example(seed=0, n=2, d=1, n_trees=1, max_depth=1, min_leaf=1,
             constant=True)
    def test_forest_round_trip_is_column_equal(self, plain_artifact, seed, n,
                                               d, n_trees, max_depth,
                                               min_leaf, constant):
        # constant targets grow trees that are one leaf each
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        Y = np.full((n, 2), 1.5) if constant else rng.normal(size=(n, 2))
        rf = train_rf(X, Y, RfConfig(n_trees, max_depth, min_leaf=min_leaf,
                                     seed=seed))
        var = ChannelVariances(np.ones(d))
        a = replace(plain_artifact, rf=rf, variances=var,
                    norm=NormStats("dbm_zscore", np.zeros(d), np.ones(d),
                                   np.zeros(d, dtype=bool)),
                    filter_cfg=replace(plain_artifact.filter_cfg,
                                       r=np.ones(d)),
                    knn=build_knn_index(X, Y, var))
        text = json.dumps(pl.artifact_to_dict(a), sort_keys=True)
        b = pl.artifact_from_dict(json.loads(text))
        for name in RF_COLUMNS:
            col_a, col_b = getattr(a.rf, name), getattr(b.rf, name)
            assert (col_a.dtype, col_a.tobytes()) == (col_b.dtype,
                                                      col_b.tobytes())
        probe = rng.normal(size=(7, d)) * 3
        assert (a.rf.predict_batch(probe).tobytes()
                == b.rf.predict_batch(probe).tobytes())
        assert json.dumps(pl.artifact_to_dict(b), sort_keys=True) == text

    def test_saved_as_compact_json(self, artifact, tmp_path):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        text = path.read_text()
        assert text.index("\n") == len(text) - 1  # one line, newline-ended
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    @pytest.mark.parametrize("fixture", ["artifact", "plain_artifact"])
    def test_indented_artifact_loads_identically(self, fixture, request,
                                                 probe_scans, tmp_path):
        # an indented copy of the file (the packed arrays are single JSON
        # strings) loads as the compact file does
        compact, indented = tmp_path / "compact.json", tmp_path / "old.json"
        save_artifact(request.getfixturevalue(fixture), compact)
        indented.write_text(json.dumps(json.loads(compact.read_text()),
                                       sort_keys=True, indent=1) + "\n")
        new, old = load_artifact(compact), load_artifact(indented)
        save_artifact(old, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == compact.read_bytes()
        for mode in pl.FUSION_MODES:
            sessions = PredictorSession(new), PredictorSession(old)
            for scan in probe_scans[:30]:
                a, b = (s.predict(scan, fusion_mode=mode, keep_bba=True)
                        for s in sessions)
                assert (a.position, a.rf_position, a.knn_position) == \
                    (b.position, b.rf_position, b.knn_position)
                assert (a.confidence_rf, a.confidence_knn,
                        a.fused_confidence) == (b.confidence_rf,
                                                b.confidence_knn,
                                                b.fused_confidence)
                assert a.bba.singleton.tobytes() == b.bba.singleton.tobytes()
                assert a.bba.theta_mass == b.bba.theta_mass

    def test_version_checked(self, artifact, tmp_path):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        blob["version"] = "999"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)

    @pytest.mark.parametrize("field,value,match", [
        ("mode", "bogus", "fusion.mode"),
        ("dst_point_mode", "bogus", "fusion.dst_point_mode"),
        ("cell_width", None, "malformed artifact"),
    ])
    def test_malformed_artifact_exits_2(self, artifact, tmp_path, capsys,
                                        field, value, match):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        if value is None:
            del blob["fusion"][field]
        else:
            blob["fusion"][field] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ArtifactError, match=match):
            load_artifact(path)
        rc = cli.main(["predict", "--artifact", str(path),
                       "--scan=-60,-61,-62,-63,-64,-65"])
        assert rc == 2
        assert match in capsys.readouterr().err


    @pytest.mark.parametrize("match,edit", [
        ("filter.r", lambda b: b["filter"]["r"].pop()),
        ("variances.var", lambda b: b["variances"]["var"].pop()),
        ("norm.sigma", lambda b: b["norm"]["sigma"].append(1.0)),
        ("ph_stats.mu", lambda b: b["ph_stats"]["mu"].pop()),
        ("rf.n_features", lambda b: b["rf"].update(
            n_features=b["rf"]["n_features"] + 1)),
        ("knn.points", lambda b: edit_blob(b, "knn.points",
                                           lambda a: a[:, :-1])),
    ])
    def test_inconsistent_dimensions_exit_2(self, artifact, tmp_path, capsys,
                                            match, edit):
        self.check_load_fails(artifact, tmp_path, capsys, match, edit)

    @pytest.mark.parametrize("match,edit", [
        pytest.param("knn.var", lambda b: b["knn"]["var"].pop(), id="short"),
        pytest.param("knn.var", lambda b: b["knn"]["var"].__setitem__(0, 0.0),
                     id="zero"),
        pytest.param("knn.var", lambda b: b["knn"]["var"].__setitem__(
            0, float("nan")), id="nan"),
        pytest.param("variances.var", lambda b: b["variances"][
            "var"].__setitem__(0, float("nan")), id="nan variance"),
        pytest.param("knn.labels", lambda b: edit_blob(
            b, "knn.labels", lambda a: a[:-1]), id="labels"),
        pytest.param("knn.points", lambda b: edit_blob(
            b, "knn.points", set_at((2, 1), float("nan"))), id="nan point"),
        pytest.param("knn.labels", lambda b: edit_blob(
            b, "knn.labels", set_at((4, 0), float("inf"))), id="inf label"),
        pytest.param("fusion.bounds", lambda b: b["fusion"].update(
            bounds=[b["fusion"]["bounds"][i] for i in (2, 1, 0, 3)]),
            id="inverted bounds"),
        pytest.param("fusion.cell_width", lambda b: b["fusion"].update(
            cell_width=0.0), id="zero width"),
        pytest.param("predict_sigma", lambda b: b["filter"]["pf"].update(
            predict_sigma=float("nan")), id="nan predict_sigma"),
        pytest.param("filter.r", lambda b: b["filter"]["r"].__setitem__(
            0, float("nan")), id="nan r"),
        pytest.param("filter.r", lambda b: (
            b["filter"].update(method="pf"),
            b["filter"]["r"].__setitem__(0, float("nan"))), id="nan r pf"),
        pytest.param("filter.r", lambda b: b["filter"]["r"].__setitem__(
            1, 0.0), id="zero r"),
        pytest.param("filter.q_gamma", lambda b: b["filter"].update(
            q_gamma=-1.0), id="negative q_gamma"),
        pytest.param("filter.q_gamma", lambda b: b["filter"].update(
            q_gamma=float("inf")), id="inf q_gamma"),
        pytest.param("filter.pf.seed", lambda b: b["filter"]["pf"].update(
            seed=True), id="bool seed"),
        pytest.param("rf.threshold", lambda b: b["rf"]["threshold"].update(
            data="not base64!"), id="bad base64"),
        pytest.param("knn.points", lambda b: b["knn"]["points"][
            "shape"].__setitem__(0, b["knn"]["points"]["shape"][0] + 1),
            id="shape past the bytes"),
        pytest.param("knn.labels", lambda b: b["knn"]["labels"].update(
            dtype="|O"), id="object dtype"),
        pytest.param("rf.threshold", lambda b: b["rf"].update(
            threshold=pl._pack(pl._unpack("rf.threshold", b["rf"][
                "threshold"]).astype("<f4"))), id="float32 threshold"),
        pytest.param("rf.right", lambda b: edit_blob(b, "rf.right",
                                                     set_at(0, 0)),
                     id="child is its node"),
        pytest.param("version", lambda b: b.update(version="1"),
                     id="v1 artifact"),
        pytest.param("rf.right", lambda b: edit_blob(b, "rf.right",
                                                     lambda a: a[:-1]),
                     id="right one short"),
        pytest.param("rf.threshold", lambda b: edit_blob(
            b, "rf.threshold", lambda a: np.append(a, 0.5)),
            id="threshold one too many"),
        pytest.param("rf.leaf_xy", lambda b: edit_blob(
            b, "rf.leaf_xy", lambda a: a[1:]), id="leaf_xy rows not leaves"),
        pytest.param("rf.feature", lambda b: edit_blob(
            b, "rf.feature", lambda a: np.where(
                np.arange(len(a)) == np.argmin(a), 0, a).astype(np.int32)),
            id="leaf made inner"),
        pytest.param("version", lambda b: b.update(version="2"),
                     id="v2 artifact"),
    ])
    def test_bad_field_named_exit_2(self, artifact, tmp_path, capsys, match,
                                    edit):
        self.check_load_fails(artifact, tmp_path, capsys, match, edit)

    def test_filter_sections_keep_their_layout(self, pf_artifact, tmp_path):
        # the v1 filter section, and the five user-set filter fields in the
        # config snapshot (r and the PF seed are bound by the fit)
        path = tmp_path / "artifact.json"
        save_artifact(pf_artifact, path)
        blob = json.loads(path.read_text())
        assert set(blob["filter"]) == {"method", "q_gamma", "r", "pf"}
        assert set(blob["filter"]["pf"]) == {"n_particles", "ess_tau",
                                             "predict_sigma", "seed"}
        assert blob["config"]["filter"] == {
            "method": "pf", "gamma": 0.5, "n_particles": 300, "ess_tau": 0.3,
            "predict_sigma": 1.0}

    @pytest.mark.parametrize("field,value", [
        ("fusion.alpha", -1.0), ("fusion.alpha", 0.0),
        ("fusion.alpha", float("nan")), ("fusion.beta", 0.0),
        ("fusion.beta", float("inf")), ("fusion.theta_discount", 1.5),
        ("fusion.theta_discount", 1.0), ("fusion.theta_discount", -0.1),
        ("fusion.convex_lambda", 2.0), ("fusion.convex_lambda", -0.5),
        ("fusion.convex_lambda", "0.5"), ("knn.k", 0), ("knn.k", 2.5),
        ("knn.k", True), ("knn.eps", 0.0), ("knn.eps", float("nan")),
        ("fusion.cell_width", float("inf")), ("norm.mode", "linear")])
    def test_bad_scalar_named_exit_2(self, artifact, tmp_path, capsys,
                                     field, value):
        # checked when loaded, not first when a scan is fused (or, under
        # --fusion convex, never)
        section, key = field.split(".")
        self.check_load_fails(artifact, tmp_path, capsys, f"{field} must",
                              lambda b: b[section].update({key: value}))

    @pytest.mark.parametrize("field,value", [
        ("norm.mu", None), ("norm.sigma", None), ("norm.mu", "x"),
        ("norm.sigma", [1.0, "a", 1.0, 1.0, 1.0, 1.0]),
        ("norm.mu", [[0.0], [1.0, 2.0]])])
    def test_bad_norm_vector_named_exit_2(self, artifact, tmp_path, capsys,
                                          field, value):
        section, key = field.split(".")
        self.check_load_fails(artifact, tmp_path, capsys, f"{field} must",
                              lambda b: b[section].update({key: value}))

    def test_unbound_pf_seed_named_exit_2(self, pf_artifact, tmp_path,
                                         capsys):
        # named when loaded, not first when predict starts the filter
        self.check_load_fails(pf_artifact, tmp_path, capsys,
                              "filter.pf.seed must",
                              lambda b: b["filter"]["pf"].update(seed=None))

    def test_kf_artifact_loads_without_a_pf_seed(self, artifact, tmp_path,
                                                 probe_scans):
        # the cross-field rule binds the seed of a 'pf' filter only
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        blob["filter"]["pf"]["seed"] = None
        path.write_text(json.dumps(blob))
        loaded = load_artifact(path)
        assert loaded.filter_cfg.seed is None
        assert predict_one(loaded, probe_scans[0]).position == \
            predict_one(artifact, probe_scans[0]).position

    def test_bad_choquet_measure_named_exit_2(self, artifact, tmp_path,
                                              capsys):
        self.check_load_fails(artifact, tmp_path, capsys, "fusion.measure",
                              lambda b: b["fusion"]["measure"].update(mu1=2.0))

    def test_max_features_below_one_exit_2(self, artifact, tmp_path, capsys):
        self.check_load_fails(artifact, tmp_path, capsys, "max_features",
                              lambda b: b["rf"]["config"].update(
                                  max_features=0))

    @staticmethod
    def check_load_fails(artifact, tmp_path, capsys, match, edit):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ArtifactError, match=match):
            load_artifact(path)
        rc = cli.main(["predict", "--artifact", str(path),
                       "--scan=-60,-61,-62,-63,-64,-65"])
        assert rc == 2
        assert match in capsys.readouterr().err


class TestPredict:
    def test_convex_lambda_one_is_pure_rf(self, artifact):
        scan = np.full(6, -55.0)
        res = predict_one(artifact, scan, fusion_mode="convex",
                          convex_lambda=1.0)
        assert (res.position.x, res.position.y) == (res.rf_position.x,
                                                    res.rf_position.y)

    def test_convex_lambda_zero_is_pure_knn(self, artifact):
        scan = np.full(6, -55.0)
        res = predict_one(artifact, scan, fusion_mode="convex",
                          convex_lambda=0.0)
        assert (res.position.x, res.position.y) == (res.knn_position.x,
                                                    res.knn_position.y)

    def test_choquet_mode_between_sources(self, artifact):
        scan = np.full(6, -62.0)
        res = predict_one(artifact, scan, fusion_mode="choquet")
        xs = sorted([res.rf_position.x, res.knn_position.x])
        assert xs[0] - 1e-9 <= res.position.x <= xs[1] + 1e-9

    def test_training_scan_lands_near_its_rp(self):
        data = small_data()
        art = fit_pipeline(data, small_cfg())
        res = predict_one(art, data.rss_matrix()[0])
        x, y = data.xy_matrix()[0]
        err = np.hypot(res.position.x - x, res.position.y - y)
        assert err < art.grid.h  # stays inside the RP's own cell

    def test_dimension_mismatch(self, artifact):
        with pytest.raises(ValueError):
            predict_one(artifact, np.zeros(5))

    def test_stream_state_changes_results(self, artifact):
        rng = np.random.default_rng(1)
        scans = rng.uniform(-80, -40, size=(3, 6))
        session = PredictorSession(artifact)
        streamed = [session.predict(s).position for s in scans]
        oneshot = [predict_one(artifact, s).position for s in scans]
        assert (streamed[0].x, streamed[0].y) == (oneshot[0].x, oneshot[0].y)
        assert (streamed[2].x, streamed[2].y) != (oneshot[2].x, oneshot[2].y)

    def test_belief_export_consistent(self, artifact, tmp_path, capsys):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        pgm = tmp_path / "map.pgm"
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=" + ",".join(["-58.0"] * 6),
                       "--belief-map", str(pgm)])
        assert rc == 0
        cell = json.loads(capsys.readouterr().out)["argmax_cell"]
        lines = pgm.read_text().splitlines()
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert pixels.index(max(pixels)) == cell
        assert len(pixels) == artifact.grid.n_cells


def outputs(res):
    return (res.position.xy.tobytes(), res.rf_position.xy.tobytes(),
            res.knn_position.xy.tobytes(), res.confidence_rf,
            res.confidence_knn, res.fused_confidence)


class TestScanContract:
    @pytest.mark.parametrize("method", ["kf", "pf"])
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf, 50.0,
                                           1e-8, -120.00001, -1e6])
    @pytest.mark.parametrize("at", [0, 2])
    def test_bad_scan_leaves_session_as_it_was(self, artifact, pf_artifact,
                                               method, bad_value, at):
        art = artifact if method == "kf" else pf_artifact
        scans = np.random.default_rng(4).uniform(-80, -40, size=(5, 6))
        never_bad = PredictorSession(art)
        expected = [outputs(never_bad.predict(s)) for s in scans]
        session = PredictorSession(art)
        got = []
        for i, scan in enumerate(scans):
            if i == at:
                bad = scan.copy()
                bad[3] = bad_value
                with pytest.raises(ScanError, match="channel 3"):
                    session.predict(bad)
            got.append(outputs(session.predict(scan)))
        assert got == expected

    def test_failure_after_the_filter_commits_nothing(self, pf_artifact,
                                                      monkeypatch):
        scans = np.random.default_rng(5).uniform(-80, -40, size=(4, 6))
        never_failed = PredictorSession(pf_artifact)
        expected = [outputs(never_failed.predict(s)) for s in scans]
        session = PredictorSession(pf_artifact)
        got = [outputs(session.predict(scans[0]))]
        with monkeypatch.context() as m:
            m.setattr(pl, "confidences_from_distances", lambda *a: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                session.predict(scans[1])
        got += [outputs(session.predict(s)) for s in scans[1:]]
        assert got == expected

    def test_range_edges_pass(self, artifact):
        # the survey loader's tolerance: 1e-9 dBm past either end still passes
        for value in (0.0, 5e-10, -120.0, -120.0 - 5e-10):
            res = predict_one(artifact, np.full(6, value))
            assert np.isfinite(res.position.xy).all()

    def test_cli_huge_scan_exits_2_under_mw_zscore(self, tmp_path, capsys):
        # 4000 dBm overflows to inf in milliwatts; it must not get that far
        art_path = tmp_path / "artifact.json"
        save_artifact(fit_pipeline(small_data(),
                                   small_cfg(norm_mode="mw_zscore")), art_path)
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=4000,-61,-62,-63,-64,-65"])
        assert rc == 2
        assert "channel 0" in capsys.readouterr().err

    def test_shape_error_is_a_scan_error(self, artifact):
        with pytest.raises(ScanError, match="6 channels"):
            predict_one(artifact, np.zeros(7))

    def test_cli_bad_scan_exits_2(self, artifact, tmp_path, capsys):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=-60,nan,-62,-63,-64,-65"])
        assert rc == 2
        assert "channel 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dst", "convex"])
    @pytest.mark.parametrize("lam", [2.0, -0.1, float("nan"), True])
    def test_bad_convex_lambda_leaves_session_as_it_was(self, artifact, mode,
                                                        lam):
        scans = np.random.default_rng(6).uniform(-80, -40, size=(3, 6))
        never_bad = PredictorSession(artifact)
        expected = [outputs(never_bad.predict(s, mode)) for s in scans]
        session = PredictorSession(artifact)
        got = [outputs(session.predict(scans[0], mode))]
        state = session._filter_state
        with pytest.raises(ValueError, match="convex_lambda"):
            session.predict(scans[1], mode, convex_lambda=lam)
        assert session._filter_state is state
        got += [outputs(session.predict(s, mode)) for s in scans[1:]]
        assert got == expected

    @pytest.mark.parametrize("lam", ["2", "-0.1", "nan"])
    def test_cli_bad_lambda_exits_2(self, artifact, tmp_path, capsys, lam):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=-60,-61,-62,-63,-64,-65", "--fusion", "convex",
                       f"--lambda={lam}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--lambda" in err and "internal error" not in err


class TestTotalConflict:
    """Two sources in total Dempster conflict (theta_discount 0 leaves no
    mass on the frame) are an input problem: exit 2 naming the stage."""

    def test_predict_exits_2(self, artifact, probe_scans, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        blob["fusion"].update(theta_discount=0.0, alpha=1e6)
        path.write_text(json.dumps(blob))
        edited = load_artifact(path)
        grid = edited.grid

        def cell(p):
            return int(np.argmin(np.hypot(grid.centroids[:, 0] - p.x,
                                          grid.centroids[:, 1] - p.y)))

        # at alpha 1e6 each source's mass sits on its nearest cell: a scan
        # whose two sources pick different cells is in total conflict
        scan = next(s for s in probe_scans
                    if cell((r := predict_one(edited, s,
                                              fusion_mode="convex")
                             ).rf_position) != cell(r.knn_position))
        with pytest.raises(ConflictError, match="total conflict"):
            predict_one(edited, scan)
        rc = cli.main(["predict", "--artifact", str(path),
                       "--scan=" + ",".join(repr(float(v)) for v in scan)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: stage 'fuse': total conflict")
        assert "internal error" not in err

    def test_fit_exits_2(self, tmp_path, capsys):
        with pytest.raises(StageError, match="select-alpha") as info:
            fit_pipeline(small_data(), small_cfg(theta_discount=0.0,
                                                 alpha_grid=(1e6,)))
        assert isinstance(info.value.cause, ConflictError)
        config = {"synth": {"n_rp": 6, "samples_per_rp": 12, "n_wifi": 4,
                            "n_ble": 2},
                  "pipeline": {"filter": {"method": "kf"}, "n_trees": 12,
                               "alpha_grid": [1e6], "cell_width": 0.25,
                               "theta_discount": 0.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main(["fit", "--seed", "0", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: stage 'select-alpha': total conflict")
        assert not (tmp_path / "artifact.json").exists()


class TestLocate:
    """A session locates each scan as a batch of one: every row of a batch
    comes out as it does alone, bit for bit."""

    @pytest.mark.parametrize("use_ph", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(-5.0, 5.0), min_size=6,
                                  max_size=6), min_size=1, max_size=12))
    def test_each_row_alone_equals_the_batch(self, artifact, plain_artifact,
                                             use_ph, rows):
        a = artifact if use_ph else plain_artifact
        assert (a.ph_stats is not None) == use_ph
        x = np.array(rows)
        p_rf, p_knn = locate(x, a.ph_stats, a.rf, a.knn, a.k, a.eps)
        for i in range(len(x)):
            one_rf, one_knn = locate(x[i:i + 1], a.ph_stats, a.rf, a.knn,
                                     a.k, a.eps)
            assert one_rf.tobytes() == p_rf[i].tobytes()
            assert one_knn.tobytes() == p_knn[i].tobytes()


class TestSessionMatchesBatch:
    @pytest.mark.parametrize("method", ["kf", "ukf", "pf", "none"])
    def test_replayed_streams_equal_batch_path(self, method):
        data = small_data()
        art = fit_pipeline(data, small_cfg(
            filter=FilterConfig(method=method, n_particles=300)))
        raw, rp = data.rss_matrix(), data.rp_ids()
        for r in np.unique(rp):
            rows = np.nonzero(rp == r)[0][:6]
            session = PredictorSession(art)
            results = [session.predict(raw[i]) for i in rows]
            z = filter_stream(normalize_matrix(raw[rows], art.norm),
                              art.filter_cfg)
            ph = features_matrix(z)
            x = np.hstack([z, (ph - art.ph_stats.mu) / art.ph_stats.sigma])
            p_rf = art.rf.predict_batch(x)
            p_knn = predict_wknn_batch(art.knn, x, min(art.k, art.knn.m),
                                       art.eps)
            fused = fuse_points_batch(p_rf, p_knn, art.grid, art.alpha,
                                      art.theta_discount, art.dst_point_mode)
            got = np.array([[res.rf_position.xy, res.knn_position.xy,
                             res.position.xy] for res in results])
            assert np.array_equal(got, np.stack([p_rf, p_knn, fused], axis=1))
            # the session scores both sources from its one distance block
            scores = confidences(np.concatenate([p_rf, p_knn]), art.grid,
                                 art.beta)
            got = [res.confidence_rf for res in results] + [
                res.confidence_knn for res in results]
            assert np.array(got).tobytes() == scores.tobytes()

    def test_keep_bba_is_the_dst_mass_in_every_mode(self, artifact):
        scan = np.full(6, -58.0)
        want = predict_one(artifact, scan, fusion_mode="dst", keep_bba=True)
        for mode in ("choquet", "convex"):
            got = predict_one(artifact, scan, fusion_mode=mode, keep_bba=True)
            assert np.array_equal(got.bba.singleton, want.bba.singleton)
            assert got.bba.theta_mass == want.bba.theta_mass


class TestBench:
    def test_report_shape_and_ratio(self, artifact):
        rep = bench_pipeline(artifact, n_queries=10, seed=0)
        assert {"filter", "rf", "knn", "dst"} <= set(rep["stages_ns"])
        assert rep["pf_vs_kf_ratio"] > 1.0
        assert "n_particles" in rep["scaling"]
        assert "n_cells" in rep["scaling"]

    def test_needs_a_query(self, artifact):
        with pytest.raises(ValueError, match="n_queries"):
            bench_pipeline(artifact, n_queries=0)

    def test_identity_filter_stage_sub_microsecond(self):
        art = fit_pipeline(small_data(), small_cfg(
            filter=FilterConfig(method="none")))
        rep = bench_pipeline(art, n_queries=60, seed=0)
        assert rep["stages_ns"]["filter"] < 1000.0


class TestCli:
    def test_synth_fit_predict_cycle(self, tmp_path):
        out = tmp_path
        config = {"synth": {"n_rp": 6, "samples_per_rp": 12, "n_wifi": 4,
                            "n_ble": 2},
                  "pipeline": {"filter": {"method": "kf"}, "n_trees": 10,
                               "alpha_grid": [0.5, 2.0], "cell_width": 1.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main(["synth", "--seed", "5", "--config", str(cfg_path),
                       "--out", str(out), "--name", "survey.csv"])
        assert rc == 0
        rc = cli.main(["fit", "--data", str(out / "survey.csv"),
                       "--config", str(cfg_path), "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "artifact.json").exists()
        rc = cli.main(["predict", "--artifact", str(out / "artifact.json"),
                       "--scan=-60,-61,-62,-63,-64,-65",
                       "--belief-map", str(out / "b.pgm")])
        assert rc == 0
        assert (out / "b.pgm").exists()

    def test_synth_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            assert cli.main(["synth", "--seed", "7", "--out", str(tmp_path),
                             "--name", name]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unreadable_data_exits_2(self, tmp_path):
        rc = cli.main(["fit", "--data", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "x,y,rp,wifi_0\n1,2,0,abc\n",  # the header lacks the ble column
        "x,y,rp,wifi_0,ble_0\n1,2,0,-60,abc\n"])  # a cell that is no number
    def test_unparsable_data_is_a_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        rc = cli.main(["fit", "--data", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "stage 'ingest'" in err and "internal error" not in err

    @pytest.mark.parametrize("command", ["fit", "ablate"])
    def test_survey_too_small_for_the_split_is_a_usage_error(
            self, tmp_path, capsys, command):
        # 6 samples per RP leave floor(6 * 0.15) = 0 for validation and test
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"synth": {"n_rp": 4, "samples_per_rp": 6}}))
        rc = cli.main([command, "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "stage 'split'" in err and "RP 0 has 6 samples" in err

    @pytest.mark.parametrize("command,flag,value", [
        ("predict", "--config", "/nonexistent.json"),
        ("predict", "--seed", "99"), ("predict", "--out", "/nonexistent/dir"),
        ("bench", "--config", "/nonexistent.json")])
    def test_flag_the_command_ignores_is_a_usage_error(
            self, tmp_path, capsys, artifact, command, flag, value):
        # predict reads none of the three and bench no --config: argparse
        # rejects them instead of printing a result that did not use them
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        extra = (["--scan=-60,-61,-62,-63,-64,-65"] if command == "predict"
                 else ["--queries", "1", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--artifact", str(path), flag, value, *extra])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_negative_bench_seed_is_a_usage_error(self, tmp_path, capsys,
                                                 artifact):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        rc = cli.main(["bench", "--artifact", str(path), "--queries", "1",
                       "--seed", "-1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--seed must be an integer >= 0" in err

    def test_fit_twice_byte_identical(self, tmp_path):
        config = {"synth": {"n_rp": 5, "samples_per_rp": 10, "n_wifi": 3,
                            "n_ble": 2},
                  "pipeline": {"filter": {"method": "kf"}, "n_trees": 8,
                               "alpha_grid": [1.0], "cell_width": 1.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for name in ("f1.json", "f2.json"):
            rc = cli.main(["fit", "--seed", "2", "--config", str(cfg_path),
                           "--out", str(tmp_path), "--name", name])
            assert rc == 0
        assert (tmp_path / "f1.json").read_bytes() == \
            (tmp_path / "f2.json").read_bytes()

    def test_ablate_writes_reports(self, tmp_path):
        config = {"synth": {"n_rp": 6, "samples_per_rp": 12, "n_wifi": 3,
                            "n_ble": 2},
                  "filter": {"method": "kf"},
                  "ablation": {"n_trees": 8, "alpha_grid": [1.0],
                               "cell_width": 1.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main(["ablate", "--seed", "1", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "ablation.json").read_text())
        assert len(report["variants"]) == 4
        rows = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4 * len(report["conditions"])

    def test_noise_sweep_condition_count(self, tmp_path):
        config = {"synth": {"n_rp": 6, "samples_per_rp": 12, "n_wifi": 3,
                            "n_ble": 2},
                  "filter": {"method": "kf"},
                  "noise": [{"kind": "gauss_jitter", "eta": e, "seed": 123}
                            for e in (0.05, 0.10, 0.20)],
                  "ablation": {"n_trees": 8, "alpha_grid": [1.0],
                               "cell_width": 1.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main(["noise-sweep", "--seed", "0", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "noise_sweep.json").read_text())
        assert len(report["conditions"]) == 1 + 3  # clean + the eta grid
        assert len(report["variants"]) == 4

    @pytest.mark.parametrize("command,config,section", [
        ("fit", {"pipeline": {"theta_discount": 1.5}}, "pipeline"),
        ("fit", {"pipeline": {"n_tree": 5}}, "pipeline"),  # unknown key
        ("fit", {"pipeline": {"filter": {"method": "bogus"}}}, "pipeline"),
        ("ablate", {"ablation": {"theta_discount": 1.5}}, "ablation"),
        ("ablate", {"filter": {"method": "bogus"}}, "filter"),
        ("noise-sweep", {"noise": [{"kind": "bogus"}]}, "noise"),
        ("synth", {"synth": {"n_rp": 0}}, "synth"),
        ("fit", {"pipeline": {"filter": {"predict_sigma": float("nan")}}},
         "pipeline"),
        ("ablate", {"filter": {"predict_sigma": float("nan")}}, "filter"),
        ("fit", {"pipeline": {"filter": {"method": "kf", "gamma": -1}}},
         "pipeline"),
        ("fit", {"pipeline": {"filter": {"seed": 3}}}, "pipeline"),
        ("ablate", {"filter": {"gamma": float("nan")}}, "filter"),
        ("ablate", {"filter": {"r": [1.0, 1.0, 1.0, 1.0]}}, "ablation"),
        ("synth", {"synth": {"shadowing_std_dbm": float("nan")}}, "synth"),
        ("synth", {"synth": {"path_loss_exp": float("inf")}}, "synth"),
        ("noise-sweep", {"noise": [{"kind": "bursty", "p": 2}]}, "noise"),
        ("ablate", {"noise": [{"kind": "dbm_10pct", "seed": 1},
                              {"kind": "dbm_10pct", "seed": 2}]}, "noise"),
        ("fit", {"pipeline": {"ratios": [0.5, 0.5, 0.5]}}, "pipeline"),
        ("ablate", {"ablation": {"ratios": [0.5, 0.5, 0.5]}}, "ablation"),
        ("fit", {"pipeline": {"grids": {"k": []}}}, "pipeline"),
        ("fit", {"pipeline": {"grids": {"gamma": [-1.0]}}}, "pipeline"),
        ("fit", {"pipeline": {"grids": [3]}}, "pipeline"),
        ("fit", {"pipeline": {"seed": -1}}, "pipeline"),
        ("fit", {"pipeline": {"seed": 1.5}}, "pipeline"),
        ("ablate", {"ablation": {"base_seed": -2}}, "ablation"),
        ("ablate", {"noise": [{"kind": "bursty", "seed": -3}]}, "noise"),
        ("ablate", {"ablation": {"n_splits": 2.5}}, "ablation"),
        ("synth", {"synth": {"n_rp": 2.5}}, "synth"),
        ("fit", {"pipeline": {"cell_width": float("inf")}}, "pipeline"),
        ("fit", {"pipeline": {"k": True}}, "pipeline"),
        ("ablate", {"ablation": {"n_splits": True}}, "ablation"),
    ])
    def test_rejected_config_is_a_usage_error(self, tmp_path, capsys,
                                              command, config, section):
        # --seed would override a seed the config itself sets
        own_seed = ("seed" in config.get("pipeline", {})
                    or "base_seed" in config.get("ablation", {}))
        config.setdefault("synth", {"n_rp": 4, "samples_per_rp": 4,
                                    "n_wifi": 3, "n_ble": 1})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        seed = [] if own_seed else ["--seed", "0"]
        rc = cli.main([command, *seed, "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--config section '{section}'" in err
        assert "internal error" not in err

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        rc = cli.main(["synth", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--config section 'synth'" in err and "SynthSpec.seed" in err

    def test_seed_flag_replaces_the_config_seeds(self, tmp_path):
        config = {"synth": {"n_rp": 4, "samples_per_rp": 12, "n_wifi": 3,
                            "n_ble": 1, "seed": 5},
                  "pipeline": {"filter": {"method": "kf"}, "n_trees": 4,
                               "alpha_grid": [1.0], "cell_width": 1.0,
                               "seed": 5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        common = ["--seed", "3", "--config", str(cfg_path), "--out",
                  str(tmp_path)]
        assert cli.main(["synth", *common]) == 0
        assert (tmp_path / "synth_3.csv").exists()
        assert cli.main(["fit", *common]) == 0
        artifact = json.loads((tmp_path / "artifact.json").read_text())
        assert artifact["config"]["seed"] == artifact["meta"]["seed"] == 3

    @pytest.mark.parametrize("grids,expected", [
        ({}, SearchGrids()), (None, None),
        ({"k": [3], "alpha": [1.0]}, SearchGrids(k=(3,), alpha=(1.0,)))])
    def test_fit_config_grids(self, tmp_path, monkeypatch, grids, expected):
        # "grids": {} is the default SearchGrids, as "filter": {} is the
        # default FilterConfig; null skips the search
        seen = []

        def stop(data, cfg):
            seen.append(cfg)
            raise cli.UsageError("stop before fitting")

        monkeypatch.setattr(pl, "fit_pipeline", stop)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synth": {"n_rp": 4, "samples_per_rp": 4, "n_wifi": 3,
                      "n_ble": 1},
            "pipeline": {"grids": grids}}))
        assert cli.main(["fit", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 2
        assert seen[0].grids == expected

    def test_bench_command(self, tmp_path, artifact):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["bench", "--artifact", str(art_path),
                       "--queries", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bench.json").exists()

    def test_bench_without_queries_exits_2(self, tmp_path, artifact, capsys):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["bench", "--artifact", str(art_path),
                       "--queries", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--queries" in err and "internal error" not in err

    def test_predict_scans_file_stream(self, tmp_path, artifact, capsys):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        scans = tmp_path / "scans.txt"
        scans.write_text("-60,-61,-62,-63,-64,-65\n-59,-60,-61,-62,-63,-64\n")
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scans", str(scans), "--stream"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 2
        assert all(np.isfinite([l["x"], l["y"]]).all() for l in lines)
        assert all("argmax_cell" not in l for l in lines)  # no --belief-map

    def test_predict_stream_belief_map_follows_session(self, tmp_path,
                                                       artifact):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        scans = np.array([[-60.0, -61, -62, -63, -64, -65],
                          [-50.0, -70, -55, -75, -52, -68]])
        scans_path = tmp_path / "scans.txt"
        scans_path.write_text("".join(",".join(map(str, s)) + "\n"
                                      for s in scans))
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scans", str(scans_path), "--stream",
                       "--fusion", "choquet",
                       "--belief-map", str(tmp_path / "cli.pgm")])
        assert rc == 0
        session = PredictorSession(load_artifact(art_path))
        session.predict(scans[0])
        bba = session.predict(scans[1], fusion_mode="dst", keep_bba=True).bba
        write_belief_pgm(bba, artifact.grid, tmp_path / "want.pgm")
        write_belief_csv(bba, artifact.grid, tmp_path / "want.csv")
        assert (tmp_path / "cli.pgm").read_bytes() == \
            (tmp_path / "want.pgm").read_bytes()
        assert (tmp_path / "cli.pgm.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_predict_scan_belief_map_command(self, tmp_path, artifact,
                                             capsys):
        # the map of a one-shot scan: a fresh session's kept DST mass
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        scan = np.array([-60.0, -61, -62, -63, -64, -65])
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=" + ",".join(map(str, scan)),
                       "--belief-map", str(tmp_path / "m.pgm")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        res = predict_one(load_artifact(art_path), scan, keep_bba=True)
        cell, _ = write_belief_map(res.bba, artifact.grid,
                                   tmp_path / "want.pgm", tmp_path / "want.csv")
        assert (tmp_path / "m.pgm").read_bytes() == \
            (tmp_path / "want.pgm").read_bytes()
        assert (tmp_path / "m.pgm.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
        assert payload["argmax_cell"] == cell
        assert 0 <= cell < artifact.grid.n_cells
        assert (payload["x"], payload["y"]) == (res.position.x,
                                                res.position.y)

    def test_export_belief_map_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["export-belief-map", "--artifact", "a.json",
                      "--scan=-60,-61"])
        assert exc.value.code == 2
        assert "invalid choice: 'export-belief-map'" in capsys.readouterr().err


class TestModeVariants:
    def test_mw_zscore_pipeline_end_to_end(self):
        art = fit_pipeline(small_data(), small_cfg(norm_mode="mw_zscore"))
        res = predict_one(art, np.full(6, -60.0))
        assert np.isfinite([res.position.x, res.position.y]).all()

    def test_ph_free_artifact_round_trip(self, tmp_path):
        art = fit_pipeline(small_data(), small_cfg(use_ph=False))
        path = tmp_path / "art.json"
        save_artifact(art, path)
        loaded = load_artifact(path)
        assert loaded.ph_stats is None
        scan = np.full(6, -58.0)
        a, b = predict_one(art, scan).position, predict_one(loaded, scan).position
        assert (a.x, a.y) == (b.x, b.y)

    def test_ukf_filter_pipeline(self):
        art = fit_pipeline(small_data(), small_cfg(
            filter=FilterConfig(method="ukf", gamma=0.25)))
        res = predict_one(art, np.full(6, -60.0))
        assert np.isfinite([res.position.x, res.position.y]).all()


def test_runtime_imports_no_scipy():
    code = ("import sys, fpfuse, fpfuse.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(fpfuse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
