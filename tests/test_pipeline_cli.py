import json

import numpy as np
import pytest

from fpfuse import cli
from fpfuse.datamodel import SynthSpec, synth_radio_map
from fpfuse.evaluate import FilterSpec, SearchGrids
from fpfuse.pipeline import (PipelineConfig, PredictorSession, StageError,
                             bench_pipeline, export_belief_map, fit_pipeline,
                             load_artifact, predict_one, save_artifact)


def small_data(seed=0):
    return synth_radio_map(SynthSpec(n_rp=6, samples_per_rp=12, n_wifi=4,
                                     n_ble=2, seed=seed))


def small_cfg(**kwargs):
    base = dict(filter=FilterSpec(method="kf"), n_trees=12,
                alpha_grid=(0.5, 2.0), cell_width=1.0, seed=3)
    base.update(kwargs)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def artifact():
    return fit_pipeline(small_data(), small_cfg())


@pytest.fixture(scope="module")
def probe_scans():
    rng = np.random.default_rng(9)
    return rng.uniform(-85.0, -35.0, size=(100, 6))


class TestPipelineConfig:
    @pytest.mark.parametrize("field,value", [
        ("fusion_mode", "bogus"), ("dst_point_mode", "centroid"),
        ("norm_mode", "linear"), ("convex_lambda", 3.0),
        ("convex_lambda", -0.1), ("convex_lambda", float("nan"))])
    def test_rejects_unknown_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"PipelineConfig.{field}"):
            small_cfg(**{field: value})

    def test_accepts_lambda_bounds(self):
        assert small_cfg(convex_lambda=0.0).convex_lambda == 0.0
        assert small_cfg(convex_lambda=1.0).convex_lambda == 1.0


class TestFitPipeline:
    def test_artifact_fields_populated(self, artifact):
        assert artifact.version == "1"
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


class TestArtifactRoundTrip:
    def test_predictions_bit_identical(self, artifact, probe_scans, tmp_path):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        for scan in probe_scans:
            a = predict_one(artifact, scan)
            b = predict_one(loaded, scan)
            assert (a.position.x, a.position.y) == (b.position.x, b.position.y)

    def test_version_checked(self, artifact, tmp_path):
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        blob = json.loads(path.read_text())
        blob["version"] = "999"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)


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
        sample = data.samples[0]
        res = predict_one(art, sample.fingerprint.rss)
        err = np.hypot(res.position.x - sample.position.x,
                       res.position.y - sample.position.y)
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

    def test_belief_export_consistent(self, artifact, tmp_path):
        scan = np.full(6, -58.0)
        pgm = tmp_path / "map.pgm"
        cell, pos = export_belief_map(artifact, scan, pgm,
                                      csv_path=tmp_path / "map.csv")
        lines = pgm.read_text().splitlines()
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert pixels.index(max(pixels)) == cell
        assert len(pixels) == artifact.grid.n_cells


class TestBench:
    def test_report_shape_and_ratio(self, artifact):
        rep = bench_pipeline(artifact, n_queries=10, seed=0)
        assert {"filter", "rf", "knn", "dst"} <= set(rep["stages_ns"])
        assert rep["pf_vs_kf_ratio"] > 1.0
        assert "n_particles" in rep["scaling"]
        assert "n_cells" in rep["scaling"]

    def test_identity_filter_stage_sub_microsecond(self):
        art = fit_pipeline(small_data(), small_cfg(
            filter=FilterSpec(method="none")))
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

    def test_bench_command(self, tmp_path, artifact):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["bench", "--artifact", str(art_path),
                       "--queries", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bench.json").exists()

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

    def test_export_belief_map_command(self, tmp_path, artifact, capsys):
        art_path = tmp_path / "artifact.json"
        save_artifact(artifact, art_path)
        rc = cli.main(["export-belief-map", "--artifact", str(art_path),
                       "--scan=-60,-61,-62,-63,-64,-65",
                       "--out", str(tmp_path), "--name", "m.pgm"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (tmp_path / "m.pgm").exists()
        assert (tmp_path / "m.pgm.csv").exists()
        assert 0 <= payload["argmax_cell"] < artifact.grid.n_cells


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
            filter=FilterSpec(method="ukf", gamma=0.25)))
        res = predict_one(art, np.full(6, -60.0))
        assert np.isfinite([res.position.x, res.position.y]).all()
