"""Bit-identity fingerprints of small fits, their sessions and a CV search.

tests/fingerprints.json holds sha256 digests of:

- the saved artifact of a small kf, ukf, pf and none fit (PF at 300
  particles, 12 trees);
- each fit's streamed sessions over the held-out scans (one session per
  RP), in every fusion mode: the fused and per-source positions, the three
  confidences and the DST masses;
- the PGM and CSV bytes that `fpfuse predict --scan ... --belief-map` writes
  for one held-out scan of the kf fit;
- the SelectedParams of one small-grid cv_grid_search, tables included;
- the report of a small kf and pf ablation ladder (one split, two noise
  kinds), minus its wall-clock runtime;
- the saved artifact of a plain-feature (use_ph=False) fit with a fixed
  alpha in mw_zscore mode, and of a small-grid fit (grid search on).

These bits depend on the host's BLAS kernel and on numpy's SIMD dispatch
(ROADMAP item 3), so the file also holds a probe: digests of a few BLAS dots
and of np.exp/np.log on fixed inputs. Where a probe differs from the file,
the test is skipped and names that probe.

A change that declares new numbers regenerates the file with

    PYTHONPATH=src python tests/test_fingerprints.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fpfuse import cli
from fpfuse.datamodel import SplitSpec, SynthSpec, stratified_split, synth_radio_map
from fpfuse.evaluate import (AblationConfig, NoiseSpec, SearchGrids,
                             cv_grid_search, run_ablation_ladder)
from fpfuse.filters import FilterConfig
from fpfuse.pipeline import (FUSION_MODES, PipelineConfig, PredictorSession,
                             fit_pipeline, save_artifact)

FILE = Path(__file__).with_name("fingerprints.json")
METHODS = ("kf", "ukf", "pf", "none")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def probe() -> dict:
    """Digests of the host-dependent primitives the pipeline's bits rest on."""
    rng = np.random.default_rng(12345)
    dots = []
    for n in (3, 16, 300, 2_000, 10_000):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        dots.append(a @ b)
    w = rng.random(3)
    pts = rng.standard_normal((10, 4))  # rows of four, as the UKF's points
    dots.extend((w @ pts[:, :3, None])[:, 0])
    x = rng.uniform(-30.0, 30.0, 4_096)
    return {"blas_dot": _sha(np.array(dots).tobytes()),
            "np_exp": _sha(np.exp(x).tobytes(), np.exp(-x * x).tobytes()),
            "np_log": _sha(np.log(np.abs(x) + 1e-3).tobytes())}


def _data():
    return synth_radio_map(SynthSpec(n_rp=6, samples_per_rp=20, n_wifi=4,
                                     n_ble=2, seed=0))


def _cfg(method: str) -> PipelineConfig:
    return PipelineConfig(filter=FilterConfig(method=method, n_particles=300),
                          n_trees=12, alpha_grid=(0.5, 2.0), cell_width=1.0,
                          seed=3)


def _session_digest(artifact, test) -> str:
    raw, rp = test.rss_matrix(), test.rp_ids()
    chunks = []
    for mode in FUSION_MODES:
        for r in np.unique(rp):
            session = PredictorSession(artifact)
            for scan in raw[rp == r]:
                res = session.predict(scan, fusion_mode=mode, keep_bba=True)
                chunks.append(np.array([
                    res.position.x, res.position.y,
                    res.rf_position.x, res.rf_position.y,
                    res.knn_position.x, res.knn_position.y,
                    res.confidence_rf, res.confidence_knn,
                    res.fused_confidence, res.bba.theta_mass]).tobytes())
                chunks.append(res.bba.singleton.tobytes())
    return _sha(*chunks)


def _belief_map_digest(art_path: Path, scan: np.ndarray, out: Path) -> str:
    pgm = out / "belief.pgm"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["predict", "--artifact", str(art_path),
                       "--scan=" + ",".join(repr(float(v)) for v in scan),
                       "--belief-map", str(pgm)])
    assert rc == 0
    return _sha(pgm.read_bytes(), Path(str(pgm) + ".csv").read_bytes())


SMALL_GRIDS = SearchGrids(gamma=(0.5,), n_particles=(200, 300),
                          ess_tau=(0.3, 0.5), k=(3, 5), n_trees=(6, 12),
                          max_depth=(6, None), alpha=(0.5, 2.0),
                          cell_width=(1.0, 2.0))


def _search_digest(train) -> str:
    sel = cv_grid_search(train, SMALL_GRIDS, folds=3, seed=5,
                         filter_cfg=FilterConfig(method="pf",
                                                 n_particles=300))
    return _sha(json.dumps(asdict(sel), sort_keys=True).encode())


def _ladder_digest(data, method: str) -> str:
    cfg = AblationConfig(filter=FilterConfig(method=method, n_particles=300),
                         n_trees=12, alpha_grid=(0.5, 2.0), cell_width=1.0,
                         base_seed=3, noise=(NoiseSpec("gauss_jitter"),
                                             NoiseSpec("bursty", p=0.1)))
    report = run_ablation_ladder(data, cfg).to_json_dict()
    del report["runtime"]  # wall-clock seconds
    return _sha(json.dumps(report, sort_keys=True).encode())


def fingerprints() -> dict:
    """Every digest the file holds, computed on this host."""
    data = _data()
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for method in METHODS:
            cfg = _cfg(method)
            artifact = fit_pipeline(data, cfg)
            art_path = tmp / f"{method}.json"
            save_artifact(artifact, art_path)
            test = stratified_split(data, SplitSpec(cfg.ratios, cfg.seed))[2]
            out[f"{method}.artifact"] = _sha(art_path.read_bytes())
            out[f"{method}.session"] = _session_digest(artifact, test)
            if method == "kf":
                out["kf.belief_map"] = _belief_map_digest(
                    art_path, test.rss_matrix()[0], tmp)
        for name, cfg in (
                ("plain_mw_fixed_alpha",
                 replace(_cfg("kf"), use_ph=False, alpha=2.0,
                         norm_mode="mw_zscore")),
                ("small_grid", replace(_cfg("pf"), grids=SMALL_GRIDS))):
            art_path = tmp / f"{name}.json"
            save_artifact(fit_pipeline(data, cfg), art_path)
            out[f"{name}.artifact"] = _sha(art_path.read_bytes())
        train = stratified_split(data, SplitSpec((0.70, 0.15, 0.15), 3))[0]
        out["cv_grid_search"] = _search_digest(train)
        for method in ("kf", "pf"):
            out[f"{method}.ladder"] = _ladder_digest(data, method)
    return out


def test_outputs_match_the_recorded_fingerprints():
    recorded = json.loads(FILE.read_text())
    here = probe()
    differ = [name for name, digest in recorded["probe"].items()
              if here.get(name) != digest]
    if differ:
        pytest.skip(f"this host's probes differ from {FILE.name} (made on "
                    f"{recorded['platform']}): {', '.join(differ)}; its "
                    f"digests hold only there")
    got = fingerprints()
    assert sorted(got) == sorted(recorded["digests"])
    wrong = [name for name, digest in recorded["digests"].items()
             if got[name] != digest]
    assert wrong == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprints.py --write")
    FILE.write_text(json.dumps({
        "platform": f"{platform.machine()}, {platform.system()}, "
                    f"numpy {np.__version__}",
        "probe": probe(),
        "digests": fingerprints()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FILE}")
