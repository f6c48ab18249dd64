"""The two benchmark workloads, each driven through fpfuse's public API.

A workload has a timed set-up, a closed-loop operation (the next one starts
only after the previous one returns) and correctness checks. Operations:

* ``stream``: one ``PredictorSession.predict`` on one held-out scan. The test
  split is replayed clean and under the paper's three noise models, one
  session per reference point in stored order, as ``fpfuse predict --stream``
  would see it.
* ``calibrate``: ``fit_pipeline`` plus ``save_artifact``, i.e. ``fpfuse fit``
  without cross-validated grids.

Library calls go through module attributes (``pipeline.fit_pipeline``, not a
name imported into this file) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

from fpfuse import datamodel, evaluate, pipeline

SETUP_REPEATS = 9
STREAM_CONDITIONS = ("clean", "gauss_jitter", "bursty", "dbm_10pct")


def survey_seeds(seed: int, n: int) -> list[int]:
    """The n survey seeds of one run. Costs depend on the survey (forest
    depth, resampling), so a run averages over several and the figures do not
    hinge on one draw of the floor layout."""
    return [n * seed + k for k in range(n)]


class CheckFailed(AssertionError):
    """An output of the program is wrong; the operation counts as failed."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_position(pos, bounds) -> None:
    _check(math.isfinite(pos.x) and math.isfinite(pos.y)
           and bounds.contains(pos.x, pos.y), f"position {pos} outside {bounds}")


def _rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((pred - truth) ** 2, axis=1))))


def _survey(seed: int):
    """The default synthetic survey and the split fit_pipeline makes of it."""
    survey = datamodel.synth_radio_map(datamodel.SynthSpec(seed=seed))
    train, _val, test = datamodel.stratified_split(
        survey, datamodel.SplitSpec(pipeline.PipelineConfig().ratios, seed))
    return survey, train, test


def _rp_streams(rmap):
    """Row indices of each reference point's samples, RPs in stored order."""
    rp = rmap.rp_ids()
    return [np.nonzero(rp == r)[0] for r in dict.fromkeys(rp.tolist())]


def _replay(artifact, test) -> tuple[np.ndarray, list]:
    """Predict a held-out split, one streamed session per RP."""
    raw, out, results = test.rss_matrix(), [], []
    for rows in _rp_streams(test):
        session = pipeline.PredictorSession(artifact)
        for i in rows:
            res = session.predict(raw[i])
            _check_position(res.position, artifact.grid.bounds)
            out.append(res.position.xy)
            results.append((res.position.xy.tobytes(), res.fused_confidence))
    return np.array(out), results


def _fit_artifacts(root: str, workdir: str, seeds: list[int]) -> list[str]:
    """Calibrate one artifact per seed with ``fpfuse fit`` in child processes,
    at most one per CPU at a time, and wait for every child."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    paths = [os.path.join(workdir, f"artifact-{s}.json") for s in seeds]
    pending = list(zip(seeds, paths))
    running: list[subprocess.Popen] = []
    try:
        while pending or running:
            while pending and len(running) < min(2, os.cpu_count() or 1):
                s, path = pending.pop(0)
                running.append(subprocess.Popen(
                    [sys.executable, "-m", "fpfuse.cli", "fit", "--seed", str(s),
                     "--out", workdir, "--name", os.path.basename(path)],
                    cwd=root, env=env, stdout=subprocess.DEVNULL))
            if running[0].wait(timeout=600) != 0:
                raise RuntimeError(f"fpfuse fit exited {running[0].returncode}")
            running.pop(0)
    finally:
        for proc in running:
            proc.kill()
            proc.wait()
    return paths


class Stream:
    """Deployment path: replay held-out scans through streamed sessions.

    Survey k of the run is calibrated by the code under test (untimed, in
    child processes, so this process's memory is the deployment's) and its
    held-out split is replayed under condition k: clean or one of the paper's
    three noise models, injected into raw dBm at the training per-channel
    std and clipped to the plausible dBm range.
    """

    name = "stream"
    warmup_ops = 40  # about a second of untimed replay before the timed loop

    def __init__(self, root: str, workdir: str, seed: int):
        seeds = survey_seeds(seed, len(STREAM_CONDITIONS))
        self.paths = _fit_artifacts(root, workdir, seeds)
        self.scans, self.truth, self.owner, self.new_session = [], [], [], []
        for k, (s, cond) in enumerate(zip(seeds, STREAM_CONDITIONS)):
            _survey_map, train, test = _survey(s)
            raw = test.rss_matrix()
            sigma_dbm = train.rss_matrix().std(axis=0)
            rng = np.random.default_rng([seed, k])
            if cond == "gauss_jitter":
                raw = evaluate.inject_gauss_jitter(raw, sigma_dbm, 0.10, rng)
            elif cond == "bursty":
                raw = evaluate.inject_bursty(raw, sigma_dbm, 0.02, 2.0, rng)
            elif cond == "dbm_10pct":
                raw = evaluate.inject_dbm_noise(raw, sigma_dbm, 0.10, rng)
            raw = np.clip(raw, datamodel.DBM_FLOOR, datamodel.DBM_CEIL)
            truth = test.xy_matrix()
            for rows in _rp_streams(test):
                for n, i in enumerate(rows):
                    self.scans.append(raw[i])
                    self.truth.append(truth[i])
                    self.owner.append(k)
                    self.new_session.append(n == 0)
        self.truth = np.array(self.truth)
        self.min_ops = len(self.scans)  # one full pass covers every condition
        self.expected: dict[int, bytes] = {}
        self.positions = np.full_like(self.truth, np.nan)
        self.artifacts = []
        self.session = None

    def release(self) -> None:
        self.artifacts = []

    def setup(self) -> None:
        self.artifacts = [pipeline.load_artifact(p) for p in self.paths]

    def op(self, i: int) -> float:
        j = i % len(self.scans)
        artifact = self.artifacts[self.owner[j]]
        if self.new_session[j]:
            self.session = pipeline.PredictorSession(artifact)
        t0 = time.perf_counter()
        res = self.session.predict(self.scans[j])
        dt = time.perf_counter() - t0
        _check_position(res.position, artifact.grid.bounds)
        key = res.position.xy.tobytes() + np.float64(res.fused_confidence).tobytes()
        # every replay of a scan must reproduce the first one bit for bit
        _check(self.expected.setdefault(j, key) == key, f"scan {j} not reproducible")
        self.positions[j] = res.position.xy
        return dt

    def finish(self) -> float:
        _check(len(self.expected) == len(self.scans), "replay did not cover a pass")
        return _rmse(self.positions, self.truth)

    def summary(self, m: dict) -> dict:
        return {"predict_p50_ms": (m["op_p50_ms"], "ms"),
                "predict_p95_ms": (m["op_p95_ms"], "ms"),
                "scans_per_s": (m["ops_per_s"], "1/s"),
                "stream_rmse_m": (m["rmse_m"], "m")}


class Calibrate:
    """Write side of the artifact: fit the pipeline and save it."""

    name = "calibrate"
    min_ops = 2  # one fit of each survey
    warmup_ops = 0  # a fit takes seconds; its first-call costs are negligible

    def __init__(self, root: str, workdir: str, seed: int):
        self.seeds = survey_seeds(seed, self.min_ops)
        self.paths = [os.path.join(workdir, f"artifact-{s}.json") for s in self.seeds]
        self.first_bytes: dict[int, bytes] = {}
        self.first_artifact = None
        self.sizes = []

    def release(self) -> None:
        self.surveys = []

    def setup(self) -> None:
        self.surveys = [_survey(s) for s in self.seeds]

    def op(self, i: int) -> float:
        k = i % len(self.seeds)
        t0 = time.perf_counter()
        artifact = pipeline.fit_pipeline(self.surveys[k][0],
                                         pipeline.PipelineConfig(seed=self.seeds[k]))
        pipeline.save_artifact(artifact, self.paths[k])
        dt = time.perf_counter() - t0
        with open(self.paths[k], "rb") as fh:
            data = fh.read()
        self.sizes.append(len(data))
        # refits of the same survey and seed are byte-identical
        _check(self.first_bytes.setdefault(k, data) == data, f"refit {i} differs")
        if k == 0 and self.first_artifact is None:
            self.first_artifact = artifact
        return dt

    def finish(self) -> float:
        """load_artifact(save_artifact(a)) predicts exactly like a."""
        test = self.surveys[0][2]
        loaded = pipeline.load_artifact(self.paths[0])
        pos, res_a = _replay(self.first_artifact, test)
        _pos, res_b = _replay(loaded, test)
        _check(res_a == res_b, "reloaded artifact predicts differently")
        return _rmse(pos, test.xy_matrix())

    def summary(self, m: dict) -> dict:
        return {"calibrate_s": (m["op_p50_ms"] / 1e3, "s"),
                "artifact_bytes": (float(np.median(self.sizes)), "bytes")}


WORKLOADS = {w.name: w for w in (Stream, Calibrate)}
