"""In-memory span tracer that wraps fpfuse's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces the names the
program looks up at call time (module attributes such as
``fpfuse.pipeline.pf_step`` and methods such as ``RfModel.predict_batch``)
with timing wrappers, and ``Tracer.uninstall`` puts the originals back. The
untraced benchmark run never calls ``install``, so it runs no wrapper code.

A span is ``[name, start, end, parent, op, phase]``. ``op`` is the id shared
by every span of one benchmark operation (one scan or one fit)
and ``phase`` says whether the operation was set-up, measured work or a
correctness check. A span's self time is its duration minus the durations of
its direct children; calls are sequential on one thread, so children never
overlap.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

import numpy as np

from fpfuse import datamodel, evaluate, filters, fuse, pipeline, preprocess, regress, topo

MODULES = ("datamodel", "preprocess", "filters", "topo", "regress", "fuse",
           "evaluate", "pipeline")
OP_SPAN = "bench.op"  # benchmark glue around one operation
COUNT_SPAN = "bench.count"  # reading counts from a return value
# spans named bench.* are the benchmark's own time: unattributed to any module


def _patch_targets():
    """(owner, attribute, span name) for every looked-up name that is wrapped.

    Each module imports its collaborators by name, so a function is wrapped
    once per module that calls it.
    """
    t = []

    def add(owners, attr, name):
        t.extend((o, attr, name) for o in owners)

    add([datamodel], "synth_radio_map", "datamodel.synth")
    add([datamodel, pipeline, evaluate], "stratified_split", "datamodel.split")
    add([pipeline], "apply_norm", "preprocess.apply_norm")
    add([pipeline, evaluate], "normalize_matrix", "preprocess.normalize_matrix")
    add([pipeline, evaluate], "fit_norm_stats", "preprocess.fit_norm_stats")
    add([pipeline, evaluate], "fit_channel_variances", "preprocess.fit_channel_variances")
    add([pipeline, evaluate], "fit_zscore_stats", "preprocess.fit_zscore_stats")
    add([pipeline, filters], "pf_step", "filters.pf_step")
    add([filters], "systematic_resample", "filters.systematic_resample")
    add([evaluate], "filter_stream", "filters.filter_stream")
    add([pipeline], "features_for_vector", "topo.features_for_vector")
    add([pipeline, evaluate], "features_matrix", "topo.features_matrix")
    add([pipeline], "augment", "topo.augment")
    add([regress.RfModel], "predict_batch", "regress.rf_predict")
    add([pipeline, evaluate], "train_rf", "regress.train_rf")
    add([pipeline], "predict_wknn", "regress.wknn")
    add([pipeline, evaluate], "build_knn_index", "regress.build_knn_index")
    for attr in ("bba_from_point", "dempster_combine", "weighted_centroid",
                 "argmax_belief"):
        add([pipeline, evaluate], attr, f"fuse.{attr}")
    add([pipeline, evaluate], "make_grid", "fuse.make_grid")
    add([pipeline], "confidence", "fuse.confidence")
    add([pipeline], "choquet", "fuse.choquet")
    add([pipeline], "fit_choquet_measure", "fuse.fit_choquet_measure")
    add([evaluate], "fuse_points_batch", "evaluate.fuse_points_batch")
    add([evaluate], "select_alpha", "evaluate.select_alpha")
    add([evaluate], "filter_streams_by_rp", "evaluate.filter_streams_by_rp")
    add([evaluate], "median_min_centroid_distance",
        "evaluate.median_min_centroid_distance")
    add([evaluate], "euclidean_errors", "evaluate.euclidean_errors")
    add([pipeline], "fit_pipeline", "pipeline.fit_pipeline")
    add([pipeline.PredictorSession], "predict", "pipeline.predict")
    add([pipeline], "save_artifact", "pipeline.save_artifact")
    add([pipeline], "load_artifact", "pipeline.load_artifact")
    return t


class Counts:
    """Work counts read from public return values at the layer boundaries,
    kept per phase so correctness checks do not count as measured work."""

    def __init__(self):
        self.pf_steps = 0
        self.pf_resampled = 0
        self.pf_degenerate = 0
        self.ess_share_sum = 0.0
        self.resample_calls = 0
        self.dempster_calls = 0
        self.ph_rows = 0
        self.forest_nodes = []
        self.artifact_bytes = []


def _forest_nodes(model) -> int:
    return sum(len(tree.feature) for tree in model.trees)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counts] = collections.defaultdict(Counts)
        self.phase = "setup"
        self._stack: list[int] = []
        self._op = -1
        self._n_ops = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args, **kwargs):
        """Run one benchmark operation under a fresh root span."""
        self._op = self._n_ops
        self._n_ops += 1
        rec = self._open(OP_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)
            self._op = -1

    def _wrap(self, fn, name: str, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                hook = self._open(COUNT_SPAN)
                try:
                    after(out, args)
                finally:
                    self._close(hook)
            return out

        return wrapper

    # -- counts from return values ----------------------------------------
    def _hooks(self) -> dict:
        counts = self.counts

        def pf_step(state, _args):
            c = counts[self.phase]
            m = len(state.weights)
            ess = filters.effective_sample_size(state.weights)
            c.pf_steps += 1
            c.ess_share_sum += ess / m
            if state.degenerate_reset:
                c.pf_degenerate += 1
            elif ess >= m * (1.0 - 1e-9):  # weights were reset to uniform
                c.pf_resampled += 1

        def resample(_out, _args):
            counts[self.phase].resample_calls += 1

        def dempster(_out, _args):
            counts[self.phase].dempster_calls += 1

        def ph_rows(out, _args):
            counts[self.phase].ph_rows += len(out)

        def trained(model, _args):
            counts[self.phase].forest_nodes.append(_forest_nodes(model))

        def saved(_out, args):
            counts[self.phase].artifact_bytes.append(os.path.getsize(args[1]))

        def loaded(artifact, args):
            c = counts[self.phase]
            c.forest_nodes.append(_forest_nodes(artifact.rf))
            c.artifact_bytes.append(os.path.getsize(args[0]))

        return {"filters.pf_step": pf_step,
                "filters.systematic_resample": resample,
                "fuse.dempster_combine": dempster,
                "topo.features_matrix": ph_rows,
                "regress.train_rf": trained,
                "pipeline.save_artifact": saved,
                "pipeline.load_artifact": loaded}

    def install(self) -> None:
        hooks = self._hooks()
        for owner, attr, name in _patch_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        out = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                out[s[3]] -= dur[i]
        return out

    def report(self) -> tuple[dict, dict]:
        """Per-layer metrics (name -> (value, unit)) plus a summary dict.

        Per-operation metrics divide by the number of measured operations;
        ``*_ms`` set-up style metrics are means per call of that function.
        """
        selfs = self.self_times()
        spans = self.spans
        measured = [i for i, s in enumerate(spans) if s[5] == "measure"]
        roots = [i for i in measured if spans[i][0] == OP_SPAN]
        n_ops = max(len(roots), 1)
        root_total = sum(spans[i][2] - spans[i][1] for i in roots)

        by_name: dict[str, float] = {}
        for i in measured:
            by_name[spans[i][0]] = by_name.get(spans[i][0], 0.0) + selfs[i]

        def per_op(*names, scale):
            return sum(by_name.get(n, 0.0) for n in names) / n_ops * scale

        def per_call(name, inclusive):
            vals = [(s[2] - s[1]) if inclusive else selfs[i]
                    for i, s in enumerate(spans) if s[0] == name]
            return 1e3 * float(np.mean(vals)) if vals else 0.0

        c = self.counts["measure"]
        steps = max(c.pf_steps, 1)
        nodes = [n for cs in self.counts.values() for n in cs.forest_nodes]
        sizes = [b for cs in self.counts.values() for b in cs.artifact_bytes]
        m: dict[str, tuple[float, str]] = {
            "regress.rf_predict.self_us": (per_op("regress.rf_predict", scale=1e6), "us"),
            "regress.train_rf.self_ms": (per_op("regress.train_rf", scale=1e3), "ms"),
            "regress.rf_nodes": (float(np.mean(nodes)) if nodes else 0.0, "count"),
            "regress.wknn.self_us": (per_op("regress.wknn", scale=1e6), "us"),
            "regress.build_knn_index.self_ms": (per_call("regress.build_knn_index", False), "ms"),
            "filters.pf_step.self_us": (per_op("filters.pf_step", "filters.systematic_resample", scale=1e6), "us"),
            "filters.pf_step.calls": (c.pf_steps / n_ops, "count"),
            "filters.resample_per_step": (c.pf_resampled / steps, "ratio"),
            "filters.degenerate_per_step": (c.pf_degenerate / steps, "ratio"),
            "filters.ess_share": (c.ess_share_sum / steps, "ratio"),
            "filters.filter_stream.self_ms": (per_op("filters.filter_stream", scale=1e3), "ms"),
            "topo.features_for_vector.self_us": (per_op("topo.features_for_vector", scale=1e6), "us"),
            "topo.features_matrix.self_ms": (per_op("topo.features_matrix", scale=1e3), "ms"),
            "topo.rows": (c.ph_rows / n_ops, "count"),
            "fuse.dst.self_us": (per_op("fuse.bba_from_point", "fuse.dempster_combine",
                                        "fuse.weighted_centroid", "fuse.argmax_belief",
                                        scale=1e6), "us"),
            "fuse.confidence.self_us": (per_op("fuse.confidence", scale=1e6), "us"),
            "fuse.dempster.calls": (c.dempster_calls / n_ops, "count"),
            "evaluate.fuse_points_batch.self_ms": (per_op("evaluate.fuse_points_batch", scale=1e3), "ms"),
            "evaluate.select_alpha.self_ms": (per_op("evaluate.select_alpha", scale=1e3), "ms"),
            "preprocess.apply_norm.self_us": (per_op("preprocess.apply_norm", scale=1e6), "us"),
            "pipeline.predict.self_us": (per_op("pipeline.predict", scale=1e6), "us"),
            "pipeline.fit_pipeline.self_ms": (per_op("pipeline.fit_pipeline", scale=1e3), "ms"),
            "pipeline.save_artifact_ms": (per_call("pipeline.save_artifact", True), "ms"),
            "pipeline.load_artifact_ms": (per_call("pipeline.load_artifact", True), "ms"),
            "pipeline.artifact_bytes": (float(np.mean(sizes)) if sizes else 0.0, "count"),
            "datamodel.synth_ms": (per_call("datamodel.synth", True), "ms"),
            "datamodel.split_ms": (per_call("datamodel.split", True), "ms"),
        }

        module_self = {mod: 0.0 for mod in MODULES}
        for name, total in by_name.items():
            mod = name.split(".", 1)[0]
            if mod in module_self:
                module_self[mod] += total
        root_self = sum(t for name, t in by_name.items() if name.startswith("bench."))
        for mod in MODULES:
            m[f"{mod}.self_share"] = (module_self[mod] / max(root_total, 1e-12), "ratio")
        m["trace.unattributed_share"] = (root_self / max(root_total, 1e-12), "ratio")

        # every span of an operation belongs to its root's tree, so the self
        # times of an operation's spans add up to the root's duration
        attributed = sum(module_self.values()) + root_self
        reconcile_err = abs(attributed - root_total) / max(root_total, 1e-12)
        m["trace.reconcile_error"] = (reconcile_err, "ratio")

        top = max(MODULES, key=lambda mod: module_self[mod])
        summary = {"ops": len(roots), "traced_op_seconds": root_total,
                   "module_self_seconds": module_self,
                   "unattributed_seconds": root_self,
                   "reconcile_error": reconcile_err,
                   "resample_calls": c.resample_calls,
                   "resamples_from_state": c.pf_resampled,
                   "top_module": top,
                   "top_span": max((n for n in by_name if not n.startswith("bench.")),
                                   key=by_name.get)}
        return m, summary

    def dump(self, path) -> None:
        """Write all spans once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": self.spans}, fh)
