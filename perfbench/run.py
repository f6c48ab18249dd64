#!/usr/bin/env python3
"""fpfuse benchmark: one closed-loop client calling the library in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Workloads are ``stream`` and ``calibrate`` (see workloads.py and README.md).
``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` first runs half the time untraced, then installs span wrappers
(spans.py) and runs the rest traced, and reports the per-layer metrics plus
the tracing overhead between the two halves. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary and
the environment record. Exits 2 without a result if the checkout holds no
``src/fpfuse`` package, and 1 if the workload raises.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one client, small matrices: extra BLAS threads would only add noise
THREAD_CAP = "1"
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": _git_commit(), "seed": seed}


def run_segment(workload, seconds: float, min_ops: int, tracer=None, setups: int = 0):
    """Closed loop: start operations until the time is used up (to the nearest
    operation) and at least ``min_ops`` have run. ``setups`` timed set-ups are
    spread evenly over the segment, between operations, and any still due run
    at its end: the host's speed drifts over seconds, so set-ups made back to
    back would all see one moment of it. Returns per-operation latencies as
    the workload measured them, per-operation wall times, the segment's wall
    time without the set-ups, the number of failed operations and the set-up
    times."""
    from workloads import CheckFailed
    latencies, walls, failed, setup_times = [], [], 0, []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(setup_times) < setups and elapsed >= len(setup_times) * seconds / setups:
            setup_times.extend(timed_setups(workload, 1))
            continue
        done = len(walls)
        if done >= min_ops and elapsed + 0.5 * elapsed / done >= seconds:
            break
        t0 = time.perf_counter()
        try:
            latencies.append(tracer.op(workload.op, done) if tracer else workload.op(done))
        except CheckFailed as exc:
            failed += 1
            print(f"# check failed: {exc}", file=sys.stderr)
        walls.append(time.perf_counter() - t0)
    wall = time.perf_counter() - t_start - sum(setup_times)
    setup_times.extend(timed_setups(workload, setups - len(setup_times)))
    return latencies, walls, wall, failed, setup_times


def timed_setups(workload, repeats: int) -> list[float]:
    """Set the workload up ``repeats`` times from a collected heap, so each
    repetition neither frees the previous one's objects nor waits for the
    cyclic collector."""
    out = []
    for _ in range(repeats):
        workload.release()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        out.append(time.perf_counter() - t0)
    return out


def warm_up(workload) -> tuple[int, int]:
    """Untimed operations before the timed loop, so first-call costs (lazy
    imports, cold caches) stay out of the figures: (attempted, failed)."""
    if not workload.warmup_ops:
        return 0, 0
    _lat, walls, _wall, failed, _setups = run_segment(workload, 0.0, workload.warmup_ops)
    return len(walls), failed


def finish(workload) -> tuple[float, int]:
    """The workload's end-of-run checks: (RMSE, number of failed checks)."""
    from workloads import CheckFailed
    try:
        return workload.finish(), 0
    except CheckFailed as exc:
        print(f"# check failed: {exc}", file=sys.stderr)
        return float("nan"), 1


def measure(w, args) -> tuple[dict, int, int, float, list[str]]:
    """Untraced run: the end-to-end metrics."""
    import numpy as np
    import workloads
    timed_setups(w, 1)
    warm, warm_failed = warm_up(w)
    lat, walls, wall, failed, setups = run_segment(w, args.seconds, w.min_ops,
                                                   setups=workloads.SETUP_REPEATS)
    rmse, check_failed = finish(w)
    e2e = {"setup_s": float(np.median(setups)),
           "ops_per_s": len(walls) / wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    # Latency percentiles are printed, not reported as metrics (README.md,
    # "End-to-end metrics"): on a shared host the core alternates between a
    # fast and a ~1.5x slower state, so per-scan latency is bimodal and its
    # median jumps between the modes from run to run, and a calibrate run has
    # too few fits for a tail percentile.
    pcts = {"op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "op_p95_ms": 1e3 * float(np.percentile(lat, 95))}
    named = ", ".join(f"{k}={v:.6g} {u}" for k, (v, u)
                      in w.summary(dict(e2e, **pcts, rmse_m=rmse)).items())
    line = (f"# {args.workload}: {named}; setup_s={e2e['setup_s']:.6g} s; "
            f"peak_rss_mb={e2e['peak_rss_mb']:.6g} MB; {len(lat)} latency samples")
    metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    return metrics, warm + len(walls), warm_failed + failed + check_failed, rmse, [line]


def trace(w, args) -> tuple[dict, int, int, float, list[str]]:
    """Traced run: half the time untraced as the overhead baseline, then the
    set-ups and the loop again under the span wrappers."""
    import spans
    import workloads
    timed_setups(w, 1)
    warm, warm_failed = warm_up(w)
    _lat, base_walls, _wall, base_failed, _setups = run_segment(w, args.seconds / 2.0, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        timed_setups(w, workloads.SETUP_REPEATS)
        tracer.phase = "measure"
        _lat, walls, wall, failed, _setups = run_segment(w, args.seconds / 2.0, w.min_ops, tracer)
        tracer.phase = "check"
        rmse, check_failed = finish(w)
    finally:
        tracer.uninstall()
    failed += warm_failed + base_failed + check_failed

    metrics, info = tracer.report()
    n = min(len(base_walls), len(walls))
    metrics["trace.overhead_pct"] = (100.0 * (sum(walls[:n]) / sum(base_walls[:n]) - 1.0), "%")
    metrics["trace.root_coverage"] = (info["traced_op_seconds"] / wall, "ratio")
    metrics["pipeline.rmse_m"] = (rmse, "m")
    if info["reconcile_error"] > 1e-6:
        failed += 1
        print("# check failed: span self times do not add up to the root", file=sys.stderr)
    if info["resample_calls"] != info["resamples_from_state"]:
        failed += 1
        print("# check failed: resamples read from PfState differ from "
              "systematic_resample calls", file=sys.stderr)

    path = os.path.join(ROOT, ".bench_build", "perfbench",
                        f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    shares = ", ".join(f"{m}={info['module_self_seconds'][m] / info['traced_op_seconds']:.3f}"
                       for m in spans.MODULES)
    lines = [f"# traced {info['ops']} ops; largest self-time module: {info['top_module']} "
             f"(span {info['top_span']}); shares: {shares}",
             f"# spans written to {os.path.relpath(path, ROOT)}"]
    return metrics, warm + len(base_walls) + len(walls), failed, rmse, lines


def run(args, workdir: str) -> dict:
    import workloads
    w = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
    metrics, attempted, failed, rmse, lines = (trace if args.trace else measure)(w, args)
    for line in lines:
        print(line)
    return {"correct": failed == 0 and math.isfinite(rmse),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("stream", "calibrate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fpfuse", "__init__.py")):
        print(f"error: no fpfuse sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = THREAD_CAP
    sys.path.insert(0, src)
    import fpfuse
    if not os.path.abspath(fpfuse.__file__).startswith(src + os.sep):
        print(f"error: imported fpfuse from {fpfuse.__file__}, not {src}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(args, workdir)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
