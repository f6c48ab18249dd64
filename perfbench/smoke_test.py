#!/usr/bin/env python3
"""Short-mode check of the benchmark itself.

Runs every workload briefly (``--seconds 1``, which still completes one
operation, and one full replay pass on ``stream``) both untraced and traced,
and asserts that each run exits 0, passes its correctness checks and prints
every metric BENCHMARK.json names, with that metric's unit. The untraced
run's readable summary must also carry the workload's named metrics. Takes
about three minutes on two cores. Run from the root of a source checkout:

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMMARY_NAMES = {
    "stream": ("predict_p50_ms", "predict_p95_ms", "scans_per_s", "stream_rmse_m"),
    "calibrate": ("calibrate_s", "artifact_bytes"),
}


def run_once(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_once(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            for metric in spec[key]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric, got)
                assert math.isfinite(got["value"]), (name, metric, got)
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}, (
                name, set(result["metrics"]) ^ {m["name"] for m in spec[key]})
            if trace == 0:
                summary = next(line for line in lines if line.startswith(f"# {name}:"))
                for named in SUMMARY_NAMES[name]:
                    assert f"{named}=" in summary, (name, named, summary)
            else:
                assert result["metrics"]["trace.reconcile_error"]["value"] <= 1e-6, result
            print(f"ok {name} trace={trace} attempted={result['attempted']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
