"""Command-line surface: fit, predict, ablate, noise-sweep, bench, synth.
`predict --belief-map` also writes the fused belief map (PGM and CSV).

Exit codes: 0 success, 1 internal error, 2 usage, input or I/O problem
(including a rejected scan, a survey CSV that does not parse, a survey too
small for the split, an artifact that does not load, a particle filter
whose predict_sigma overflows its cloud, and a total Dempster conflict
between the two sources, in a fit or in a prediction).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import pipeline as pl
from . import rules
from .datamodel import (Bounds, ParseError, SchemaError, SplitError,
                        SynthSpec, load_radio_map, save_radio_map,
                        synth_radio_map)
from .filters import FilterConfig, FilterOverflowError
from .fuse import ConflictError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


@contextlib.contextmanager
def _config_section(name: str):
    """A value of --config section `name` that its config type rejects
    (ValueError or TypeError, e.g. an unknown key) is a usage error that
    names the section."""
    try:
        yield
    except UsageError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--config section {name!r}: {exc}") from exc


def _config_overrides(args) -> dict:
    if getattr(args, "config", None):
        return _load_json(args.config)
    return {}


def _synth_spec_from(overrides: dict, seed) -> SynthSpec:
    with _config_section("synth"):
        kwargs = dict(overrides.get("synth", {}))
        if "bounds" in kwargs:
            kwargs["bounds"] = Bounds(*kwargs["bounds"])
        if seed is not None:
            kwargs["seed"] = seed
        return SynthSpec(**kwargs)


def _ingest(args, overrides: dict):
    if getattr(args, "data", None):
        path = Path(args.data)
        if not path.is_file():
            raise UsageError(f"stage 'ingest': dataset {path} is not readable")
        try:
            return load_radio_map(path)
        except (OSError, ParseError, SchemaError) as exc:
            raise UsageError(f"stage 'ingest': {exc}") from exc
    return synth_radio_map(_synth_spec_from(overrides, args.seed))


def _noise_specs(overrides: dict, default: tuple) -> tuple:
    specs = overrides.get("noise")
    if not specs:
        return default
    with _config_section("noise"):
        specs = tuple(ev.NoiseSpec(**s) for s in specs)
        ev.check_noise_labels(specs, "noise")
        return specs


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    overrides = _config_overrides(args)
    spec = _synth_spec_from(overrides, args.seed)
    rmap = synth_radio_map(spec)
    out = _out_dir(args) / (args.name or f"synth_{spec.seed}.csv")
    save_radio_map(rmap, out)
    print(f"wrote {out} ({rmap.n_samples} samples, d={rmap.d})")
    return EXIT_OK


def cmd_fit(args) -> int:
    overrides = _config_overrides(args)
    data = _ingest(args, overrides)
    with _config_section("pipeline"):
        pcfg_kwargs = dict(overrides.get("pipeline", {}))
        if "filter" in pcfg_kwargs:
            pcfg_kwargs["filter"] = FilterConfig(**pcfg_kwargs["filter"])
        grids = pcfg_kwargs.get("grids")
        if isinstance(grids, dict):  # {} is SearchGrids(), as for "filter"
            pcfg_kwargs["grids"] = ev.SearchGrids(
                **{key: tuple(v) for key, v in grids.items()})
        for key in ("ratios", "alpha_grid"):
            if key in pcfg_kwargs:
                pcfg_kwargs[key] = tuple(pcfg_kwargs[key])
        if args.seed is not None:
            pcfg_kwargs["seed"] = args.seed
        cfg = pl.PipelineConfig(**pcfg_kwargs)
    artifact = pl.fit_pipeline(data, cfg)
    out = _out_dir(args) / (args.name or "artifact.json")
    pl.save_artifact(artifact, out)
    print(f"wrote {out}")
    return EXIT_OK


def _parse_scan(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(";", ",").split(",")])
    except ValueError as exc:
        raise UsageError(f"bad --scan vector: {exc}") from exc


def cmd_predict(args) -> int:
    lam = args.convex_lambda
    if lam is not None and not rules.UNIT.test(lam):  # NaN fails too
        raise UsageError(f"--lambda must be {rules.UNIT.text}, got {lam}")
    artifact = pl.load_artifact(args.artifact)
    session = pl.PredictorSession(artifact)
    scans = []
    if args.scan:
        scans.append(_parse_scan(args.scan))
    if args.scans:
        with open(args.scans) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    scans.append(_parse_scan(line))
    if not scans:
        raise UsageError("predict needs --scan or --scans")
    for i, scan in enumerate(scans):
        if not args.stream and i > 0:
            session = pl.PredictorSession(artifact)
        res = session.predict(scan, fusion_mode=args.fusion,
                              convex_lambda=args.convex_lambda,
                              keep_bba=bool(args.belief_map))
        line = {"x": res.position.x, "y": res.position.y,
                "confidence": res.fused_confidence}
        if args.belief_map:
            line["argmax_cell"], _ = pl.write_belief_map(
                res.bba, artifact.grid, args.belief_map,
                str(args.belief_map) + ".csv")
        print(json.dumps(line))
    return EXIT_OK


def _write_report(report: ev.EvalReport, out: Path, stem: str) -> None:
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=1)
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())


def _ablation_config(args, overrides: dict, noise) -> ev.AblationConfig:
    with _config_section("filter"):
        filter_cfg = FilterConfig(**overrides.get("filter", {}))
    with _config_section("ablation"):
        kwargs = dict(overrides.get("ablation", {}))
        kwargs["filter"] = filter_cfg
        kwargs["noise"] = noise
        if "ratios" in kwargs:
            kwargs["ratios"] = tuple(kwargs["ratios"])
        if "alpha_grid" in kwargs:
            kwargs["alpha_grid"] = tuple(kwargs["alpha_grid"])
        if args.seed is not None:
            kwargs["base_seed"] = args.seed
        if getattr(args, "splits", None):
            kwargs["n_splits"] = args.splits
        return ev.AblationConfig(**kwargs)


def cmd_ablate(args) -> int:
    overrides = _config_overrides(args)
    data = _ingest(args, overrides)
    cfg = _ablation_config(args, overrides,
                           _noise_specs(overrides, (ev.NoiseSpec(),)))
    report = ev.run_ablation_ladder(data, cfg)
    out = _out_dir(args)
    _write_report(report, out, "ablation")
    for v in report.variants:
        means = {c: round(report.mean_rmse(v, c), 4) for c in report.conditions}
        print(f"{v}: {means}")
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    overrides = _config_overrides(args)
    data = _ingest(args, overrides)
    noise = _noise_specs(overrides, tuple(
        [ev.NoiseSpec("gauss_jitter", eta=e, seed=123)
         for e in (0.05, 0.10, 0.20)]
        + [ev.NoiseSpec("bursty", p=p, kappa=k, seed=123)
           for p in (0.02, 0.05) for k in (2.0, 3.0)]
        + [ev.NoiseSpec("dbm_10pct", level=0.10, seed=123)]))
    cfg = _ablation_config(args, overrides, noise)
    report = ev.run_ablation_ladder(data, cfg)
    _write_report(report, _out_dir(args), "noise_sweep")
    print(f"{len(report.variants)} variants x {len(report.conditions)} conditions")
    return EXIT_OK


def cmd_bench(args) -> int:
    for flag, value, rule in (("--queries", args.queries, rules.COUNT),
                              ("--seed", args.seed, rules.SEED)):
        if not rule.test(value):
            raise UsageError(f"{flag} must be {rule.text}, got {value}")
    artifact = pl.load_artifact(args.artifact)
    report = pl.bench_pipeline(artifact, n_queries=args.queries,
                               seed=args.seed)
    out = _out_dir(args) / "bench.json"
    with open(out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    for stage, ns in report["stages_ns"].items():
        print(f"{stage}: {ns / 1e3:.1f} us median")
    print(f"pf/kf ratio: {report['pf_vs_kf_ratio']:.1f}")
    for name, slope in report["scaling"].items():
        print(f"slope[{name}]: {slope:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fpfuse",
        description="Hybrid Wi-Fi/BLE fingerprint localization pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def out(sp):
        sp.add_argument("--out", help="output directory (default: cwd)")

    def common(sp, data_source=False):
        sp.add_argument("--seed", type=int, default=None,
                        help="seed; replaces pipeline.seed, ablation.base_seed "
                        "and synth.seed from --config")
        sp.add_argument("--config", help="JSON file with config overrides")
        out(sp)
        if data_source:
            sp.add_argument("--data", help="survey CSV path")

    sp = sub.add_parser("synth", help="generate a synthetic survey CSV")
    common(sp)
    sp.add_argument("--name", help="output file name")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("fit", help="calibrate a pipeline artifact")
    common(sp, data_source=True)
    sp.add_argument("--name", help="artifact file name")
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("predict", help="locate one or more raw scans")
    sp.add_argument("--artifact", required=True)
    sp.add_argument("--scan", help="comma-separated raw dBm vector; "
                    "use the --scan=-60,-55,... form (leading dash)")
    sp.add_argument("--scans", help="file with one scan per line")
    sp.add_argument("--stream", action="store_true",
                    help="keep filter state across scans")
    sp.add_argument("--fusion", choices=pl.FUSION_MODES, default=None)
    sp.add_argument("--lambda", dest="convex_lambda", type=float, default=None)
    sp.add_argument("--belief-map", help="write the fused belief map (PGM, "
                    "plus CSV at PATH.csv) and print its argmax cell")
    sp.set_defaults(fn=cmd_predict)

    sp = sub.add_parser("ablate", help="run the four-variant ablation ladder")
    common(sp, data_source=True)
    sp.add_argument("--splits", type=int, default=None)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("noise-sweep", help="sweep the noise grids")
    common(sp, data_source=True)
    sp.add_argument("--splits", type=int, default=None)
    sp.set_defaults(fn=cmd_noise_sweep)

    sp = sub.add_parser("bench", help="latency benchmark and scaling slopes")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the synthetic query scans")
    out(sp)
    sp.add_argument("--artifact", required=True)
    sp.add_argument("--queries", type=int, default=50)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, pl.ScanError, pl.ArtifactError, FileNotFoundError,
            PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConflictError as exc:  # a scan whose two sources fully disagree
        print(f"error: stage 'fuse': {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FilterOverflowError as exc:  # a predict_sigma too large to carry
        print(f"error: stage 'filter': {exc}", file=sys.stderr)
        return EXIT_USAGE
    except pl.StageError as exc:  # input problems exit 2, the rest 1
        code = (EXIT_USAGE if isinstance(exc.cause, (
            OSError, ConflictError, SplitError, FilterOverflowError))
                else EXIT_INTERNAL)
        print(f"error: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
