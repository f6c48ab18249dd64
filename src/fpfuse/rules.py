"""Field rules: the one table that every config type, the artifact loader
and the predictor session check their fields through.

A Rule is the text an error states ("an integer >= 1") and the test a value
must pass. check(owner, name, value, rule) raises
ValueError("<owner>.<name> must be <rule>, got <value!r>") (or the error
type it is given, such as the loader's ArtifactError), and check_fields runs
one owner's field map (field name, dotted for a field of a field, to its
Rule) in order. Counts and seeds are integers, and a bool is not one; a real
is a Python or numpy int or float that is not a bool; every width or scale
is finite. A cross-field rule (ARTIFACT_WHEN) binds an artifact field only
when another field holds a given value, such as the PF seed of a 'pf'
filter. The mode lists live here too, so each exists once.

This module imports nothing else from fpfuse.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

FILTER_METHODS = ("kf", "ukf", "pf", "none")
NORM_MODES = ("dbm_zscore", "mw_zscore")
DST_POINT_MODES = ("belief_weighted", "argmax_centroid")
FUSION_MODES = ("dst", "choquet", "convex")
NOISE_KINDS = ("gauss_jitter", "bursty", "dbm_10pct")


class Rule(NamedTuple):
    text: str
    test: Callable[[object], bool]


def check(owner: str, name: str, value, rule: Rule,
          error: type = ValueError) -> None:
    if not rule.test(value):
        raise error(f"{owner}.{name} must be {rule.text}, got {value!r}")


def check_fields(obj, owner: str, fields: dict) -> None:
    for name, rule in fields.items():
        check(owner, name, attrgetter(name)(obj), rule)


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v) -> bool:
    return (isinstance(v, (float, int, np.floating, np.integer))
            and not isinstance(v, bool))


def _finite(v) -> bool:
    return _real(v) and math.isfinite(v)


def _vector(v, positive: bool) -> bool:
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):  # e.g. strings or ragged lists
        return False
    ok = np.isfinite(arr) & (arr > 0) if positive else np.isfinite(arr)
    return arr.ndim == 1 and bool(np.all(ok))


def _at_least(n: int) -> Rule:
    return Rule(f"an integer >= {n}", lambda v: _integer(v) and v >= n)


def _one_of(choices: tuple) -> Rule:
    return Rule(f"one of {choices}", lambda v: v in choices)


def _optional(rule: Rule) -> Rule:
    return Rule(f"None or {rule.text}", lambda v: v is None or rule.test(v))


COUNT = _at_least(1)
SEED = _at_least(0)
FINITE = Rule("finite", _finite)
POSITIVE = Rule("finite and > 0", lambda v: _finite(v) and v > 0)
# POSITIVE's test, in the words a width's errors use
WIDTH = Rule("> 0 and finite", POSITIVE.test)
NON_NEGATIVE = Rule("finite and >= 0", lambda v: _finite(v) and v >= 0)
# as rng.normal takes a scale: -0.0 is negative and NaN is not
SIGN = Rule(">= 0 (-0.0 counts as negative)",
            lambda v: _real(v) and (math.isnan(v) or math.copysign(1.0, v) > 0))
UNIT = Rule("in [0, 1]", lambda v: _real(v) and 0.0 <= v <= 1.0)
DISCOUNT = Rule("in [0, 1)", lambda v: _real(v) and 0.0 <= v < 1.0)
POSITIVES = Rule("a non-empty tuple of finite values > 0",
                 lambda v: isinstance(v, (tuple, list)) and len(v) > 0
                 and all(map(POSITIVE.test, v)))
RATIOS = Rule("three values > 0 that sum to 1",
              lambda v: isinstance(v, (tuple, list)) and len(v) == 3
              and all(_real(r) and r > 0 for r in v)
              and abs(sum(v) - 1.0) <= 1e-9)
GRID = Rule("a non-empty tuple",
            lambda v: isinstance(v, tuple) and len(v) > 0)
FIT_BOUND = Rule("None (the fit binds it)", lambda v: v is None)
VECTOR = Rule("a 1-D array of finite values > 0", lambda v: _vector(v, True))
FINITE_VECTOR = Rule("a 1-D array of finite values",
                     lambda v: _vector(v, False))
FUSION_MODE = _one_of(FUSION_MODES)
NORM_MODE = _one_of(NORM_MODES)

# each owner's field map
FILTER = {"method": _one_of(FILTER_METHODS), "gamma": NON_NEGATIVE,
          "n_particles": _at_least(2),
          "ess_tau": Rule("in (0, 1)", lambda v: _real(v) and 0.0 < v < 1.0),
          "predict_sigma": Rule(f"finite and {SIGN.text}",
                                lambda v: _finite(v) and SIGN.test(v)),
          "seed": _optional(SEED), "r": _optional(VECTOR)}
# the fit fields PipelineConfig and AblationConfig share; a SearchGrids
# field's values follow the rule of the field of its name
FIT = {"norm_mode": NORM_MODE, "dst_point_mode": _one_of(DST_POINT_MODES),
       "theta_discount": DISCOUNT, "cell_width": WIDTH, "k": COUNT,
       "n_trees": COUNT, "max_depth": _optional(COUNT), "eps": POSITIVE,
       "alpha_grid": POSITIVES, "ratios": RATIOS, "filter.r": FIT_BOUND,
       "filter.seed": FIT_BOUND}
PIPELINE = FIT | {"fusion_mode": FUSION_MODE, "convex_lambda": UNIT,
                  "alpha": _optional(POSITIVE), "seed": SEED,
                  "use_ph": Rule("a bool", lambda v: isinstance(v, bool))}
ABLATION = FIT | {"n_splits": COUNT, "base_seed": SEED}
NOISE = {"kind": _one_of(NOISE_KINDS), "eta": NON_NEGATIVE,
         "kappa": NON_NEGATIVE, "level": NON_NEGATIVE, "p": UNIT,
         "seed": SEED}
SPLIT = {"ratios": RATIOS, "seed": SEED}
SYNTH = {"n_rp": COUNT, "samples_per_rp": COUNT, "n_wifi": COUNT,
         "n_ble": COUNT, "path_loss_exp": FINITE, "tx_power_dbm": FINITE,
         "shadowing_std_dbm": NON_NEGATIVE, "seed": SEED}
RF = {"n_trees": COUNT, "max_depth": _optional(COUNT),
      "max_features": _optional(COUNT), "min_leaf": COUNT, "seed": SEED}
# artifact key -> the rule of the field it loads into
ARTIFACT = {"norm.mode": NORM_MODE, "norm.mu": FINITE_VECTOR,
            "norm.sigma": VECTOR, "fusion.mode": FUSION_MODE,
            "fusion.dst_point_mode": FIT["dst_point_mode"],
            "fusion.alpha": POSITIVE, "fusion.beta": POSITIVE,
            "fusion.theta_discount": DISCOUNT, "fusion.convex_lambda": UNIT,
            "fusion.cell_width": WIDTH, "knn.k": COUNT, "knn.eps": POSITIVE,
            "filter.method": FILTER["method"],
            "filter.q_gamma": FILTER["gamma"], "filter.r": VECTOR} | {
    f"filter.pf.{name}": FILTER[name]
    for name in ("n_particles", "ess_tau", "predict_sigma", "seed")}
# cross-field rules: artifact key -> (another key, a value of it, the rule the
# key's value must pass when the other key holds that value)
ARTIFACT_WHEN = {"filter.pf.seed": ("filter.method", "pf", SEED)}
