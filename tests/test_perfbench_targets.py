"""The traced benchmark (perfbench/spans.py) wraps library functions by the
names modules look them up under. A refactor that renames or stops importing
one of them breaks the traced run; this catches it without running it."""

import importlib.util
from pathlib import Path


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer, installs nothing
    return module


def test_every_patch_target_resolves():
    targets = load_spans()._patch_targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _name in targets
               if not callable(owner.__dict__.get(attr))]
    assert missing == []
