"""The benchmark's traced run patches cged by attribute name: every name it
patches must be defined on, or imported into, the namespace it patches."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "cgedbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("cgedbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_is_in_its_owners_namespace():
    targets = load_spans().TARGETS
    assert targets
    for owner, attr, span, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {span!r})"
