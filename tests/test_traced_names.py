"""The names the benchmark's tracer wraps still exist.

perfbench/spans.py lists each traced function by module, class and
attribute; a name that no longer resolves silently drops the per-layer
metrics that need it. The module is loaded from its file and its tracer is
never installed, so nothing here is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(),
                         ids=lambda t: ".".join(p for p in t[1:4] if p is not None))
def test_traced_name_resolves(target):
    _, module, cls, attr, _ = target
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
