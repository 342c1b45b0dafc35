"""The names the benchmark's tracer wraps and imports still exist.

perfbench/spans.py lists each traced function by module, class and
attribute; a name that no longer resolves silently drops the per-layer
metrics that need it. The module is loaded from its file and its tracer is
never installed, so nothing here is wrapped. Every `from hsac... import`
in perfbench/*.py is read with ast, so none of its code runs here; a name
that no longer resolves would stop the benchmark's child at import.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def perfbench_imports():
    """(file, module, name) of every `from hsac... import name` in
    perfbench/*.py, the imports inside functions included."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hsac":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_imports_inside_functions_are_found():
    assert ("child.py", "hsac.atmosphere", "ozone_coefficient") in perfbench_imports()


@pytest.mark.parametrize("source,module,name", perfbench_imports(),
                         ids=lambda v: v.removesuffix(".py"))
def test_perfbench_import_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"
