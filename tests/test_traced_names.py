"""The names the benchmark's tracer wraps and imports still exist, and a
run still calls the traced ones.

perfbench/spans.py lists each traced function by module, class and
attribute; a name that no longer resolves silently drops the per-layer
metrics that need it, and one that resolves but is no longer called
reports them as zero. The module is loaded from its file and its tracer is
never installed: the calls are counted by wrappers of this file's own.
Every `from hsac... import` in perfbench/*.py is read with ast, so none of
its code runs here; a name that no longer resolves would stop the
benchmark's child at import.
"""

import ast
import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from hsac import cli
from test_pipeline_cli import BAND_CENTERS, make_scene_dir

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def target_id(target) -> str:
    return ".".join(p for p in target[1:4] if p is not None)


def owner_of(target):
    """The module or class whose attribute the tracer replaces."""
    _, module, cls, _, _ = target
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


@pytest.mark.parametrize("target", load_targets(), ids=target_id)
def test_traced_name_resolves(target):
    assert callable(getattr(owner_of(target), target[3]))


# Traced, but a run no longer calls them: it takes every band's SRF from
# `srf_table` and every band's parameters from `AnalyticProvider.band_table`
# or `TableProvider.table` at once, so their metrics read 0 until the tracer
# follows those.
NOT_CALLED = {
    "hsac.pipeline.srf_for_band",
    "hsac.atmosphere.AnalyticProvider.band_params",
    "hsac.atmosphere.TableProvider.band_params",
}


@pytest.fixture(scope="module")
def traced_calls(tmp_path_factory):
    """Calls of each traced name in an analytic `hsac run --workers 1`, its
    `--provider table` replay and one `hsac compare`, in one process."""
    tmp = tmp_path_factory.mktemp("traced")
    scene = make_scene_dir(tmp / "scene")
    out, replay, ref = tmp / "out", tmp / "replay", tmp / "ref.csv"
    calls = Counter()

    def counting(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for target in load_targets():
            owner, attr = owner_of(target), target[3]
            mp.setattr(owner, attr, counting(target_id(target), getattr(owner, attr)))
        run = ["run", "--input", str(scene), "--workers", "1"]
        assert cli.main([*run, "--output", str(out)]) == 0
        assert cli.main([*run, "--output", str(replay), "--provider", "table",
                         "--params-table", str(out / "band_params.csv")]) == 0
        ref.write_text("wavelength_nm,value\n" + "".join(f"{w},0.01\n" for w in BAND_CENTERS),
                       encoding="utf-8")
        assert cli.main(["compare", "--product", str(replay), "--reference", str(ref),
                         "--pixel", "2,3"]) == 0
    return calls


@pytest.mark.parametrize("target", load_targets(), ids=target_id)
def test_traced_name_is_called(target, traced_calls):
    name = target_id(target)
    if name in NOT_CALLED:
        assert traced_calls[name] == 0, f"{name} is called again: drop it from NOT_CALLED"
    else:
        assert traced_calls[name] > 0, name


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
