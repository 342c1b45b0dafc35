"""Span tracing for the benchmark's traced runs.

`Tracer.install` replaces public hsac names with wrappers at the places the
pipeline looks them up (for example `hsac.pipeline.invert_cube`, which
`run_pipeline` calls, and `hsac.kernels.invert_plane`, which
`hsac.inversion.invert_band_plane` calls). A wrapper passes its arguments
and result through untouched and records one span: name, start, end, its id,
the id of the enclosing span on the same thread (or of the running `cli.main`
call for pool threads), the thread, the scene id, and for kernel and raster
calls the pixels and bytes involved. Spans stay in memory until the child
writes its result file.

A name that no longer exists is listed in `missing`; `layer_metrics` then
leaves out every metric that needs it instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

NAME, T0, T1, SID, PARENT, THREAD, SCENE, PIXELS, NBYTES = range(9)


def _payload_bytes(base: str) -> int:
    path = base + ".img" if os.path.exists(base + ".img") else base
    return os.path.getsize(path)


def _kernel_size(args, result):
    return args[0].size, args[0].nbytes + result[0].nbytes


def _raster_size(args, result):
    return 0, _payload_bytes(args[0])


# (span name, module, class or None, attribute, size function or None)
TARGETS = (
    ("cli.main", "hsac.cli", None, "main", None),
    ("pipeline.run", "hsac.cli", None, "run_pipeline", None),
    ("metrics.compare", "hsac.cli", None, "compare_against_reference", None),
    ("scene.parse", "hsac.pipeline", None, "parse_scene_metadata", None),
    ("raster.read", "hsac.pipeline", None, "read_cube", _raster_size),
    ("spectral.srf", "hsac.pipeline", None, "srf_for_band", None),
    ("atmosphere.provider_init", "hsac.pipeline", None, "AnalyticProvider", None),
    ("atmosphere.band_params", "hsac.atmosphere", "AnalyticProvider", "band_params", None),
    ("atmosphere.band_params", "hsac.atmosphere", "TableProvider", "band_params", None),
    ("atmosphere.table_load", "hsac.pipeline", None, "load_solar_irradiance", None),
    ("atmosphere.table_load", "hsac.atmosphere", None, "load_params_table", None),
    ("inversion.invert_cube", "hsac.pipeline", None, "invert_cube", None),
    ("kernels.invert_plane", "hsac.kernels", None, "invert_plane", _kernel_size),
    ("inversion.to_rrs", "hsac.inversion", None, "to_rrs", None),
    ("pipeline.write_product", "hsac.pipeline", None, "write_product", None),
    ("raster.write", "hsac.pipeline", None, "write_cube", _raster_size),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.scene = ""
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # id of the running cli.main span, parent of pool-thread spans

    def install(self) -> None:
        for name, module, cls, attr, size in TARGETS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original, size))
            self.wrapped.add(name)

    def _wrap(self, name, original, size):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if name == "cli.main":
                self._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if name == "cli.main":
                    self._root = None
            pixels, nbytes = size(args, result) if size else (0, 0)
            self.spans.append((name, t0, t1, sid, parent, threading.get_ident(),
                               self.scene, pixels, nbytes))
            return result

        return wrapper


def _total(spans, name) -> float:
    return sum(s[T1] - s[T0] for s in spans if s[NAME] == name)


def _covered(spans, name, within) -> float:
    """Length of the union of `name` spans clipped to each `within` span."""
    inner: dict[str, list] = {}
    for s in spans:
        if s[NAME] == name:
            inner.setdefault(s[SCENE], []).append(s)
    total = 0.0
    for outer in (s for s in spans if s[NAME] == within):
        parts = sorted((max(s[T0], outer[T0]), min(s[T1], outer[T1]))
                       for s in inner.get(outer[SCENE], ())
                       if s[T1] > outer[T0] and s[T0] < outer[T1])
        end = -float("inf")
        for a, b in parts:
            if b <= end:
                continue
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list, wrapped: set, units: int, workers: int) -> dict:
    """Per-layer metrics of one traced batch of `units` scene runs."""
    spans = [tuple(s) for s in spans]
    out: dict[str, float] = {}

    def put(metric, needs, value):
        if all(n in wrapped for n in needs):
            out[metric] = value()

    kernel, inv = "kernels.invert_plane", "inversion.invert_cube"
    put("kernels.calls", [kernel], lambda: sum(1 for s in spans if s[NAME] == kernel))
    put("kernels.busy_s", [kernel], lambda: _total(spans, kernel))
    put("kernels.band_pixels", [kernel],
        lambda: sum(s[PIXELS] for s in spans if s[NAME] == kernel))
    put("kernels.gb_moved_computed", [kernel],
        lambda: sum(s[NBYTES] for s in spans if s[NAME] == kernel) / 1e9)
    put("kernels.worker_util", [kernel, inv],
        lambda: _total(spans, kernel) / (_total(spans, inv) * workers))
    put("inversion.wall_s", [inv], lambda: _total(spans, inv))
    put("inversion.self_s", [kernel, inv],
        lambda: _total(spans, inv) - _covered(spans, kernel, inv))
    put("inversion.to_rrs_s", ["inversion.to_rrs"], lambda: _total(spans, "inversion.to_rrs"))
    for op in ("read", "write"):
        name = f"raster.{op}"
        put(f"{name}_s", [name], lambda name=name: _total(spans, name))
        put(f"{name}_mb", [name],
            lambda name=name: sum(s[NBYTES] for s in spans if s[NAME] == name) / 1e6)
    put("pipeline.export_self_s", ["pipeline.write_product", "raster.write"],
        lambda: _total(spans, "pipeline.write_product") - _total(spans, "raster.write"))
    for metric, name in (("scene.parse_ms", "scene.parse"),
                         ("spectral.srf_ms", "spectral.srf"),
                         ("atmosphere.provider_init_ms", "atmosphere.provider_init"),
                         ("atmosphere.band_params_ms", "atmosphere.band_params"),
                         ("atmosphere.table_load_ms", "atmosphere.table_load"),
                         ("metrics.compare_ms", "metrics.compare")):
        put(metric, [name], lambda name=name: 1000.0 * _total(spans, name) / units)
    put("cli.self_ms", ["cli.main", "pipeline.run", "metrics.compare"],
        lambda: 1000.0 * (_total(spans, "cli.main") - _total(spans, "pipeline.run")
                          - _total(spans, "metrics.compare")) / units)
    return out
