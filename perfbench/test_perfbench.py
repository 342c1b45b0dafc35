"""Tests of the benchmark itself: generator, product checks, tracing, names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hsac.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from scenes import NODATA, generate_scene  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _scene(tmp_path, seed, name="s", **kwargs):
    rng = np.random.default_rng([seed, 0])
    return generate_scene(str(tmp_path / name), name, rng, 12, 10, **kwargs)


def _run(scene, out, *extra):
    code = hsac.cli.main(["run", "--input", scene.directory, "--output", str(out),
                          "--aerosol", scene.aerosol, "--workers", "2", *extra])
    assert code == 0
    return str(out)


@pytest.fixture
def product(tmp_path):
    scene = _scene(tmp_path, 5, measured_srfs=True)
    return scene, _run(scene, tmp_path / "out")


def _files(directory):
    return {n: open(os.path.join(directory, n), "rb").read()
            for n in sorted(os.listdir(directory))}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a = _scene(tmp_path / "a", 7, measured_srfs=True)
    b = _scene(tmp_path / "b", 7, measured_srfs=True)
    c = _scene(tmp_path / "c", 8, measured_srfs=True)
    assert _files(a.directory) == _files(b.directory)
    assert _files(a.directory)["radiance.img"] != _files(c.directory)["radiance.img"]


def test_generated_scene_is_finite_radiance_with_land_as_nodata(tmp_path):
    scene = _scene(tmp_path, 3)
    radiance = np.asarray(scene.radiance())
    assert np.all(np.isfinite(radiance))
    assert np.array_equal(radiance == NODATA, np.broadcast_to(scene.land, radiance.shape))
    assert 0.05 < scene.land.mean() < 0.15
    assert not scene.land[scene.station]


def test_product_check_passes_on_the_program_output(product):
    scene, out = product
    assert checks.check_product(scene, out) == ([], 0)


@pytest.mark.parametrize("value", [1e-4, np.nan, NODATA])
def test_product_check_fails_on_one_corrupted_pixel(tmp_path, product, value):
    scene, out = product
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    rho = np.memmap(os.path.join(bad, "rho_w.img"), dtype="<f4", mode="r+",
                    shape=(len(scene.valid_bands()),) + scene.shape[1:])
    r, c = scene.station
    rho[3, r, c] = NODATA if value == NODATA else rho[3, r, c] + value
    rho.flush()
    del rho
    problems, nonfinite = checks.check_product(scene, bad)
    assert problems
    assert nonfinite == (1 if np.isnan(value) else 0)


def test_product_check_fails_on_a_wrong_band_mask(tmp_path, product):
    scene, out = product
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    path = os.path.join(bad, "band_mask.csv")
    text = open(path).read().replace(",valid\n", ",masked_low_tg\n", 1)
    open(path, "w").write(text)
    assert checks.check_product(scene, bad)[0]


def test_table_replay_is_byte_identical(tmp_path, product):
    scene, out = product
    replay = _run(scene, tmp_path / "replay", "--provider", "table",
                  "--params-table", os.path.join(out, "band_params.csv"))
    assert checks.product_digests(out) == checks.product_digests(replay)


def test_compare_check_accepts_the_station_and_rejects_a_bias(tmp_path, product, capsys):
    scene, out = product
    r, c = scene.station
    assert hsac.cli.main(["compare", "--product", out, "--reference", scene.reference_csv,
                          "--pixel", f"{r},{c}", "--window", "400:900"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert checks.check_compare(scene, result) == []
    result["aggregate"]["bias"] += 1e-5
    assert checks.check_compare(scene, result)


def _restore_after_test(monkeypatch):
    """Snapshot every traced name so that monkeypatch puts it back afterwards."""
    for _, module, cls, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        if hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))


@pytest.fixture
def tracer(monkeypatch):
    _restore_after_test(monkeypatch)
    t = spans.Tracer()
    t.install()
    return t


def test_traced_run_has_the_same_products_and_every_layer(tmp_path, product, tracer):
    scene, out = product
    traced = _run(scene, tmp_path / "traced")
    assert checks.product_digests(out) == checks.product_digests(traced)
    assert tracer.missing == []
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"kernels.invert_plane", "inversion.invert_cube", "raster.write",
            "pipeline.write_product", "scene.parse"} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.wrapped, 1, 2)
    assert metrics["kernels.calls"] == len(scene.valid_bands())
    assert metrics["kernels.band_pixels"] == len(scene.valid_bands()) * 12 * 10
    assert 0 < metrics["inversion.self_s"] < metrics["inversion.wall_s"]


def _one_span_each(names):
    return [(n, 0.0, 1.0, i, None, 0, "s", 1, 1) for i, n in enumerate(sorted(names))]


def test_missing_name_makes_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(importlib.import_module("hsac.inversion"), "to_rrs")
    _restore_after_test(monkeypatch)
    t = spans.Tracer()
    t.install()
    assert t.missing == ["hsac.inversion.to_rrs"]
    metrics = spans.layer_metrics(_one_span_each(t.wrapped), t.wrapped, 1, 2)
    assert "inversion.to_rrs_s" not in metrics
    assert metrics["kernels.calls"] == 1


def test_metric_names_are_valid_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    all_wrapped = {t[0] for t in spans.TARGETS}
    produced = set(spans.layer_metrics(_one_span_each(all_wrapped), all_wrapped, 1, 2))
    produced |= {f"pipeline.{s}_s" for s in run.STAGES}
    produced |= {"inversion.speedup_w2", "trace.overhead_frac"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(100)))[0] == 90
    assert run.tail_percentile(list(range(99)))[0] == 75
    assert run.tail_percentile(list(range(19))) is None
