"""End-to-end tests for the five-stage pipeline and the `hsac` CLI."""

import argparse
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import re
import signal
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_process, invert_in_memory
from hsac import cli, inversion, pipeline, raster
from hsac.atmosphere import AtmosphericState, BandAtmParams, aerosol_models, load_params_table
from hsac.inversion import ROW_TILE, forward_model_toa, invert_cube, to_rrs
from hsac.pipeline import (
    ProcessingReport,
    RunConfig,
    StageError,
    ingest_scene,
    run_pipeline,
    run_self_test,
    simulation_grid,
)
from hsac.errors import HsacError, IoFailure
from hsac.raster import (
    NODATA,
    CubeWriter,
    RadianceCube,
    format_envi_header,
    read_cube,
    write_cube,
)
from hsac.scene import BandDefinition

BAND_CENTERS = (500.0, 530.0, 560.0, 590.0, 620.0, 650.0)
# the files of an exported product
PRODUCT = {"rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img",
           "band_mask.csv", "band_params.csv", "report.json"}


def scene_xml(centers=BAND_CENTERS) -> str:
    rows = "\n".join(
        f'    <band index="{i}"><centerWavelength>{c}</centerWavelength>'
        f"<fwhm>6.5</fwhm></band>"
        for i, c in enumerate(centers)
    )
    return f"""<scene>
  <sceneId>FIXTURE-42</sceneId>
  <acquisitionDate>2024-07-24</acquisitionDate>
  <acquisitionTime>11:01:54</acquisitionTime>
  <sunZenith>30.0</sunZenith>
  <sunAzimuth>145.0</sunAzimuth>
  <viewZenith>5.0</viewZenith>
  <viewAzimuth>100.0</viewAzimuth>
  <aod550>0.12</aod550>
  <tcwv>2.0</tcwv>
  <tco3>300</tco3>
  <bandCharacterisation>
{rows}
  </bandCharacterisation>
</scene>
"""


def make_scene_dir(path, centers=BAND_CENTERS, pixels=None, rows=6, cols=5):
    """A rows x cols scene; `pixels` maps (band, row, col) to a radiance to plant."""
    path.mkdir()
    (path / "scene.xml").write_text(scene_xml(centers), encoding="utf-8")
    rng = np.random.default_rng(7)
    data = rng.uniform(0.05, 0.4, size=(len(centers), rows, cols)).astype(np.float32)
    for index, value in (pixels or {}).items():
        data[index] = value
    write_cube(str(path / "radiance"), RadianceCube(data=data))
    return path


@pytest.fixture
def scene_dir(tmp_path):
    return make_scene_dir(tmp_path / "scene")


def write_catalogue(tmp_path, aod550=0.21, tco3=295.0):
    """An auxiliary catalogue whose entries cover the whole globe on the fixture's date."""
    entries = [
        {"dataset": dataset, "date": "2024-07-24", "bbox": [-180, -90, 180, 90], "value": value}
        for dataset, value in (("MODIS/061/MCD19A2_GRANULES", aod550),
                               ("NCEP_RE/surface_wv", 1.4), ("TOMS/MERGED", tco3))
    ]
    path = tmp_path / "aux.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def report_of(out: Path) -> dict:
    """The report.json of the output directory `out`."""
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def read_params_table(path) -> dict[int, dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return {int(row["band_index"]): row for row in rows}


class TestParseCli:
    def test_run_without_options_is_the_default_config(self):
        args = cli.build_parser().parse_args(["run", "--input", "X", "--output", "Y"])
        assert cli.config_from_args(args) == RunConfig(input_path="X", output_path="Y")

    def test_self_test_without_options_is_the_default_config(self, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "run_self_test",
                            lambda config: configs.append(config) or (True, 0.0))
        assert cli.main(["self-test"]) == 0
        assert configs == [RunConfig()]

    # every run and self-test option with a value that is not its default; the
    # run options are split over three cases, as RunConfig refuses some
    # combinations
    EVERY_OPTION = [
        (["run", "--input", "X", "--output", "Y", "--aerosol", "Maritime",
          "--tg-threshold", "0.5", "--aux-catalogue", "aux.json",
          "--state-policy", "catalogue_first", "--workers", "3", "--clip-negative",
          "--divide-total-gas"],
         RunConfig(input_path="X", output_path="Y", aerosol="Maritime", tg_threshold=0.5,
                   aux_catalogue_path="aux.json", state_policy="catalogue_first",
                   worker_count=3, clip_negative=True, divide_total_gas=True)),
        (["run", "--input", "X", "--output", "Y", "--aod550", "0.2", "--tcwv", "1.5",
          "--tco3", "280"],
         RunConfig(input_path="X", output_path="Y",
                   override_state=AtmosphericState(0.2, 1.5, 280.0, source="override"))),
        (["run", "--input", "X", "--output", "Y", "--provider", "table",
          "--params-table", "p.csv"],
         RunConfig(input_path="X", output_path="Y", provider="table",
                   params_table_path="p.csv")),
        (["self-test", "--workers", "2", "--aerosol", "Urban"],
         RunConfig(worker_count=2, aerosol="Urban")),
    ]

    @pytest.mark.parametrize("argv,expected", EVERY_OPTION,
                             ids=["run_analytic", "run_override", "run_table", "self_test"])
    def test_every_option_sets_its_field(self, argv, expected):
        assert cli.config_from_args(cli.build_parser().parse_args(argv)) == expected

    def test_every_option_is_in_a_case(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("run", "self-test"):
            flags = set(sub.choices[command]._option_string_actions) - {"-h", "--help"}
            given = {f for argv, _ in self.EVERY_OPTION if argv[0] == command
                     for f in argv if f.startswith("--")}
            assert given == flags, command

    def test_auto_worker_count_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        # pinned to one CPU of eight (by taskset or a cpuset, say)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert RunConfig().workers == 1
        assert RunConfig(worker_count=3).workers == 3

    @pytest.mark.parametrize("cpus,expected", [(8, 8), (None, 1)], ids=["count", "unknown"])
    def test_auto_worker_count_without_affinity_is_the_cpu_count(self, monkeypatch, cpus,
                                                                 expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert RunConfig().workers == expected
        assert RunConfig(worker_count=3).workers == 3

    @pytest.mark.parametrize("fields,message", [
        ({"provider": "bogus"}, "unknown provider 'bogus'; choose from analytic, table"),
        ({"state_policy": "bogus"},
         "unknown state policy 'bogus'; choose from metadata_first, catalogue_first"),
        ({"state_policy": "bogus", "aux_catalogue_path": "aux.json"},
         "unknown state policy 'bogus'; choose from metadata_first, catalogue_first"),
    ], ids=["provider", "state_policy", "state_policy_with_catalogue"])
    def test_unknown_choice_refused_by_the_config(self, fields, message):
        with pytest.raises(HsacError, match=f"^{re.escape(message)}$"):
            RunConfig(input_path="X", output_path="Y", **fields)

    def test_unknown_aerosol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["run", "--input", "in", "--output", "out", "--aerosol", "Lunar"]
            )
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([])
        assert exc.value.code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["-h"])
        assert exc.value.code == 0

    def test_override_policy_requires_all_values(self, scene_dir, tmp_path, capsys):
        code = cli.main(
            ["run", "--input", str(scene_dir), "--output", str(tmp_path / "o"),
             "--aod550", "0.1"]
        )
        assert code == 2
        assert "--aod550, --tcwv and --tco3 are given together" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra,message", [
        (["--params-table", "/nonexistent.csv"], "--provider table"),
        (["--aod550", "0.9"], "--aod550, --tcwv and --tco3 are given together"),
        (["--tcwv", "3", "--tco3", "280", "--state-policy", "catalogue_first"],
         "--aod550, --tcwv and --tco3 are given together"),
        (["--provider", "table", "--params-table", "/nonexistent.csv",
          "--aux-catalogue", "/nonexistent.json"], "--provider analytic"),
        (["--provider", "table", "--params-table", "/nonexistent.csv",
          "--state-policy", "catalogue_first"], "--provider analytic"),
        (["--provider", "table", "--params-table", "/nonexistent.csv",
          "--aod550", "0.1", "--tcwv", "2", "--tco3", "300"], "--provider analytic"),
        (["--aod550", "0.1", "--tcwv", "2", "--tco3", "300",
          "--aux-catalogue", "/nonexistent.json"], "not read with --aod550, --tcwv and --tco3"),
        (["--aod550", "0.1", "--tcwv", "2", "--tco3", "300",
          "--state-policy", "catalogue_first"], "not read with --aod550, --tcwv and --tco3"),
        (["--state-policy", "catalogue_first"],
         "--state-policy catalogue_first is read only with --aux-catalogue"),
        (["--workers", "-1"], "worker count must be positive or 0 (auto)"),
    ], ids=["params_table_without_table_provider", "aod550_without_override",
            "tcwv_tco3_without_override", "catalogue_with_table_provider",
            "state_policy_with_table_provider", "override_with_table_provider",
            "override_with_catalogue", "override_with_state_policy",
            "state_policy_without_catalogue", "negative_workers"])
    def test_unread_option_exits_2(self, scene_dir, tmp_path, capsys, extra, message):
        out = tmp_path / "o"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_tg_threshold_outside_unit_interval_exits_2(self, scene_dir, tmp_path, capsys,
                                                       value):
        out = tmp_path / "o"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out),
                         "--tg-threshold", value]) == 2
        assert re.match(r"hsac run: tg_threshold \S+ outside \(0, 1\]\n$",
                        capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--input", "in", "--output", "out", "--workers", "-1"],
        ["self-test", "--workers", "-1"],
        ["compare", "--product", "p", "--reference", "r.csv", "--window", "400",
         "--pixel", "0,0"],
        ["compare", "--product", "p", "--reference", "r.csv", "--pixel", "1"],
        *(["compare", "--product", "p", "--reference", "r.csv", "--window", window,
           "--pixel", "0,0"] for window in ("900:400", "400:400", "nan:900")),
    ], ids=["run_workers", "self_test_workers", "compare_window", "compare_pixel",
            "compare_window_reversed", "compare_window_empty", "compare_window_nan"])
    def test_option_error_exits_2_with_a_message(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hsac {argv[0]}: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_readme_lists_every_run_flag(self):
        # each subcommand's README section shows every flag in its code blocks
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, heading in (("run", "## Quick start"), ("self-test", "### Self-test"),
                                 ("compare", "### Compare against reference spectra")):
            section = re.split(r"\n#+ ", readme.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]
            blocks = "".join(re.findall(r"```.*?\n(.*?)```", section, re.DOTALL))
            flags = {f for a in sub.choices[command]._actions for f in a.option_strings}
            assert set(re.findall(r"--[a-z][a-z0-9-]*", blocks)) == flags - {"-h", "--help"}, \
                command


class TestIngest:
    def test_scene_fixture_round_trip(self, scene_dir):
        metadata, cube = ingest_scene(str(scene_dir))
        assert metadata.scene_id == "FIXTURE-42"
        assert cube.n_bands == len(BAND_CENTERS)
        assert cube.data.shape == (len(BAND_CENTERS), 6, 5)

    def test_missing_metadata_is_stage_ingest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        config = RunConfig(input_path=str(empty), output_path=str(tmp_path / "o"))
        with pytest.raises(StageError) as exc:
            run_pipeline(config)
        assert exc.value.stage == "ingest"


class TestSimulationGrid:
    def test_covers_all_srf_windows(self):
        bands = [BandDefinition(i, c, 6.5) for i, c in enumerate(BAND_CENTERS)]
        grid = simulation_grid(bands, 2.5)
        assert grid.wavelengths[0] <= 500.0 - 3 * 6.5
        assert grid.wavelengths[-1] >= 650.0 + 3 * 6.5

    def test_anchored_on_quarter_nm_lattice(self):
        bands = [BandDefinition(0, 553.0, 6.5)]
        grid = simulation_grid(bands, 2.5)
        offsets = (grid.wavelengths - 350.0) / 2.5
        np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-9)


class TestRunEndToEnd:
    def test_cli_run_writes_all_products(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--input", str(scene_dir), "--output", str(out)])
        assert code == 0
        for name in PRODUCT:
            assert (out / name).exists(), name
        assert "done:" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_and_rerun_leave_exactly_the_product(self, tmp_path, workers):
        scene = make_scene_dir(tmp_path / "scene", rows=130)  # three row tiles
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            assert cli.main([
                "run", "--input", str(scene), "--output", str(out), "--workers", str(workers),
            ]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(PRODUCT)
            # report.json alone holds what differs between runs, its timings
            runs.append({name: (out / name).read_bytes() for name in PRODUCT - {"report.json"}})
        assert runs[0] == runs[1]

    def test_product_read_back(self, scene_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 0
        cube = read_cube(str(out / "r_rs"))
        assert cube.data.dtype == np.float32
        # all six visible bands survive masking at the default threshold
        assert cube.n_bands == len(BAND_CENTERS)
        assert cube.wavelengths == BAND_CENTERS
        mask_lines = (out / "band_mask.csv").read_text(encoding="utf-8").splitlines()
        assert len(mask_lines) == 1 + len(BAND_CENTERS)
        assert all(line.endswith(",valid") for line in mask_lines[1:])

    def test_report_contents(self, scene_dir, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--input", str(scene_dir), "--output", str(out)])
        report = report_of(out)
        assert report["scene_id"] == "FIXTURE-42"
        assert report["nyquist"]["overall"] is True
        assert report["provider"] == "analytic"
        assert report["failure_stage"] is None
        assert set(report["timings_ms"]) == {
            "ingest", "configure", "rtm", "inversion", "export"
        }
        assert report["atmospheric_state"]["source"] == "metadata"

    def test_report_keys_are_the_dataclass_fields(self, scene_dir, tmp_path):
        fields = {f.name for f in dataclasses.fields(ProcessingReport)}
        ok, failed = tmp_path / "ok", tmp_path / "failed"
        table = tmp_path / "bad.csv"
        table.write_text("garbage\n", encoding="utf-8")
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(ok)]) == 0
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(failed),
            "--provider", "table", "--params-table", str(table),
        ]) == 4
        for out in (ok, failed):
            assert set(report_of(out)) == fields

    def test_divide_total_gas(self, tmp_path):
        # 500/560 nm: no absorber but ozone; 700/720/820 nm: water vapour and
        # oxygen absorb but stay above the mask threshold; 760 nm: masked
        scene = make_scene_dir(
            tmp_path / "scene", centers=(500.0, 560.0, 700.0, 720.0, 760.0, 820.0)
        )
        default, divided = tmp_path / "default", tmp_path / "divided"
        assert cli.main(["run", "--input", str(scene), "--output", str(default)]) == 0
        assert cli.main([
            "run", "--input", str(scene), "--output", str(divided), "--divide-total-gas",
        ]) == 0
        divided_params = read_params_table(divided / "band_params.csv")
        assert all(p["t_g_o3"] == p["t_g_total"] for p in divided_params.values())

        params = read_params_table(default / "band_params.csv").values()
        valid = [p for p in params if p["t_g_total"] >= 0.85]  # default threshold
        a = read_cube(str(default / "rho_w"))
        b = read_cube(str(divided / "rho_w"))
        assert a.wavelengths == b.wavelengths == (500.0, 560.0, 700.0, 720.0, 820.0)
        changed = [not np.array_equal(a.data[k], b.data[k]) for k in range(len(valid))]
        assert changed == [p["t_g_total"] < p["t_g_o3"] for p in valid]
        assert changed == [False, False, True, True, True]

    def test_nonfinite_radiance_becomes_nodata(self, tmp_path):
        planted = {(0, 0, 0): np.nan, (2, 3, 1): np.inf, (5, 5, 4): -np.inf}
        scene = make_scene_dir(tmp_path / "scene", pixels=planted)
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene), "--output", str(out)]) == 0
        expected = np.zeros((len(BAND_CENTERS), 6, 5), dtype=bool)
        for index in planted:
            expected[index] = True
        for name in ("rho_w", "r_rs"):
            cube = read_cube(str(out / name))
            assert np.all(np.isfinite(cube.data)), name
            np.testing.assert_array_equal(cube.data == cube.nodata_value, expected)
        report = report_of(out)
        assert report["nonfinite_pixels"] == len(planted)
        assert report["degenerate_pixels"] == 0

    def test_infinite_radiance_in_a_band_without_coupling_replays(self, tmp_path):
        # a table band with s_atm = 0 divides inf by c + 0 * inf = NaN
        planted = {(2, 1, 1): np.inf, (2, 4, 3): -np.inf}
        scene = make_scene_dir(tmp_path / "scene", pixels=planted)
        analytic, replay = tmp_path / "analytic", tmp_path / "replay"
        assert cli.main(["run", "--input", str(scene), "--output", str(analytic)]) == 0
        header, *rows = (analytic / "band_params.csv").read_text(encoding="utf-8").splitlines()
        cells = rows[2].split(",")
        cells[header.split(",").index("s_atm")] = "0.0"
        rows[2] = ",".join(cells)
        table = tmp_path / "table.csv"
        table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert cli.main([
            "run", "--input", str(scene), "--output", str(replay),
            "--provider", "table", "--params-table", str(table),
        ]) == 0
        report = report_of(replay)
        assert report["nonfinite_pixels"] == len(planted)
        assert report["degenerate_pixels"] == 0
        expected = np.zeros((len(BAND_CENTERS), 6, 5), dtype=bool)
        for index in planted:
            expected[index] = True
        for name in ("rho_w", "r_rs"):
            cube = read_cube(str(replay / name))
            np.testing.assert_array_equal(cube.data == NODATA, expected, err_msg=name)

    def test_all_bands_masked_writes_empty_products(self, scene_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--tg-threshold", "1.0",
        ]) == 0
        for name in ("rho_w", "r_rs"):
            cube = read_cube(str(out / name))
            assert cube.data.shape == (0, 6, 5), name
            assert (out / f"{name}.img").stat().st_size == 0
        mask_lines = (out / "band_mask.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(mask_lines) == len(BAND_CENTERS)
        assert all(line.endswith(",masked_low_tg") for line in mask_lines)

    def test_table_provider_reproduces_analytic_product(self, scene_dir, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(first)]) == 0
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(second),
            "--provider", "table", "--params-table", str(first / "band_params.csv"),
        ]) == 0
        a = read_cube(str(first / "r_rs"))
        b = read_cube(str(second / "r_rs"))
        np.testing.assert_allclose(b.data, a.data, rtol=1e-9)

    def test_table_replay_reads_no_state(self, scene_dir, tmp_path):
        analytic, replay = tmp_path / "analytic", tmp_path / "replay"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace("<aod550>0.12</aod550>", ""),
                       encoding="utf-8")
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(replay),
            "--provider", "table", "--params-table", str(analytic / "band_params.csv"),
        ]) == 0
        for name in ("rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img",
                     "band_mask.csv", "band_params.csv"):
            assert (replay / name).read_bytes() == (analytic / name).read_bytes(), name
        assert report_of(replay)["atmospheric_state"] == {}

    def test_table_replay_of_measured_srfs_is_byte_identical(self, scene_dir, tmp_path):
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<centerWavelength>530.0</centerWavelength><fwhm>6.5</fwhm>",
            "<centerWavelength>530.0</centerWavelength><fwhm>6.5</fwhm>"
            "<srf>521 0.05 524.5 0.4 529 1.0 533.5 0.5 539 0.02</srf>", 1), encoding="utf-8")
        analytic, replay = tmp_path / "analytic", tmp_path / "replay"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(replay),
            "--provider", "table", "--params-table", str(analytic / "band_params.csv"),
        ]) == 0
        for name in ("rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img",
                     "band_mask.csv", "band_params.csv"):
            assert (replay / name).read_bytes() == (analytic / name).read_bytes(), name
        report = report_of(analytic)
        assert report["srf_sources"] == {"gaussian": 5, "measured": 1}

    def test_nyquist_violation_warns_and_runs(self, scene_dir, tmp_path):
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<centerWavelength>560.0</centerWavelength><fwhm>6.5</fwhm>",
            "<centerWavelength>560.0</centerWavelength><fwhm>4.0</fwhm>"), encoding="utf-8")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="violates the Nyquist criterion for 1 bands"):
            assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 0
        assert report_of(out)["nyquist"] == {
            "step": 2.5, "overall": False, "violations": [2]}

    @pytest.mark.parametrize("source", ["metadata", "catalogue", "override"])
    def test_implausible_tco3_warns_and_runs(self, scene_dir, tmp_path, source):
        # the configure stage warns on the tco3 of the state it resolved
        options = []
        if source == "metadata":
            xml = scene_dir / "scene.xml"
            xml.write_text(xml.read_text(encoding="utf-8").replace(
                "<tco3>300</tco3>", "<tco3>50</tco3>"), encoding="utf-8")
        elif source == "catalogue":
            options = ["--aux-catalogue", str(write_catalogue(tmp_path, tco3=50.0)),
                       "--state-policy", "catalogue_first"]
        else:
            options = ["--aod550", "0.12", "--tcwv", "2", "--tco3", "50"]
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match=r"^tco3 = 50\.0 DU outside plausible range "
                                             r"\[100, 600\]$"):
            assert cli.main(["run", "--input", str(scene_dir), "--output", str(out),
                             *options]) == 0
        assert report_of(out)["atmospheric_state"]["tco3"] == 50.0

    def test_table_replay_does_not_warn_on_the_tco3_it_never_reads(self, scene_dir,
                                                                   tmp_path):
        analytic = tmp_path / "analytic"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<tco3>300</tco3>", "<tco3>50</tco3>"), encoding="utf-8")
        replay = tmp_path / "replay"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([
                "run", "--input", str(scene_dir), "--output", str(replay),
                "--provider", "table", "--params-table", str(analytic / "band_params.csv"),
            ]) == 0

    def test_srf_off_the_grid_fails_rtm_and_its_table_replays(self, scene_dir, tmp_path,
                                                               capsys):
        # only the analytic provider puts SRFs on the grid; a replay never reads them
        analytic = tmp_path / "analytic"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<centerWavelength>650.0</centerWavelength><fwhm>6.5</fwhm>",
            "<centerWavelength>650.0</centerWavelength><fwhm>6.5</fwhm>"
            "<srf>2601 0.5 2605 1.0 2610 0.5</srf>"), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 4
        assert "band 5: measured SRF support does not reach any grid point" \
            in capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == "rtm"
        assert report["srf_sources"] == {"gaussian": 5, "measured": 1}
        assert report["nyquist"]["overall"]
        assert report["atmospheric_state"]["source"] == "metadata"
        replay = tmp_path / "replay"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(replay),
            "--provider", "table", "--params-table", str(analytic / "band_params.csv"),
        ]) == 0
        for name in ("rho_w.img", "r_rs.img", "band_params.csv"):
            assert (replay / name).read_bytes() == (analytic / name).read_bytes(), name

    def test_srf_all_zero_on_the_grid_fails_rtm(self, scene_dir, tmp_path, capsys):
        # the one grid point inside the support, 650 nm, interpolates to 0
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<centerWavelength>650.0</centerWavelength><fwhm>6.5</fwhm>",
            "<centerWavelength>650.0</centerWavelength><fwhm>6.5</fwhm>"
            "<srf>650.0 0.0 651.0 1.0 652.0 0.0</srf>"), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 4
        message = "band 5: resampled SRF is all zero"
        assert capsys.readouterr().err == f"hsac run failed: stage rtm: {message}\n"
        report = report_of(out)
        assert report["failure_stage"] == "rtm"
        assert report["error"] == message

    def test_table_with_blank_lines_replays(self, scene_dir, tmp_path):
        analytic, replay = tmp_path / "analytic", tmp_path / "replay"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        table = tmp_path / "table.csv"
        lines = (analytic / "band_params.csv").read_text(encoding="utf-8").splitlines()
        table.write_text("\n\n".join(lines) + "\n\n", encoding="utf-8")
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(replay),
            "--provider", "table", "--params-table", str(table),
        ]) == 0
        for name in ("rho_w.img", "r_rs.img", "band_params.csv"):
            assert (replay / name).read_bytes() == (analytic / name).read_bytes(), name

    def test_table_with_a_byte_order_mark_replays(self, scene_dir, tmp_path):
        analytic, replay = tmp_path / "analytic", tmp_path / "replay"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(analytic)]) == 0
        table = tmp_path / "table.csv"
        table.write_bytes(b"\xef\xbb\xbf" + (analytic / "band_params.csv").read_bytes())
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(replay),
            "--provider", "table", "--params-table", str(table),
        ]) == 0
        for name in ("rho_w.img", "r_rs.img", "band_params.csv"):
            assert (replay / name).read_bytes() == (analytic / name).read_bytes(), name

    def test_worker_counts_byte_identical_products(self, tmp_path, monkeypatch):
        # 130 rows: row tiles [0, 64), [64, 128) and [128, 130), each with
        # planted pixels; 40 rows: one row tile, so that every block spans
        # every row and is written in one pwrite. Radiance 0.0 inverts to a
        # negative rho_w. A degenerate pixel needs a float64 radiance:
        # test_fused_pixel_account plants one.
        scenes = {
            130: {(0, 3, 1): np.nan, (4, 10, 3): 0.0, (2, 70, 0): np.inf,
                  (1, 100, 2): -9999.0, (5, 129, 4): -np.inf, (3, 128, 0): 0.0},
            40: {(0, 3, 1): np.nan, (4, 10, 3): 0.0, (2, 20, 0): np.inf,
                 (1, 30, 2): -9999.0, (5, 39, 4): -np.inf, (3, 38, 0): 0.0},
        }
        # a band a block; two bands a block in a 64-row tile, three in a
        # 40-row one; all bands a block
        block_sizes = (1, 2 * ROW_TILE * 5, inversion.BLOCK_PIXELS)
        for rows, planted in scenes.items():
            scene = make_scene_dir(tmp_path / f"scene{rows}", pixels=planted, rows=rows)
            metadata, cube = ingest_scene(str(scene))
            setup = pipeline.configure_scene(metadata, RunConfig())
            for opts in ([], ["--clip-negative"], ["--divide-total-gas"]):
                tag = "-".join(opts) or "default"
                expected = None
                for w, block_pixels in itertools.product((1, 2, 8), block_sizes):
                    monkeypatch.setattr(inversion, "BLOCK_PIXELS", block_pixels)
                    out = tmp_path / f"r{rows}-{tag}-w{w}-b{block_pixels}"
                    assert cli.main([
                        "run", "--input", str(scene), "--output", str(out), "--workers", str(w),
                        *opts,
                    ]) == 0
                    if expected is None:
                        # the same run held in memory, cast and formatted without a sink
                        params = load_params_table(
                            (out / "band_params.csv").read_text(encoding="utf-8"), 6)
                        rho_w, account, valid = invert_in_memory(
                            cube, setup.d_squared, params,
                            clip_negative="--clip-negative" in opts)
                        # nan, inf and -inf; the two 0.0 radiances are negative
                        assert valid == list(range(6))
                        assert account == (0, 3, 6 * rows * 5 - 4, 2)
                        wavelengths = tuple(metadata.bands[i].center_wavelength for i in valid)
                        header = format_envi_header(rho_w.shape, np.float32, NODATA,
                                                    wavelengths, "bsq").encode()
                        expected = {
                            "rho_w.hdr": header,
                            "rho_w.img": rho_w.astype(np.float32).tobytes(),
                            "r_rs.hdr": header,
                            "r_rs.img": to_rrs(rho_w).tobytes(),
                        }
                    for name, data in expected.items():
                        assert (out / name).read_bytes() == data, (out.name, name)

    def test_bsq_and_bil_inputs_give_the_same_products(self, tmp_path):
        # 760 nm sits in the O2-A feature and is masked between valid bands
        # of one block (all valid bands of a 64x5 tile are one block); 130
        # rows are three row tiles, so 3 workers fork
        centers = (560.0, 665.0, 760.0, 865.0)
        planted = {(0, 3, 1): np.nan, (1, 70, 2): -9999.0, (3, 129, 4): 0.0}
        bsq = make_scene_dir(tmp_path / "bsq", centers=centers, pixels=planted, rows=130)
        bil = tmp_path / "bil"
        bil.mkdir()
        (bil / "scene.xml").write_bytes((bsq / "scene.xml").read_bytes())
        data = np.array(read_cube(str(bsq / "radiance")).data)
        write_cube(str(bil / "radiance"), RadianceCube(data=data), interleave="bil")
        assert "interleave = bil" in (bil / "radiance.hdr").read_text(encoding="utf-8")
        products = {}
        for scene, workers in itertools.product((bsq, bil), (1, 3)):
            out = tmp_path / f"{scene.name}-w{workers}"
            assert cli.main(["run", "--input", str(scene), "--output", str(out),
                             "--workers", str(workers)]) == 0
            assert report_of(out)["masked_bands"] == {"2": "masked_low_tg"}
            products[out.name] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rho_w.img", "r_rs.img", "band_mask.csv", "band_params.csv")
            }
        assert len({tuple(p.items()) for p in products.values()}) == 1, products

    def test_streamed_run_never_holds_the_cube(self, tmp_path, monkeypatch):
        # four row tiles; one tile of all bands is 10x BLOCK_PIXELS
        bands, rows, cols = 40, 256, 256
        centers = tuple(400.0 + 8.0 * i for i in range(bands))  # none masked
        scene = make_scene_dir(tmp_path / "scene", centers=centers, rows=rows, cols=cols)
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.start()  # counts only what the inversion allocates
            try:
                return invert_cube(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(pipeline, "invert_cube", traced)
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene), "--output", str(out), "--workers", "1",
        ]) == 0
        assert read_cube(str(out / "rho_w")).n_bands == bands
        assert peaks[0] < bands * ROW_TILE * cols * 8  # one float64 row tile of all bands

    def test_table_provider_requires_table_path(self, scene_dir, tmp_path):
        code = cli.main([
            "run", "--input", str(scene_dir), "--output", str(tmp_path / "o"),
            "--provider", "table",
        ])
        assert code == 2

    def test_bad_input_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli.main(
            ["run", "--input", str(empty), "--output", str(tmp_path / "o")]
        )
        assert code == 3

    def test_input_directory_name_with_glob_metacharacters(self, tmp_path):
        # unescaped, the glob "scene[1]/*.xml" matches the decoy's "scene1/scene.xml"
        make_scene_dir(tmp_path / "scene1", centers=BAND_CENTERS[:3])
        scene = make_scene_dir(tmp_path / "scene[1]")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene), "--output", str(out)]) == 0
        assert "bands = 6\n" in (out / "rho_w.hdr").read_text(encoding="utf-8")

    @pytest.mark.parametrize("dtype,nodata,header_edit,message", [
        (np.uint16, 0.0, None, "calibrate the DN to radiance"),  # uncalibrated DN
        (np.float32, np.nan, None, "not finite"),  # a NaN sentinel cannot mark nodata
        (np.float32, -9999.0, ("byte order = 0", "byte order = 1"), "byte order 1"),
        (np.float32, -9999.0, ("header offset = 0", "header offset = 64"),
         "header offset 64"),
        (np.float32, -9999.0, ("samples = 5\n", ""), "header missing field 'samples'"),
    ], ids=["uint16_dn", "nan_nodata", "big_endian", "header_offset", "no_samples"])
    def test_unsupported_input_exits_3(self, scene_dir, tmp_path, capsys,
                                       dtype, nodata, header_edit, message):
        radiance = str(scene_dir / "radiance")
        data = (read_cube(radiance).data * 10000).astype(dtype)
        data[0, 0, 0] = nodata
        write_cube(radiance, RadianceCube(data=data, nodata_value=nodata))
        if header_edit:
            header = scene_dir / "radiance.hdr"
            header.write_text(header.read_text(encoding="utf-8").replace(*header_edit),
                              encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    @pytest.mark.parametrize("name", ["scene.xml", "radiance.hdr"])
    def test_non_utf8_input_exits_3_naming_the_file(self, scene_dir, tmp_path, capsys, name):
        path = scene_dir / name
        text = path.read_bytes()
        path.write_bytes(text[:20] + b"\xff" + text[20:])
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text: " in err
        assert err.count(str(path)) == 1
        assert report_of(out)["failure_stage"] == "ingest"

    @pytest.mark.parametrize("edit,message", [
        (lambda xml: re.sub(r'\s*<band index="5".*</band>', "", xml),
         "5 <band> elements for 6 raster bands; band indices must be 0..5: missing [5]"),
        (lambda xml: xml.replace('index="5"', 'index="4"'), "missing [5], duplicated [4]"),
        (lambda xml: re.sub(r'index="(\d)"', lambda m: f'index="{int(m[1]) + 1}"', xml),
         "missing [0], unexpected [6]"),
        (lambda xml: re.sub(r"<bandCharacterisation>.*</bandCharacterisation>", "", xml,
                            flags=re.DOTALL), "0 <band> elements for 6 raster bands"),
    ], ids=["five_bands_for_six", "duplicated_index", "one_based", "no_band_element"])
    def test_band_set_not_the_raster_exits_3(self, scene_dir, tmp_path, capsys, edit, message):
        xml = scene_dir / "scene.xml"
        xml.write_text(edit(xml.read_text(encoding="utf-8")), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    @pytest.mark.parametrize("edit,message", [
        (lambda xml: re.sub(r"\s*<sunZenith>.*</sunZenith>", "", xml),
         "missing element <sunZenith> (or <sunElevation>)"),
        (lambda xml: xml.replace("<sunAzimuth>145.0", "<sunAzimuth>south"),
         "element <sunAzimuth> is not a number: 'south'"),
        (lambda xml: xml.replace("<aod550>0.12", "<aod550>hazy"),
         "element <aod550> is not a number: 'hazy'"),
        (lambda xml: xml.replace('<band index="2">', "<band>"),
         "a <band> element has no index attribute"),
        (lambda xml: re.sub(r"\s*<sunAzimuth>.*</sunAzimuth>", "", xml),
         "missing element <sunAzimuth>"),
        (lambda xml: re.sub(r"\s*<acquisitionDate>.*</acquisitionDate>", "", xml),
         "missing element <acquisitionDate>"),
        (lambda xml: re.sub(r"\s*<acquisitionTime>.*</acquisitionTime>", "", xml),
         "missing element <acquisitionTime>"),
        (lambda xml: xml.replace("2024-07-24", "2024-13-01"),
         "<acquisitionDate> '2024-13-01' is not a YYYY-MM-DD date"),
        # ISO 8601 forms that date.fromisoformat takes on Python 3.11 and later only
        (lambda xml: xml.replace("2024-07-24", "20240724"),
         "<acquisitionDate> '20240724' is not a YYYY-MM-DD date"),
        (lambda xml: xml.replace("2024-07-24", "2024-W30-3"),
         "<acquisitionDate> '2024-W30-3' is not a YYYY-MM-DD date"),
        (lambda xml: xml.replace("11:01:54", "25:00:00"),
         "<acquisitionTime> '25:00:00' is not a time of day (HH:MM:SS)"),
        # time.fromisoformat takes the first two on Python 3.11 and later only,
        # and the offset everywhere, though the seconds of day would drop it
        (lambda xml: xml.replace("11:01:54", "110154"),
         "<acquisitionTime> '110154' is not a time of day (HH:MM:SS)"),
        (lambda xml: xml.replace("11:01:54", "T11:01"),
         "<acquisitionTime> 'T11:01' is not a time of day (HH:MM:SS)"),
        (lambda xml: xml.replace("11:01:54", "11:01:54+02:00"),
         "<acquisitionTime> '11:01:54+02:00' is not a time of day (HH:MM:SS)"),
        (lambda xml: re.sub(r'(<band index="2">.*?)<fwhm>6.5</fwhm>', r"\1", xml),
         "band 2: missing element <fwhm>"),
        (lambda xml: xml.replace("<scene>", "<scene>&bogus;"),
         "not well-formed XML: undefined entity: line 1, column 7"),
    ], ids=["no_sun_zenith_or_elevation", "sun_azimuth_not_a_number",
            "aod550_not_a_number", "band_without_index", "no_sun_azimuth",
            "no_acquisition_date", "no_acquisition_time", "month_13", "date_basic_format",
            "date_week_format", "hour_25", "time_basic_format", "time_t_prefix",
            "time_utc_offset", "band_without_fwhm", "not_well_formed"])
    def test_malformed_scene_xml_exits_3_naming_the_file(self, scene_dir, tmp_path, capsys,
                                                         edit, message):
        xml = scene_dir / "scene.xml"
        xml.write_text(edit(xml.read_text(encoding="utf-8")), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert f"hsac run failed: stage ingest: {xml}: {message}\n" == capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == "ingest"
        assert report["error"] == f"{xml}: {message}"

    def test_scene_without_bands_exits_3_naming_the_xml(self, tmp_path, capsys):
        # a raster of 0 bands agrees with a <bandCharacterisation> of none
        scene = make_scene_dir(tmp_path / "scene", centers=())
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene), "--output", str(out)]) == 3
        assert f"{scene / 'scene.xml'}: no <band> elements" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    @pytest.mark.parametrize("negative,field", [
        (("samples", "lines"), "samples"), (("lines", "bands"), "lines"),
        (("samples", "bands"), "samples"),
    ], ids=["samples_lines", "lines_bands", "samples_bands"])
    def test_negative_size_exits_3_naming_the_field(self, scene_dir, tmp_path, capsys,
                                                    negative, field):
        # two negative sizes keep the product, and so the payload size, right
        header = scene_dir / "radiance.hdr"
        header.write_text(re.sub(rf"^({'|'.join(negative)}) = ", r"\1 = -",
                                 header.read_text(encoding="utf-8"), flags=re.MULTILINE),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert f"header field '{field}' must be an integer >= 0" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    def test_unterminated_header_list_exits_3_naming_the_field(self, scene_dir, tmp_path):
        header = scene_dir / "radiance.hdr"
        header.write_text(header.read_text(encoding="utf-8") + "wavelength = {500.0,\n 530.0\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        report = report_of(out)
        assert report["failure_stage"] == "ingest"
        assert "'wavelength'" in report["error"]

    @pytest.mark.parametrize("value", ["500", "{500, 530}"], ids=["unbraced", "two_for_six"])
    def test_header_wavelength_not_one_per_band_exits_3(self, scene_dir, tmp_path, value):
        header = scene_dir / "radiance.hdr"
        header.write_text(header.read_text(encoding="utf-8") + f"wavelength = {value}\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        report = report_of(out)
        assert report["failure_stage"] == "ingest"
        assert "'wavelength'" in report["error"]

    @pytest.mark.parametrize("units,nm_per_unit", [
        ("Micrometers", 1000), ("um", 1000), ("nm", 1),
    ], ids=["Micrometers", "um", "nm"])
    def test_header_wavelength_units_give_the_same_products(self, scene_dir, tmp_path,
                                                            units, nm_per_unit):
        plain = tmp_path / "plain"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(plain)]) == 0
        header = scene_dir / "radiance.hdr"
        listed = ", ".join(str(c / nm_per_unit) for c in BAND_CENTERS)
        header.write_text(header.read_text(encoding="utf-8")
                          + f"wavelength units = {units}\nwavelength = {{{listed}}}\n",
                          encoding="utf-8")
        assert ingest_scene(str(scene_dir))[1].wavelengths == pytest.approx(BAND_CENTERS)
        out = tmp_path / "listed"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 0
        for name in ("rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img",
                     "band_mask.csv", "band_params.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes(), name
        reports = [report_of(d) for d in (plain, out)]
        for report in reports:
            del report["timings_ms"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("lines,message", [
        ("wavelength units = Micrometers\nwavelength = {" + ", ".join(["0.5"] * 6) + "}",
         "wavelength 500.0 nm of band 1 is more than half its FWHM (6.5 nm) from its "
         "centre 530.0 nm in "),
        ("wavelength = {" + ", ".join(map(str, BAND_CENTERS[::-1])) + "}",
         "wavelength 650.0 nm of band 0 is more than half its FWHM (6.5 nm) from its "
         "centre 500.0 nm in "),
        ("wavelength units = Wavenumber\nwavelength = {" + ", ".join(map(str, BAND_CENTERS))
         + "}", "wavelength units 'Wavenumber': only nanometers or micrometers"),
    ], ids=["all_half_micrometre", "reversed", "unknown_unit"])
    def test_header_wavelengths_not_the_scene_exit_3_naming_the_file(self, scene_dir, tmp_path,
                                                                     capsys, lines, message):
        header = scene_dir / "radiance.hdr"
        header.write_text(header.read_text(encoding="utf-8") + lines + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{header}: {message}" in err
        if "band" in message:
            assert f"in {scene_dir / 'scene.xml'}" in err
        assert report_of(out)["failure_stage"] == "ingest"

    @pytest.mark.parametrize("edit,message", [
        (("samples = 5", "samples = x"), "header field 'samples' is not an integer: 'x'"),
        (("interleave = bsq", "interleave = bip"), "interleave 'bip' not in {bsq, bil}"),
        (("lines = 6", "lines = 7"), "payload is 720 bytes, header implies 840"),
        (("ENVI\n", "ENVI\nwavelength units = GHz\nwavelength = {1, 2, 3, 4, 5, 6}\n"),
         "wavelength units 'GHz': only nanometers or micrometers"),
    ], ids=["samples_not_integer", "interleave", "payload_size", "wavelength_units"])
    def test_header_error_exits_3_naming_the_header_once(self, scene_dir, tmp_path, capsys,
                                                         edit, message):
        header = scene_dir / "radiance.hdr"
        header.write_text(header.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{header}: {message}" in err
        assert err.count(str(header)) == 1
        report = report_of(out)
        assert report["failure_stage"] == "ingest"
        assert report["error"] == f"{header}: {message}"

    def test_second_raster_in_scene_directory_exits_3(self, scene_dir, tmp_path, capsys):
        # a run written into its own input directory adds r_rs.hdr and rho_w.hdr
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(scene_dir)]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert "r_rs.hdr, radiance.hdr, rho_w.hdr" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    def test_srf_wavelengths_not_increasing_exits_3(self, scene_dir, tmp_path, capsys):
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            "<fwhm>6.5</fwhm></band>",
            "<fwhm>6.5</fwhm><srf>495 0.2 505 0.2 500 1.0</srf></band>", 1), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 3
        assert "SRF wavelengths not strictly increasing" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "ingest"

    def test_clip_with_zero_nodata_writes_fixed_sentinel(self, tmp_path):
        # radiance 1e-6 inverts to a negative rho_w, clipped to 0.0; 0.0 is nodata
        scene = make_scene_dir(tmp_path / "scene", pixels={(0, 0, 0): 1e-6, (0, 1, 1): 0.0})
        radiance = str(scene / "radiance")
        data = np.array(read_cube(radiance).data)
        write_cube(radiance, RadianceCube(data=data, nodata_value=0.0))
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene), "--output", str(out), "--clip-negative",
        ]) == 0
        for name in ("rho_w", "r_rs"):
            header = (out / f"{name}.hdr").read_text(encoding="utf-8")
            assert "data ignore value = -9999.0" in header
            cube = read_cube(str(out / name))
            assert cube.data[0, 0, 0] == 0.0 != cube.nodata_value, name
            assert cube.data[0, 1, 1] == cube.nodata_value == NODATA, name

    @pytest.mark.parametrize("policy,xml_edit,state", [
        ("catalogue_first", ("", ""),
         {"aod550": 0.21, "tcwv": 1.4, "tco3": 295.0, "source": "catalogue"}),
        ("metadata_first", ("<aod550>0.12</aod550>", ""),
         {"aod550": 0.21, "tcwv": 2.0, "tco3": 300.0, "source": "mixed"}),
    ], ids=["catalogue_first", "metadata_first_without_aod550"])
    def test_state_from_catalogue(self, scene_dir, tmp_path, policy, xml_edit, state):
        xml = scene_dir / "scene.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(*xml_edit), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aux-catalogue", str(write_catalogue(tmp_path)), "--state-policy", policy,
        ]) == 0
        assert report_of(out)["atmospheric_state"] == state

    def test_override_values_give_override_state(self, scene_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aod550", "0.3", "--tcwv", "1.1", "--tco3", "280",
        ]) == 0
        assert report_of(out)["atmospheric_state"] == {
            "aod550": 0.3, "tcwv": 1.1, "tco3": 280.0, "source": "override"}

    def test_override_with_unparseable_catalogue_exits_2_unread(self, scene_dir, tmp_path,
                                                                capsys):
        catalogue = tmp_path / "aux.json"
        catalogue.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aod550", "0.3", "--tcwv", "1.1", "--tco3", "280",
            "--aux-catalogue", str(catalogue),
        ]) == 2  # a catalogue that was read would fail the configure stage, exit 4
        assert "--aux-catalogue and --state-policy are not read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_state_refused(self, scene_dir, tmp_path, capsys, value):
        out = tmp_path / "catalogue"
        catalogue = write_catalogue(tmp_path, aod550=float(value))
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aux-catalogue", str(catalogue), "--state-policy", "catalogue_first",
        ]) == 4
        assert f"{catalogue}: catalogue entry 0: " in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "configure"

        out = tmp_path / "override"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aod550", value, "--tcwv", "2", "--tco3", "300",
        ]) == 2
        assert "aod550 must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda entry: {k: v for k, v in entry.items() if k != "date"},
        lambda entry: {**entry, "value": "abc"},
        lambda entry: {**entry, "bbox": [-180, -90, 180]},
        lambda entry: entry["dataset"],
        lambda entry: {**entry, "bbox": [math.nan, -90, 180, 90]},
        lambda entry: {**entry, "bbox": [-180, -90, math.inf, 90]},
        lambda entry: {**entry, "value": -math.inf},
        lambda entry: {**entry, "value": 10**400},
        # an entry that no lookup can match, or whose value no state may hold
        lambda entry: {**entry, "value": -0.1},
        lambda entry: {**entry, "date": "2024-7-24"},
        lambda entry: {**entry, "bbox": [180, -90, -180, 90]},
        lambda entry: {**entry, "date": "20240724"},
    ], ids=["missing_date", "value_not_a_number", "bbox_of_three", "not_an_object",
            "nan_in_bbox", "infinity_in_bbox", "infinite_value", "value_beyond_float",
            "negative_value", "date_not_iso", "bbox_inverted", "date_basic_format"])
    def test_malformed_catalogue_entry_exits_4(self, scene_dir, tmp_path, capsys, edit):
        catalogue = write_catalogue(tmp_path)
        entries = json.loads(catalogue.read_text(encoding="utf-8"))
        entries[1] = edit(entries[1])
        catalogue.write_text(json.dumps(entries), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aux-catalogue", str(catalogue),
        ]) == 4
        assert f"{catalogue}: catalogue entry 1: " in capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == "configure"
        assert report["error"].startswith(f"{catalogue}: catalogue entry 1: ")

    @pytest.mark.parametrize("content,message", [
        (b"{'dataset': 1}", "catalogue is not JSON: "),
        (b'[{"dataset": "\xff"}]', "not UTF-8 text: "),
        (b'{"dataset": "TOMS/MERGED"}', "catalogue JSON must be an array of objects"),
    ], ids=["not_json", "not_utf8", "object_not_array"])
    def test_unreadable_catalogue_exits_4_naming_the_file(self, scene_dir, tmp_path, capsys,
                                                          content, message):
        catalogue = tmp_path / "aux.json"
        catalogue.write_bytes(content)
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--aux-catalogue", str(catalogue),
        ]) == 4
        assert f"{catalogue}: {message}" in capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == "configure"
        assert report["error"].startswith(f"{catalogue}: {message}")

    @pytest.mark.parametrize("n_rows", [4, 8], ids=["short", "long"])
    def test_params_table_of_another_band_count_exits_4(self, scene_dir, tmp_path, capsys,
                                                        n_rows):
        first = tmp_path / "first"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(first)]) == 0
        header, *rows = (first / "band_params.csv").read_text(encoding="utf-8").splitlines()
        # rows 0..n_rows-1, reusing the six bands' values
        rows = [f"{i}," + rows[i % len(rows)].split(",", 1)[1] for i in range(n_rows)]
        table = tmp_path / "table.csv"
        table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--provider", "table", "--params-table", str(table),
        ]) == 4
        problem = "missing [4, 5]" if n_rows == 4 else "unexpected [6, 7]"
        assert (f"{table}: {n_rows} rows for 6 scene bands; band indices must be 0..5: "
                f"{problem}\n") in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "rtm"

    @pytest.mark.parametrize("field", ["l_path", "e_s"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_params_table_value_exits_4(self, scene_dir, tmp_path, capsys,
                                                   field, value):
        first = tmp_path / "first"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(first)]) == 0
        header, *rows = (first / "band_params.csv").read_text(encoding="utf-8").splitlines()
        column = header.split(",").index(field)
        cells = rows[3].split(",")
        cells[column] = value
        rows[3] = ",".join(cells)
        table = tmp_path / "table.csv"
        table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--provider", "table", "--params-table", str(table),
        ]) == 4
        assert f"band 3: {field} = {value} outside [0, inf)" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "rtm"
        assert not (out / "rho_w.img").exists()

    @pytest.mark.parametrize("body,message", [
        # each message follows the table's path
        ("", ": empty parameter table"),
        ("{header}\n0,0.1,0.9,0.9\n", ":2: row has 4 fields, expected 7: '0,0.1,0.9,0.9'"),
        ("{header}\n0,0.1,0.9,0.9,0.9,0.1,abc\n",
         ":2: non-numeric row: '0,0.1,0.9,0.9,0.9,0.1,abc'"),
    ], ids=["empty", "short_row", "non_numeric_row"])
    def test_malformed_params_table_exits_4_naming_the_file(self, scene_dir, tmp_path, capsys,
                                                            body, message):
        table = tmp_path / "table.csv"
        table.write_text(body.format(header="band_index,l_path,t_g_o3,t_g_total,t_up,s_atm,e_s"),
                         encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--provider", "table", "--params-table", str(table),
        ]) == 4
        assert f"{table}{message}\n" in capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == "rtm"
        assert report["error"] == f"{table}{message}"

    def test_corrupt_params_table_exits_4(self, scene_dir, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("not,a,params,table\n1,2,3,4\n", encoding="utf-8")
        code = cli.main([
            "run", "--input", str(scene_dir), "--output", str(tmp_path / "o"),
            "--provider", "table", "--params-table", str(table),
        ])
        assert code == 4
        assert f"{table}: header ['not', 'a', 'params', 'table'] != " in capsys.readouterr().err
        report = report_of(tmp_path / "o")
        assert report["failure_stage"] == "rtm"
        assert report["error"].startswith(f"{table}: header ")

    def test_report_write_failure_exits_6(self, scene_dir, tmp_path, monkeypatch, capsys):
        replace_with_text = pipeline.replace_with_text

        def full_disk(path, text):
            if path.endswith("report.json"):
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return replace_with_text(path, text)

        monkeypatch.setattr(pipeline, "replace_with_text", full_disk)
        out = tmp_path / "o"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 6
        assert "stage export" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(PRODUCT - {"report.json"})

    def test_unwritable_partial_report_keeps_the_failed_stage(self, tmp_path, capsys):
        # the output directory cannot be created over a regular file
        out = tmp_path / "out"
        out.write_text("a file", encoding="utf-8")
        assert cli.main(["run", "--input", str(tmp_path / "missing"), "--output", str(out)]) == 3
        assert "stage ingest" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "a file"

    @pytest.mark.parametrize("name", ["rho_w.hdr", "r_rs.hdr", "band_mask.csv",
                                      "band_params.csv", "report.json"])
    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_failed_text_write_leaves_no_tmp(self, scene_dir, tmp_path, monkeypatch, capsys,
                                             name, step):
        tmp = name + ".tmp"
        if step == "write":
            # the temporary file is created, then its write fails
            def failing(path, *args, **kwargs):
                fh = open(path, *args, **kwargs)
                if path.endswith(tmp):
                    fh.close()
                    raise OSError(errno.ENOSPC, "No space left on device", path)
                return fh

            monkeypatch.setattr(raster, "open", failing, raising=False)
        else:
            replace = os.replace

            def failing(src, dst):
                if src.endswith(tmp):
                    raise OSError(errno.EIO, "Input/output error", src)
                return replace(src, dst)

            monkeypatch.setattr(os, "replace", failing)
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 6
        assert f"{tmp}'" in capsys.readouterr().err
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        if name != "report.json":
            assert report_of(out)["failure_stage"] == "export"

    def test_failed_payload_commit_keeps_the_old_raster(self, tmp_path, monkeypatch, capsys):
        # a 6-row product re-run with a 7-row scene while the rename of
        # r_rs.img fails: r_rs keeps the first run's header and payload
        out = tmp_path / "out"
        first = make_scene_dir(tmp_path / "first")
        assert cli.main(["run", "--input", str(first), "--output", str(out)]) == 0
        old = {name: (out / name).read_bytes() for name in ("r_rs.hdr", "r_rs.img")}
        replace = os.replace

        def failing(src, dst):
            if src.endswith("r_rs.img.tmp"):
                raise OSError(errno.EIO, "Input/output error", src)
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        second = make_scene_dir(tmp_path / "second", rows=7)
        assert cli.main(["run", "--input", str(second), "--output", str(out)]) == 6
        assert "stage export" in capsys.readouterr().err
        assert read_cube(str(out / "r_rs")).n_rows == 6
        assert {name: (out / name).read_bytes() for name in old} == old
        # rasters of different names can still mix: rho_w was committed first
        assert read_cube(str(out / "rho_w")).n_rows == 7
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert report_of(out)["failure_stage"] == "export"

    def test_tile_write_failure_exits_6(self, tmp_path, monkeypatch, capsys):
        rows, cols = 130, 5
        scene = make_scene_dir(tmp_path / "scene", rows=rows)
        pwrite = os.pwrite

        def full_disk(fd, data, offset):
            # every BSQ payload write starts at a row: fail those of the second tile on
            if offset // (cols * 4) % rows >= ROW_TILE:
                raise OSError(errno.ENOSPC, "No space left on device")
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", full_disk)
        out = tmp_path / "out"
        assert cli.main([
            "run", "--input", str(scene), "--output", str(out), "--workers", "1",
        ]) == 6
        assert "stage export" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "export"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_payload_creation_failure_exits_6(self, scene_dir, tmp_path, monkeypatch, capsys):
        # rho_w.img.tmp is created; preallocating r_rs.img.tmp then fails
        ftruncate, calls = os.ftruncate, []

        def full_disk(fd, length):
            calls.append(length)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", full_disk)
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 6
        assert "r_rs.img.tmp" in capsys.readouterr().err
        assert len(calls) == 2
        assert report_of(out)["failure_stage"] == "export"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_commit_failure_deletes_the_payloads(self, scene_dir, tmp_path, monkeypatch,
                                                 capsys):
        # stage 4 has filled both payloads; the commit fails before it writes
        def failing(sink, band_mask, table):
            raise IoFailure("planted commit failure")

        monkeypatch.setattr(pipeline, "write_product", failing)
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 6
        assert "stage export: planted commit failure" in capsys.readouterr().err
        assert report_of(out)["failure_stage"] == "export"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("fault,code,stage,message,workers", [
        ("raise", 5, "inversion", "planted fault in a worker", 2),
        ("io_failure", 6, "export", "planted write failure in a worker", 2),
        ("sigkill", 5, "inversion", f"was killed by signal {int(signal.SIGKILL)}", 2),
        ("raise_while_another_sleeps", 5, "inversion", "planted fault in a worker", 3),
        ("caller_raises_while_a_worker_sleeps", 5, "inversion", "planted fault in the caller",
         2),
    ])
    def test_worker_failure_exits_with_a_partial_report(self, tmp_path, monkeypatch, capsys,
                                                        fault, code, stage, message, workers):
        # 130 rows are the row tiles 0, 64 and 128. At 2 workers the caller
        # runs tiles 0 and 128 and one forked worker tile 64; at 3 workers
        # the caller runs tile 0, and worker 1, whose pipe is read first,
        # tile 64 and worker 2 tile 128.
        scene = make_scene_dir(tmp_path / "scene", rows=130)
        parent = os.getpid()
        write, write_rows = pipeline.ProductSink.write, CubeWriter.write_rows

        def faulty_write(sink, r0, k0, block):
            forked = os.getpid() != parent
            if fault == "raise_while_another_sleeps":
                if r0 == 64:
                    raise ValueError("planted fault in a worker")
                if r0 == 128:
                    time.sleep(60)  # until the parent kills it
            if fault == "caller_raises_while_a_worker_sleeps":
                if not forked:
                    raise ValueError("planted fault in the caller")
                time.sleep(60)  # until the parent kills it
            if forked and fault == "raise":
                raise ValueError("planted fault in a worker")
            if forked and fault == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            return write(sink, r0, k0, block)

        def faulty_write_rows(writer, r0, rows, k0=0):
            if os.getpid() != parent and fault == "io_failure":
                raise IoFailure("planted write failure in a worker")
            return write_rows(writer, r0, rows, k0)

        monkeypatch.setattr(pipeline.ProductSink, "write", faulty_write)
        monkeypatch.setattr(CubeWriter, "write_rows", faulty_write_rows)
        out = tmp_path / "out"
        t0 = time.monotonic()
        assert cli.main([
            "run", "--input", str(scene), "--output", str(out), "--workers", str(workers),
        ]) == code
        assert time.monotonic() - t0 < 30
        assert message in capsys.readouterr().err
        report = report_of(out)
        assert report["failure_stage"] == stage
        assert message in report["error"]
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]  # no *.img.tmp
        assert_no_child_process()

    def test_output_path_not_a_directory_exits_6(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("a file", encoding="utf-8")
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 6
        assert "stage export" in capsys.readouterr().err

    def test_partial_report_names_failed_stage(self, scene_dir, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("garbage\n", encoding="utf-8")
        out = tmp_path / "o"
        cli.main([
            "run", "--input", str(scene_dir), "--output", str(out),
            "--provider", "table", "--params-table", str(table),
        ])
        report = report_of(out)
        assert report["failure_stage"] == "rtm"
        assert report["error"]


class TestCompareCli:
    def _run_and_reference(self, scene_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--input", str(scene_dir), "--output", str(out)]) == 0
        cube = read_cube(str(out / "r_rs"))
        spectrum = cube.data[:, 2, 3].astype(np.float64)
        ref = tmp_path / "ref.csv"
        lines = ["# label: match", "wavelength_nm,value"]
        lines += [f"{w!r},{float(v)!r}" for w, v in zip(cube.wavelengths, spectrum)]
        ref.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out, ref

    def test_reference_equal_to_extraction(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        capsys.readouterr()  # drop the run command's status line
        code = cli.main([
            "compare", "--product", str(out), "--reference", str(ref),
            "--pixel", "2,3",
        ])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["aggregate"]["sam_deg"] == 0.0
        assert result["aggregate"]["rmse"] == 0.0
        assert result["references"]["match"]["n"] == len(BAND_CENTERS)

    @pytest.mark.parametrize("pixel,message", [
        ("-1,-1", "outside"),  # negative indices must not wrap round
        ("99,0", "outside"),
        ("1,2", "nodata"),  # nodata in the input radiance
    ])
    def test_unusable_pixel_exits_3(self, tmp_path, capsys, pixel, message):
        scene = make_scene_dir(tmp_path / "scene", pixels={(3, 1, 2): -9999.0})
        out, ref = self._run_and_reference(scene, tmp_path)
        capsys.readouterr()
        code = cli.main([
            "compare", "--product", str(out), "--reference", str(ref),
            f"--pixel={pixel}",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("body", ["400,0.01\nabc,0.02\n", "400,0.01,7\n", "",
                                      "500,0.01\n450,0.02\n"],
                             ids=["non_numeric", "third_column", "header_only", "decreasing"])
    def test_malformed_reference_exits_3(self, scene_dir, tmp_path, capsys, body):
        out, _ = self._run_and_reference(scene_dir, tmp_path)
        ref = tmp_path / "bad.csv"
        ref.write_text("wavelength_nm,value\n" + body, encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        assert str(ref) in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["{wavelength},nan", "{wavelength},inf", "-inf,{value}"],
                             ids=["nan_value", "inf_value", "minus_inf_wavelength"])
    def test_non_finite_reference_row_exits_3(self, scene_dir, tmp_path, capsys, row):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        lines = ref.read_text(encoding="utf-8").splitlines()
        wavelength, value = lines[3].split(",")  # band 1, 530 nm, inside the window
        lines[3] = row.format(wavelength=wavelength, value=value)
        ref.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        captured = capsys.readouterr()
        assert f"{ref}:4: " in captured.err and "not two finite numbers" in captured.err
        assert captured.out == ""

    def test_product_wavelength_not_one_per_band_exits_3(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        header = out / "r_rs.hdr"
        header.write_text(re.sub(r"wavelength = \{.*\}", "wavelength = 500",
                                 header.read_text(encoding="utf-8"), flags=re.DOTALL),
                          encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        assert "'wavelength'" in capsys.readouterr().err

    def test_product_without_wavelengths_exits_3_naming_the_header(self, scene_dir, tmp_path,
                                                                    capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        header = out / "r_rs.hdr"
        header.write_text(re.sub(r"wavelength = \{.*\}\n", "", header.read_text(encoding="utf-8"),
                                 flags=re.DOTALL), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (f"hsac compare failed: {header}: product header lacks a "
                                "wavelength list\n")
        assert captured.out == ""

    def test_product_nan_wavelength_exits_3_naming_the_header(self, scene_dir, tmp_path,
                                                               capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        header = out / "r_rs.hdr"
        header.write_text(header.read_text(encoding="utf-8").replace("530.000000", "nan"),
                          encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (f"hsac compare failed: {header}: wavelengths must be "
                                "strictly increasing\n")
        assert captured.out == ""

    def test_reference_with_blank_lines(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        argv = ["compare", "--product", str(out), "--pixel", "2,3", "--reference"]
        capsys.readouterr()
        assert cli.main([*argv, str(ref)]) == 0
        plain = json.loads(capsys.readouterr().out)
        spaced = tmp_path / "spaced.csv"
        lines = ref.read_text(encoding="utf-8").splitlines()
        spaced.write_text("\n" + "\n\n  \n".join(lines) + "\n\n", encoding="utf-8")
        assert cli.main([*argv, str(spaced)]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    def test_product_header_error_names_the_header_once(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        header = out / "r_rs.hdr"
        text = header.read_text(encoding="utf-8")
        header.write_text(re.sub(r"samples = \d+", "samples = x", text), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        captured = capsys.readouterr()
        assert f"{header}: header field 'samples' is not an integer: 'x'" in captured.err
        assert captured.err.count(str(header)) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("which", ["reference", "product_header"])
    def test_non_utf8_input_exits_3_naming_the_file(self, scene_dir, tmp_path, capsys, which):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        path = ref if which == "reference" else out / "r_rs.hdr"
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        captured = capsys.readouterr()
        assert f"{path}: not UTF-8 text: " in captured.err
        assert captured.out == ""

    def test_reference_with_a_byte_order_mark(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        argv = ["compare", "--product", str(out), "--pixel", "2,3", "--reference"]
        capsys.readouterr()
        assert cli.main([*argv, str(ref)]) == 0
        plain = json.loads(capsys.readouterr().out)
        # the mark in front of the label line, and in front of the header line
        labelled, unlabelled = tmp_path / "labelled.csv", tmp_path / "unlabelled.csv"
        labelled.write_bytes(b"\xef\xbb\xbf" + ref.read_bytes())
        unlabelled.write_bytes(b"\xef\xbb\xbf" + ref.read_bytes().split(b"\n", 1)[1])
        assert cli.main([*argv, str(labelled)]) == 0
        assert json.loads(capsys.readouterr().out) == plain
        assert cli.main([*argv, str(unlabelled)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["references"] == {"unlabelled.csv": plain["references"]["match"]}
        assert result["aggregate"] == plain["aggregate"]

    @staticmethod
    def _station_copies(ref, tmp_path, labels):
        """Copies of `ref` at x/station.csv and y/station.csv under tmp_path,
        with the given `# label:` lines, or none where the label is empty."""
        body = ref.read_text(encoding="utf-8").split("\n", 1)[1]
        paths = [tmp_path / d / "station.csv" for d in ("x", "y")]
        for path, label in zip(paths, labels):
            path.parent.mkdir()
            path.write_text((f"# label: {label}\n" if label else "") + body, encoding="utf-8")
        return [str(path) for path in paths]

    def test_references_of_one_name_exit_3_naming_both(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        paths = self._station_copies(ref, tmp_path, ("", ""))
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--pixel", "2,3",
                         "--reference", *paths])
        assert code == 3
        captured = capsys.readouterr()
        assert all(path in captured.err for path in paths)
        assert "# label:" in captured.err
        assert captured.out == ""

    def test_references_of_distinct_labels_are_each_reported(self, scene_dir, tmp_path,
                                                             capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        paths = self._station_copies(ref, tmp_path, ("x", "y"))
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--pixel", "2,3",
                         "--reference", *paths])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result["references"]) == {"x", "y"}
        assert result["aggregate"]["n"] == 2 * len(BAND_CENTERS) == sum(
            rep["n"] for rep in result["references"].values())

    def test_product_negative_size_exits_3(self, scene_dir, tmp_path, capsys):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        header = out / "r_rs.hdr"
        header.write_text(re.sub(r"^(samples|lines) = ", r"\1 = -",
                                 header.read_text(encoding="utf-8"), flags=re.MULTILINE),
                          encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["compare", "--product", str(out), "--reference", str(ref),
                         "--pixel", "2,3"])
        assert code == 3
        assert "header field 'samples' must be an integer >= 0" in capsys.readouterr().err

    def test_bad_pixel_argument(self, scene_dir, tmp_path):
        out, ref = self._run_and_reference(scene_dir, tmp_path)
        code = cli.main([
            "compare", "--product", str(out), "--reference", str(ref),
            "--pixel", "nonsense",
        ])
        assert code == 2


class TestSelfTest:
    @pytest.mark.parametrize("aerosol", sorted(aerosol_models()))
    def test_pipeline_self_test_passes(self, aerosol):
        config = RunConfig(aerosol=aerosol)
        passed, max_rel = run_self_test(config)
        assert passed, f"max relative error {max_rel}"
        assert max_rel <= 1e-10
        assert config == RunConfig(aerosol=aerosol)  # the caller's config is left as it was

    def test_synthesized_scene_is_the_per_band_forward_model(self):
        """The synthesized scene holds the bytes of `forward_model_toa` run
        band by band on every bundled band."""
        _, cube, setup, table = pipeline.synthesize_scene(RunConfig(), size=16)
        rho = pipeline.self_test_reflectance(len(table), size=16)
        expected = np.stack([
            forward_model_toa(rho[b], setup.d_squared, BandAtmParams(b, *row))
            for b, row in enumerate(table.tolist())
        ])
        assert len(table) == 228
        assert cube.data.dtype == expected.dtype
        assert cube.data.tobytes() == expected.tobytes()

    def test_cli_self_test_exit_zero(self, capsys):
        assert cli.main(["self-test"]) == 0
        assert "self-test PASS" in capsys.readouterr().out

    def test_cli_self_test_set_up_error_exits_5(self, monkeypatch, capsys):
        # a solar spectrum that does not cover the simulation grid
        monkeypatch.setattr(pipeline, "load_solar_irradiance",
                            lambda: np.array([[400.0, 1.0], [500.0, 1.0]]))
        assert cli.main(["self-test"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("self-test failed: grid [")
        assert err.endswith("] exceeds reference support [400.0, 500.0]\n")

    def test_cli_self_test_has_no_output(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["self-test", "--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()
