"""Five-stage processing pipeline: ingest, configure, per-band RTM,
pixel-wise inversion, export.

Each stage wraps its errors in a StageError naming the stage, so the CLI
can map them to stable exit codes; a partial report naming the failure
stage is still written. The self-test does not go through the stages: it
inverts its synthetic scene in memory with the band table it was
forward-modelled from.
"""

from __future__ import annotations

import contextlib
import datetime
import glob
import json
import math
import os
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, atmosphere, inversion
from .atmosphere import (
    STATE_POLICIES,
    T_G_O3,
    T_G_TOTAL,
    AerosolModel,
    AnalyticProvider,
    AtmosphericState,
    AuxCatalogue,
    BandAtmParams,
    _load_table,
    aerosol_model,
    load_solar_irradiance,
    resolve_atmospheric_state,
    serialize_params_table,
)
from .errors import HsacError, IoFailure
from .inversion import BAND_VALID, forward_model_toa, invert_cube, mask_bands, shared_array
from .metrics import (
    aggregate_reports,
    compare_spectra,
    load_reference_spectrum,
    pixel_spectrum,
)
from .raster import (
    NODATA,
    CubeWriter,
    RadianceCube,
    parse_file,
    read_cube,
    replace_with_text,
    write_cube,
)
from .scene import (
    BandDefinition,
    Geometry,
    SceneMetadata,
    check_band_indices,
    compute_julian_day,
    earth_sun_distance,
    parse_scene_metadata,
)
# srf_for_band is imported for perfbench, which traces hsac.pipeline.srf_for_band
from .spectral import (
    GRID_STEP,
    check_nyquist,
    resample_reference_spectrum,
    simulation_grid,
    srf_for_band,
    srf_table,
)

STAGE_INGEST = "ingest"
STAGE_CONFIGURE = "configure"
STAGE_RTM = "rtm"
STAGE_INVERSION = "inversion"
STAGE_EXPORT = "export"
PROVIDERS = ("analytic", "table")


class StageError(HsacError):
    """Wraps a module error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """The settings of a run; `__post_init__` refuses a value out of range
    and a combination that leaves a setting unread."""

    input_path: str = ""
    output_path: str = ""
    aerosol: str = "Continental"
    tg_threshold: float = 0.85  # mask bands whose t_g_total is below it, in (0, 1]
    clip_negative: bool = False  # set negative rho_w data to 0
    provider: str = "analytic"  # analytic | table
    params_table_path: str | None = None
    aux_catalogue_path: str | None = None
    state_policy: str = "metadata_first"  # metadata_first | catalogue_first
    override_state: AtmosphericState | None = None  # replaces the resolved state
    worker_count: int = 0  # 0 = auto
    divide_total_gas: bool = False  # optional extra-gas correction mode, off by default

    def __post_init__(self):
        for name, value, choices in (("provider", self.provider, PROVIDERS),
                                     ("state policy", self.state_policy, STATE_POLICIES)):
            if value not in choices:
                raise HsacError(f"unknown {name} {value!r}; choose from {', '.join(choices)}")
        if self.provider == "table" and not self.params_table_path:
            raise HsacError("--params-table is required with --provider table")
        if self.params_table_path is not None and self.provider != "table":
            raise HsacError("--params-table is read only with --provider table")
        # RunConfig.state_policy is the field's default
        policy_given = self.state_policy != RunConfig.state_policy
        if self.provider == "table" and (self.aux_catalogue_path or policy_given
                                         or self.override_state is not None):
            raise HsacError("--aux-catalogue, --state-policy, --aod550, --tcwv and --tco3 "
                            "are read only with --provider analytic")
        if self.override_state is not None and (self.aux_catalogue_path or policy_given):
            raise HsacError("--aux-catalogue and --state-policy are not read with "
                            "--aod550, --tcwv and --tco3")
        if policy_given and not self.aux_catalogue_path:
            raise HsacError(f"--state-policy {self.state_policy} is read only with "
                            "--aux-catalogue")
        if self.worker_count < 0:
            raise HsacError("worker count must be positive or 0 (auto)")
        if not 0.0 < self.tg_threshold <= 1.0:  # NaN too
            raise HsacError(f"tg_threshold {self.tg_threshold} outside (0, 1]")

    @property
    def workers(self) -> int:
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            return self.worker_count or len(os.sched_getaffinity(0))
        return self.worker_count or os.cpu_count() or 1


@dataclass
class ProcessingReport:
    scene_id: str = ""
    timings_ms: dict = field(default_factory=dict)
    worker_count: int = 0
    nyquist: dict = field(default_factory=dict)
    masked_bands: dict = field(default_factory=dict)
    negativity_rate: float = 0.0
    degenerate_pixels: int = 0
    nonfinite_pixels: int = 0
    atmospheric_state: dict = field(default_factory=dict)
    provider: str = ""
    srf_sources: dict = field(default_factory=dict)
    failure_stage: str | None = None
    error: str | None = None
    version: str = __version__


def _find_one(directory: str, pattern: str, what: str) -> str:
    """The one file in `directory` matching `pattern`; none or several is an
    error. Glob metacharacters in `directory` match only themselves."""
    matches = sorted(glob.glob(os.path.join(glob.escape(directory), pattern)))
    if not matches:
        raise HsacError(f"no {what} matching {pattern} in {directory}")
    if len(matches) > 1:
        raise HsacError(f"{len(matches)} files match {pattern} in {directory}, one {what} "
                        f"expected: {', '.join(map(os.path.basename, matches))}")
    return matches[0]


def ingest_scene(input_path: str) -> tuple[SceneMetadata, RadianceCube]:
    xml_path = _find_one(input_path, "*.xml", "metadata XML")
    metadata = parse_file(xml_path, parse_scene_metadata)
    hdr_path = _find_one(input_path, "*.hdr", "raster header")
    # the pipeline global, as perfbench traces hsac.pipeline.read_cube
    cube = read_cube(hdr_path[: -len(".hdr")])
    if cube.data.dtype != np.float32:
        raise HsacError(
            f"{hdr_path}: data type {cube.data.dtype} is not float32 radiance; "
            "calibrate the DN to radiance before running hsac"
        )
    if not math.isfinite(cube.nodata_value):
        raise HsacError(f"{hdr_path}: data ignore value {cube.nodata_value} is not finite")
    check_band_indices([b.index for b in metadata.bands], cube.n_bands,
                       f"{xml_path}: {len(metadata.bands)} <band> elements for "
                       f"{cube.n_bands} raster bands")
    if not metadata.bands:
        raise HsacError(f"{xml_path}: no <band> elements")
    for band, listed in zip(metadata.bands, cube.wavelengths or ()):
        if not abs(listed - band.center_wavelength) <= band.fwhm / 2:  # NaN too
            raise HsacError(
                f"{hdr_path}: wavelength {listed} nm of band {band.index} is more than half "
                f"its FWHM ({band.fwhm} nm) from its centre {band.center_wavelength} nm "
                f"in {xml_path}"
            )
    return metadata, cube


def load_bundled_bands() -> list[BandDefinition]:
    return [
        BandDefinition(index=int(idx), center_wavelength=float(center), fwhm=float(fwhm))
        for idx, center, fwhm in _load_table("bands_228.csv")
    ]


@dataclass(frozen=True)
class SceneSetup:
    """What stage 2 derives from scene metadata and a RunConfig, with the
    metadata it was derived from."""

    metadata: SceneMetadata
    state: AtmosphericState | None  # None for a table replay
    model: AerosolModel
    d_squared: float

    def analytic_table(self) -> np.ndarray:
        """The analytic provider's (bands, 6) band table. Only it reads the
        simulation grid, the solar spectrum on that grid and the SRF table."""
        grid = simulation_grid(self.metadata.bands, GRID_STEP)
        # pipeline globals, as perfbench traces AnalyticProvider and load_solar_irradiance
        e0 = resample_reference_spectrum(load_solar_irradiance(), grid)
        provider = AnalyticProvider(grid, self.metadata.geometry, self.state, self.model, e0)
        return provider.band_table(srf_table(self.metadata.bands, grid))


def configure_scene(metadata: SceneMetadata, config: RunConfig) -> SceneSetup:
    """Stage 2: atmospheric state, aerosol model and d^2; the configure
    stage itself checks the bands with `check_nyquist` and the state's tco3.

    The atmospheric state is the config's override state, if it has one,
    and is otherwise resolved for the analytic provider only: a table
    replay reads its parameters from the table, and its state is None.
    """
    state = config.override_state
    if state is None and config.provider == "analytic":
        catalogue = None
        if config.aux_catalogue_path:
            catalogue = parse_file(config.aux_catalogue_path, AuxCatalogue.from_json)
        state = resolve_atmospheric_state(
            metadata, policy=config.state_policy, catalogue=catalogue
        )
    return SceneSetup(
        metadata=metadata,
        state=state,
        model=aerosol_model(config.aerosol),
        d_squared=earth_sun_distance(
            compute_julian_day(metadata.acquisition_date)
        ).d_squared,
    )


class ProductSink:
    """The rasters of an exported product. `open` preallocates them for the
    valid bands before stage 4 and returns the `write` that `invert_cube`
    is given: each finished float64 rho_w block is written as float32 rho_w
    into `rho_w.img.tmp` and as R_rs into `r_rs.img.tmp`, at its BSQ
    offsets. `write_product` commits both; `discard` deletes whatever was
    not committed."""

    def __init__(self, output_path: str, bands: tuple[BandDefinition, ...]):
        self.output_path = output_path
        self.bands = bands
        self.rasters: dict[str, CubeWriter] = {}

    def open(self, valid: list[int], n_rows: int, n_cols: int):
        """Preallocate both payloads for the valid bands; returns `write`."""
        try:
            os.makedirs(self.output_path, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"creating {self.output_path}: {exc}") from exc
        wavelengths = tuple(self.bands[i].center_wavelength for i in valid)
        for name in ("rho_w", "r_rs"):
            self.rasters[name] = CubeWriter(
                os.path.join(self.output_path, name),
                (len(valid), n_rows, n_cols),
                np.float32,
                NODATA,
                wavelengths,
            )
        return self.write

    def write(self, r0: int, k0: int, block: np.ndarray) -> None:
        """Write rows r0.. of valid bands k0.. from a float64 rho_w block."""
        self.rasters["rho_w"].write_rows(r0, block.astype(np.float32), k0)
        # looked up on the module: perfbench traces inversion.to_rrs
        self.rasters["r_rs"].write_rows(r0, inversion.to_rrs(block), k0)

    def discard(self) -> None:
        for writer in self.rasters.values():
            writer.discard()


def write_product(sink: ProductSink, band_mask: list[str], table: np.ndarray) -> None:
    """Commit the rho_w/R_rs rasters the sink was given during the
    inversion, then write the mask CSV and the band table as the params CSV."""
    out, bands = sink.output_path, sink.bands
    for name, writer in sink.rasters.items():
        write_cube(os.path.join(out, name), writer)
    replace_with_text(
        os.path.join(out, "band_mask.csv"),
        "band_index,center_nm,status\n"
        + "".join(f"{i},{bands[i].center_wavelength},{status}\n"
                  for i, status in enumerate(band_mask)),
    )
    replace_with_text(os.path.join(out, "band_params.csv"), serialize_params_table(table))


def run_pipeline(config: RunConfig) -> ProcessingReport:
    """Execute the five stages on the scene directory `config.input_path`,
    exporting the product and its report to `config.output_path`; raises
    StageError naming the failed stage, after writing a partial report
    when it can."""
    report = ProcessingReport(worker_count=config.workers)
    failure = None
    try:
        _run_pipeline(config, report)
    except StageError as exc:
        failure = exc
        report.failure_stage, report.error = exc.stage, str(exc.cause)
    # the one report write, after the export timing is recorded
    try:
        os.makedirs(config.output_path, exist_ok=True)
        replace_with_text(os.path.join(config.output_path, "report.json"),
                          json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        if failure is None:
            raise StageError(STAGE_EXPORT, exc) from exc
    if failure is not None:
        raise failure
    return report


@contextlib.contextmanager
def _stage(report: ProcessingReport, name: str):
    """Time one stage into the report; wrap its errors in a StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        # product rasters are streamed during the inversion: writes fail in export
        raise StageError(STAGE_EXPORT if isinstance(exc, IoFailure) else name, exc) from exc
    finally:
        report.timings_ms[name] = (time.perf_counter() - t0) * 1000.0


def _run_pipeline(config: RunConfig, report: ProcessingReport) -> None:
    # stage 1: ingest
    with _stage(report, STAGE_INGEST):
        metadata, cube = ingest_scene(config.input_path)
        report.scene_id = metadata.scene_id

    # stage 2: configure
    with _stage(report, STAGE_CONFIGURE):
        setup = configure_scene(metadata, config)
        violations = check_nyquist(metadata.bands)
        report.nyquist = {"step": GRID_STEP, "overall": not violations,
                          "violations": list(violations)}
        if violations:
            warnings.warn(
                f"grid step {GRID_STEP} nm violates the Nyquist criterion "
                f"for {len(violations)} bands"
            )
        report.srf_sources = dict(Counter("gaussian" if b.srf is None else "measured"
                                          for b in metadata.bands))
        report.atmospheric_state = asdict(setup.state) if setup.state is not None else {}
        if setup.state is not None and not 100.0 <= setup.state.tco3 <= 600.0:
            warnings.warn(f"tco3 = {setup.state.tco3} DU outside plausible range [100, 600]")

    # stage 3: per-band RTM parameters
    with _stage(report, STAGE_RTM):
        if config.provider == "table":
            # freshly parsed, so the gas division below may edit it in place; looked
            # up on the module, as perfbench traces atmosphere.load_params_table
            n_bands = len(metadata.bands)
            table = parse_file(config.params_table_path,
                               lambda text: atmosphere.load_params_table(text, n_bands))
        else:
            table = setup.analytic_table()
        if config.divide_total_gas:
            # unmasked bands are then corrected for water vapour and oxygen too
            table[:, T_G_O3] = table[:, T_G_TOTAL]
        report.provider = config.provider

    # stage 4 streams the product through a ProductSink and stage 5 commits it;
    # whatever fails before the commit, the sink's payloads are deleted
    sink = ProductSink(config.output_path, metadata.bands)
    try:
        # stage 4: pixel-wise inversion of the valid bands
        with _stage(report, STAGE_INVERSION):
            band_mask = mask_bands(table, config.tg_threshold)
            valid = [i for i, m in enumerate(band_mask) if m == BAND_VALID]
            write = sink.open(valid, cube.n_rows, cube.n_cols)
            pixels = invert_cube(cube, setup.d_squared, table, valid, write,
                                 config.clip_negative, config.workers)
            report.masked_bands = {
                str(i): reason for i, reason in enumerate(band_mask) if reason != BAND_VALID
            }
            report.degenerate_pixels, report.nonfinite_pixels, n_data, n_negative = pixels
            report.negativity_rate = n_negative / n_data if n_data else 0.0

        # stage 5: export
        with _stage(report, STAGE_EXPORT):
            write_product(sink, band_mask, table)
    finally:
        sink.discard()  # a no-op for committed rasters


# --- self-test ------------------------------------------------------------

SELF_TEST_SIZE = 128
SELF_TEST_SEED = 42
# the self-test's bound on the max relative error of rho_w over the valid bands
SELF_TEST_TOLERANCE = 1e-10


def self_test_reflectance(
    n_bands: int, size: int = SELF_TEST_SIZE, seed: int = SELF_TEST_SEED
) -> np.ndarray:
    """The known rho_w cube the synthetic scene is forward-modelled from."""
    return np.random.default_rng(seed).uniform(0.001, 0.4, size=(n_bands, size, size))


def synthesize_scene(
    config: RunConfig, size: int = SELF_TEST_SIZE, seed: int = SELF_TEST_SEED
) -> tuple[SceneMetadata, RadianceCube, SceneSetup, np.ndarray]:
    """Hermetic synthetic scene: the bundled 228-band sensor, set up for an
    analytic `config`, and TOA radiance forward-modelled band by band from
    `self_test_reflectance` with `forward_model_toa` and the scene's
    analytic band table.

    Returns (metadata, radiance cube, setup, band table)."""
    bands = load_bundled_bands()
    metadata = SceneMetadata(
        acquisition_date=datetime.date(2024, 7, 24),
        acquisition_time=11 * 3600.0,
        geometry=Geometry(sza=30.0, saa=145.0, vza=5.0, vaa=100.0),
        aod550=0.12,
        tcwv=2.0,
        tco3=300.0,
        bands=tuple(bands),
        scene_id="self-test",
    )
    setup = configure_scene(metadata, config)
    table = setup.analytic_table()
    rho_true = self_test_reflectance(len(bands), size, seed)
    l_toa = np.empty_like(rho_true)
    for b, row in enumerate(table.tolist()):
        l_toa[b] = forward_model_toa(rho_true[b], setup.d_squared, BandAtmParams(b, *row))
    return metadata, RadianceCube(data=l_toa, nodata_value=NODATA), setup, table


def run_self_test(config: RunConfig) -> tuple[bool, float]:
    """Round trip on the synthetic scene: forward-model it and invert its
    valid bands with the same band table into a float64 array in shared
    memory, so the float64 rho_w is checked.

    Returns (max_rel <= SELF_TEST_TOLERANCE, max_rel), max_rel the max
    relative error over the valid bands."""
    _, cube, setup, table = synthesize_scene(config)
    valid = [i for i, m in enumerate(mask_bands(table, config.tg_threshold)) if m == BAND_VALID]
    rho_w = shared_array((len(valid), cube.n_rows, cube.n_cols))  # forked workers write it

    def write(r0, k0, block):
        rho_w[k0:k0 + len(block), r0:r0 + block.shape[1]] = block

    invert_cube(cube, setup.d_squared, table, valid, write, config.clip_negative,
                config.workers)
    rho_true = self_test_reflectance(len(table))[valid]
    rel = np.abs(rho_w - rho_true) / np.maximum(np.abs(rho_true), 1e-30)
    max_rel = float(rel.max())
    return max_rel <= SELF_TEST_TOLERANCE, max_rel


# --- comparison against reference spectra ---------------------------------

def compare_against_reference(
    product_dir: str,
    reference_files: list[str],
    window: tuple[float, float],
    pixel: tuple[int, int],
) -> dict:
    """Compare the exported R_rs product at one pixel against reference CSVs."""
    r_rs = os.path.join(product_dir, "r_rs")
    cube = read_cube(r_rs)
    try:
        derived = pixel_spectrum(cube, *pixel)
    except HsacError as exc:
        raise HsacError(f"{r_rs}.hdr: {exc}") from exc
    reports, per_reference, paths = [], {}, {}
    for path in reference_files:
        ref = load_reference_spectrum(path)
        name = ref.label or os.path.basename(path)
        if name in paths:
            raise HsacError(f"references {paths[name]} and {path} are both named {name!r}; "
                            "give one a distinct '# label:' line")
        paths[name] = path
        rep = compare_spectra(derived, ref, window)
        reports.append(rep)
        per_reference[name] = asdict(rep)
    return {
        "references": per_reference,
        "aggregate": asdict(aggregate_reports(reports)),
    }
