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
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, inversion, kernels
from .atmosphere import (
    T_G_O3,
    T_G_TOTAL,
    AerosolModel,
    AnalyticProvider,
    AtmosphericState,
    AuxCatalogue,
    Geometry,
    TableProvider,
    _load_table,
    aerosol_model,
    kernel_terms,
    load_solar_irradiance,
    resolve_atmospheric_state,
    serialize_params_table,
)
from .errors import (
    HsacError,
    IoFailure,
    LengthMismatch,
    MissingBand,
    MissingField,
    OutOfRange,
    UnsupportedDataType,
)
from .inversion import (
    BAND_VALID,
    DENOMINATOR_EPS,
    MaskPolicy,
    invert_cube,
)
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
    read_cube,
    read_text,
    replace_with_text,
    write_cube,
)
from .scene import (
    BandDefinition,
    SceneMetadata,
    compute_julian_day,
    earth_sun_distance,
    parse_scene_metadata,
)
# srf_for_band is imported for perfbench, which traces hsac.pipeline.srf_for_band
from .spectral import (
    GRID_STEP,
    NyquistReport,
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


class StageError(HsacError):
    """Wraps a module error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    input_path: str = ""
    output_path: str = ""
    aerosol: str = "Continental"
    mask: MaskPolicy = MaskPolicy()
    provider: str = "analytic"  # analytic | table
    params_table_path: str | None = None
    aux_catalogue_path: str | None = None
    state_policy: str = "metadata_first"  # metadata_first | catalogue_first
    override_state: AtmosphericState | None = None  # replaces the resolved state
    worker_count: int = 0  # 0 = auto
    divide_total_gas: bool = False  # optional extra-gas correction mode, off by default

    def __post_init__(self):
        if self.provider == "table" and not self.params_table_path:
            raise MissingField("--params-table is required with --provider table")
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
            raise OutOfRange("worker count must be positive or 0 (auto)")

    @property
    def workers(self) -> int:
        return self.worker_count or (os.cpu_count() or 1)


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
    """The one file in `directory` matching `pattern`; none or several is an error."""
    matches = sorted(glob.glob(os.path.join(directory, pattern)))
    if not matches:
        raise MissingField(f"no {what} matching {pattern} in {directory}")
    if len(matches) > 1:
        raise HsacError(f"{len(matches)} files match {pattern} in {directory}, one {what} "
                        f"expected: {', '.join(map(os.path.basename, matches))}")
    return matches[0]


def _parse_file(path: str, parse):
    """parse(the text of the file at path); an error in the text names the file."""
    text = read_text(path)
    try:
        return parse(text)
    except HsacError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def ingest_scene(input_path: str) -> tuple[SceneMetadata, RadianceCube]:
    xml_path = _find_one(input_path, "*.xml", "metadata XML")
    metadata = _parse_file(xml_path, parse_scene_metadata)
    hdr_path = _find_one(input_path, "*.hdr", "raster header")
    cube = read_cube(hdr_path[: -len(".hdr")])
    if cube.data.dtype != np.float32:
        raise UnsupportedDataType(
            f"{hdr_path}: data type {cube.data.dtype} is not float32 radiance; "
            "calibrate the DN to radiance before running hsac"
        )
    if not math.isfinite(cube.nodata_value):
        raise OutOfRange(
            f"{hdr_path}: data ignore value {cube.nodata_value} is not finite"
        )
    indices = [b.index for b in metadata.bands]
    expected = range(cube.n_bands)
    if indices != list(expected):
        problems = {
            "missing": sorted(set(expected) - set(indices)),
            "unexpected": sorted(set(indices) - set(expected)),
            "duplicated": sorted(i for i, n in Counter(indices).items() if n > 1),
        }
        raise LengthMismatch(
            f"{xml_path}: {len(indices)} <band> elements for {cube.n_bands} raster bands; "
            f"band indices must be 0..{cube.n_bands - 1}: "
            + ", ".join(f"{k} {v}" for k, v in problems.items() if v)
        )
    if not indices:
        raise MissingBand(f"{xml_path}: no <band> elements")
    return metadata, cube


def load_bundled_bands() -> list[BandDefinition]:
    return [
        BandDefinition(index=int(idx), center_wavelength=float(center), fwhm=float(fwhm))
        for idx, center, fwhm in _load_table("bands_228.csv")
    ]


@dataclass(frozen=True)
class SceneSetup:
    """Everything stage 2 derives from scene metadata and a RunConfig."""

    bands: list[BandDefinition]
    geometry: Geometry
    state: AtmosphericState | None  # None for a table replay
    model: AerosolModel
    nyquist: NyquistReport
    d_squared: float

    def analytic_table(self) -> np.ndarray:
        """The analytic provider's (bands, 6) band table. Only it reads the
        simulation grid, the solar spectrum on that grid and the SRF table."""
        grid = simulation_grid(self.bands, GRID_STEP)
        # pipeline globals, as perfbench traces AnalyticProvider and load_solar_irradiance
        e0 = resample_reference_spectrum(load_solar_irradiance(), grid)
        provider = AnalyticProvider(grid, self.geometry, self.state, self.model, e0)
        return provider.band_table(srf_table(self.bands, grid))


def configure_scene(metadata: SceneMetadata, config: RunConfig) -> SceneSetup:
    """Stage 2: geometry, atmospheric state, the Nyquist check and d^2.

    The atmospheric state is the config's override state, if it has one,
    and is otherwise resolved for the analytic provider only: a table
    replay reads its parameters from the table, and its state is None.
    """
    bands = list(metadata.bands)
    state = config.override_state
    if state is None and config.provider == "analytic":
        catalogue = None
        if config.aux_catalogue_path:
            catalogue = _parse_file(config.aux_catalogue_path, AuxCatalogue.from_json)
        state = resolve_atmospheric_state(
            metadata, policy=config.state_policy, catalogue=catalogue
        )
    return SceneSetup(
        bands=bands,
        geometry=Geometry.from_metadata(metadata),
        state=state,
        model=aerosol_model(config.aerosol),
        nyquist=check_nyquist(bands, GRID_STEP),
        d_squared=earth_sun_distance(
            compute_julian_day(metadata.acquisition_date)
        ).d_squared,
    )


class ProductSink:
    """The rasters of an exported product: each finished float64 rho_w
    block is written as float32 rho_w into `rho_w.img.tmp` and as R_rs
    into `r_rs.img.tmp`, at its BSQ offsets. `write_product` commits both;
    `discard` deletes whatever was not committed."""

    def __init__(self, output_path: str, bands: list[BandDefinition]):
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
    try:
        for name, writer in sink.rasters.items():
            write_cube(os.path.join(out, name), writer)
        replace_with_text(
            os.path.join(out, "band_mask.csv"),
            "band_index,center_nm,status\n"
            + "".join(f"{i},{bands[i].center_wavelength},{status}\n"
                      for i, status in enumerate(band_mask)),
        )
        replace_with_text(os.path.join(out, "band_params.csv"), serialize_params_table(table))
    except OSError as exc:
        raise IoFailure(f"writing product to {out}: {exc}") from exc
    finally:
        sink.discard()  # a no-op for committed rasters


def write_report(report: ProcessingReport, output_path: str) -> None:
    os.makedirs(output_path, exist_ok=True)
    replace_with_text(
        os.path.join(output_path, "report.json"),
        json.dumps(asdict(report), indent=2, sort_keys=True) + "\n",
    )


def run_pipeline(config: RunConfig) -> ProcessingReport:
    """Execute the five stages on the scene directory `config.input_path`,
    exporting the product and its report to `config.output_path`; raises
    StageError naming the failed stage (after writing a partial report when
    the output directory is known)."""
    report = ProcessingReport(worker_count=config.workers)
    try:
        return _run_pipeline(config, report)
    except StageError as exc:
        report.failure_stage = exc.stage
        report.error = str(exc.cause)
        if config.output_path:
            try:
                write_report(report, config.output_path)
            except OSError:
                pass
        raise


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


def _run_pipeline(config: RunConfig, report: ProcessingReport) -> ProcessingReport:
    # stage 1: ingest
    with _stage(report, STAGE_INGEST):
        metadata, cube = ingest_scene(config.input_path)
        report.scene_id = metadata.scene_id

    # stage 2: configure
    with _stage(report, STAGE_CONFIGURE):
        setup = configure_scene(metadata, config)
        nyquist = setup.nyquist
        report.nyquist = {
            "step": nyquist.step,
            "overall": nyquist.overall,
            "violations": list(nyquist.violations),
        }
        if not nyquist.overall:
            import warnings

            warnings.warn(
                f"grid step {GRID_STEP} nm violates the Nyquist criterion "
                f"for {len(report.nyquist['violations'])} bands"
            )
        report.srf_sources = dict(Counter("gaussian" if b.srf is None else "measured"
                                          for b in setup.bands))
        report.atmospheric_state = asdict(setup.state) if setup.state is not None else {}

    # stage 3: per-band RTM parameters
    with _stage(report, STAGE_RTM):
        if config.provider == "table":
            # freshly parsed, so the gas division below may edit it in place
            table = _parse_file(config.params_table_path,
                                lambda text: TableProvider.from_csv(text, len(setup.bands))).table
        else:
            table = setup.analytic_table()
        if config.divide_total_gas:
            # unmasked bands are then corrected for water vapour and oxygen too
            table[:, T_G_O3] = table[:, T_G_TOTAL]
        report.provider = config.provider

    # stage 4: pixel-wise inversion, streaming the rasters through a ProductSink
    with _stage(report, STAGE_INVERSION):
        sink = ProductSink(config.output_path, setup.bands)
        try:
            product = invert_cube(cube, setup.d_squared, table, config.mask,
                                  workers=config.workers, open_sink=sink.open)
        except BaseException:
            sink.discard()
            raise
        report.masked_bands = {
            str(i): reason for i, reason in enumerate(product.band_mask) if reason != BAND_VALID
        }
        report.negativity_rate = product.report.negativity_rate
        report.degenerate_pixels = product.report.degenerate_pixels
        report.nonfinite_pixels = product.report.nonfinite_pixels

    # stage 5: export
    with _stage(report, STAGE_EXPORT):
        write_product(sink, product.band_mask, table)
    # written after the export timing is recorded, so it includes it
    try:
        write_report(report, config.output_path)
    except OSError as exc:
        raise StageError(STAGE_EXPORT, exc) from exc
    return report


# --- self-test ------------------------------------------------------------

SELF_TEST_SIZE = 128
SELF_TEST_SEED = 42


def self_test_reflectance(
    n_bands: int, size: int = SELF_TEST_SIZE, seed: int = SELF_TEST_SEED
) -> np.ndarray:
    """The known rho_w cube the synthetic scene is forward-modelled from."""
    return np.random.default_rng(seed).uniform(0.001, 0.4, size=(n_bands, size, size))


def synthesize_scene(
    config: RunConfig, size: int = SELF_TEST_SIZE, seed: int = SELF_TEST_SEED
) -> tuple[SceneMetadata, RadianceCube, SceneSetup, np.ndarray]:
    """Hermetic synthetic scene: the bundled 228-band sensor, set up for an
    analytic `config`, and TOA radiance forward-modelled from
    `self_test_reflectance` with the scene's analytic band table.

    Returns (metadata, radiance cube, setup, band table)."""
    bands = load_bundled_bands()
    metadata = SceneMetadata(
        acquisition_date=datetime.date(2024, 7, 24),
        acquisition_time=11 * 3600.0,
        sza=30.0,
        saa=145.0,
        vza=5.0,
        vaa=100.0,
        aod550=0.12,
        tcwv=2.0,
        tco3=300.0,
        bands=tuple(bands),
        scene_id="self-test",
    )
    setup = configure_scene(metadata, config)
    table = setup.analytic_table()
    rho_true = self_test_reflectance(len(bands), size, seed)
    columns = kernel_terms(table).T[:, :, np.newaxis, np.newaxis]
    l_toa = kernels.forward_plane(rho_true, setup.d_squared, *columns, NODATA, DENOMINATOR_EPS)
    return metadata, RadianceCube(data=l_toa, nodata_value=NODATA), setup, table


def run_self_test(config: RunConfig, tolerance: float = 1e-10) -> tuple[bool, float]:
    """Round trip on the synthetic scene: forward-model it and invert it
    with the same band table, in memory, so the float64 rho_w is checked.

    Returns (passed, max relative error over valid bands)."""
    _, cube, setup, table = synthesize_scene(config)
    product = invert_cube(cube, setup.d_squared, table, config.mask, workers=config.workers)
    rho_true = self_test_reflectance(len(table))[product.valid_band_indices]
    rel = np.abs(product.rho_w - rho_true) / np.maximum(np.abs(rho_true), 1e-30)
    max_rel = float(rel.max())
    return max_rel <= tolerance, max_rel


# --- comparison against reference spectra ---------------------------------

def compare_against_reference(
    product_dir: str,
    reference_files: list[str],
    window: tuple[float, float],
    pixel: tuple[int, int],
) -> dict:
    """Compare the exported R_rs product at one pixel against reference CSVs."""
    derived = pixel_spectrum(read_cube(os.path.join(product_dir, "r_rs")), *pixel)
    reports = []
    per_reference = {}
    for path in reference_files:
        ref = load_reference_spectrum(path)
        rep = compare_spectra(derived, ref, window)
        reports.append(rep)
        per_reference[ref.label or os.path.basename(path)] = asdict(rep)
    return {
        "references": per_reference,
        "aggregate": asdict(aggregate_reports(reports)),
    }
