import datetime
import os
from pathlib import Path

import numpy as np
import pytest

from hsac.atmosphere import (
    AnalyticProvider,
    AtmosphericState,
    BandAtmParams,
    Geometry,
    aerosol_model,
    load_solar_irradiance,
)
from hsac.inversion import BAND_VALID, invert_cube, mask_bands, shared_array
from hsac.pipeline import RunConfig, load_bundled_bands, simulation_grid
from hsac.raster import RadianceCube, write_cube
from hsac.scene import SceneMetadata
from hsac.spectral import resample_reference_spectrum, srf_table


def pytest_collection_modifyitems(config, items):
    """Run every test under tests/ with warnings as errors: a numpy
    RuntimeWarning from a divide or invalid operation outside an errstate is
    the usual sign of a silent NaN. Prepended, so a test's own
    filterwarnings marks still take precedence.

    hypothesis's pytest plugin raises a DeprecationWarning of its own while
    it reports a failing @given test; that one is ignored, or the report
    would be an INTERNALERROR instead of the falsifying example. Prepended
    before "error", it is applied after it and wins."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
                append=False)
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def bands228():
    return load_bundled_bands()


@pytest.fixture(scope="session")
def default_geometry():
    return Geometry(sza=30.0, saa=145.0, vza=5.0, vaa=100.0)


@pytest.fixture(scope="session")
def default_state():
    return AtmosphericState(aod550=0.12, tcwv=2.0, tco3=300.0, source="metadata")


@pytest.fixture(scope="session")
def continental():
    return aerosol_model("Continental")


@pytest.fixture(scope="session")
def grid228(bands228):
    return simulation_grid(bands228, 2.5)


@pytest.fixture(scope="session")
def e0_228(grid228):
    return resample_reference_spectrum(load_solar_irradiance(), grid228)


@pytest.fixture(scope="session")
def params228(bands228, grid228, e0_228, default_geometry, default_state, continental):
    """The (228, 6) band table of the bundled sensor."""
    provider = AnalyticProvider(
        grid228, default_geometry, default_state, continental, e0_228
    )
    return provider.band_table(srf_table(bands228, grid228))


def random_params(rng: np.random.Generator, band_index: int = 0) -> BandAtmParams:
    """A physically valid random parameter set for round-trip tests."""
    return BandAtmParams(
        band_index=band_index,
        l_path=float(rng.uniform(0.0, 0.5)),
        t_g_o3=float(rng.uniform(0.3, 1.0)),
        t_g_total=float(rng.uniform(0.3, 1.0)),
        t_up=float(rng.uniform(0.3, 1.0)),
        s_atm=float(rng.uniform(0.0, 0.3)),
        e_s=float(rng.uniform(0.5, 2.0)),
    )


def table_of(params: list[BandAtmParams]) -> np.ndarray:
    """The (bands, 6) band table of one-band records, in the given order."""
    return np.array([p.row for p in params], dtype=np.float64).reshape(-1, 6)


def invert_in_memory(cube: RadianceCube, d_squared: float, table: np.ndarray,
                     tg_threshold: float = RunConfig.tg_threshold,
                     clip_negative: bool = False, workers: int = 1):
    """`invert_cube` of the bands `tg_threshold` leaves valid, its blocks written
    into one float64 array in shared memory, which forked workers can write:
    returns (rho_w, pixel account, valid bands), the account being
    `invert_cube`'s (degenerate, non-finite, data, negative) counts."""
    valid = [i for i, m in enumerate(mask_bands(table, tg_threshold)) if m == BAND_VALID]
    rho_w = shared_array((len(valid), cube.n_rows, cube.n_cols))

    def write(r0, k0, block):
        rho_w[k0:k0 + len(block), r0:r0 + block.shape[1]] = block

    account = invert_cube(cube, d_squared, table, valid, write, clip_negative, workers)
    return rho_w, account, valid


def assert_no_child_process() -> None:
    """This process has no child left, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_scene_dir(path: Path, metadata: SceneMetadata, cube: RadianceCube) -> Path:
    """A scene directory `ingest_scene` reads: `metadata` as scene XML and
    the radiance as a float32 BSQ raster. Measured SRFs are not written."""
    time = datetime.datetime.min + datetime.timedelta(seconds=metadata.acquisition_time)
    fields = {
        "sceneId": metadata.scene_id,
        "acquisitionDate": metadata.acquisition_date.isoformat(),
        "acquisitionTime": time.time().isoformat(),
        "sunZenith": repr(metadata.geometry.sza),
        "sunAzimuth": repr(metadata.geometry.saa),
        "viewZenith": repr(metadata.geometry.vza),
        "viewAzimuth": repr(metadata.geometry.vaa),
        "aod550": repr(metadata.aod550),
        "tcwv": repr(metadata.tcwv),
        "tco3": repr(metadata.tco3),
    }
    bands = "".join(
        f'<band index="{b.index}"><centerWavelength>{b.center_wavelength!r}'
        f"</centerWavelength><fwhm>{b.fwhm!r}</fwhm></band>"
        for b in metadata.bands
    )
    path.mkdir()
    (path / "scene.xml").write_text(
        "<scene>" + "".join(f"<{k}>{v}</{k}>" for k, v in fields.items())
        + f"<bandCharacterisation>{bands}</bandCharacterisation></scene>",
        encoding="utf-8",
    )
    write_cube(str(path / "radiance"),
               RadianceCube(data=cube.data.astype(np.float32), nodata_value=cube.nodata_value))
    return path
