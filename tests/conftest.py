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
from hsac.pipeline import load_bundled_bands, simulation_grid
from hsac.spectral import resample_reference_spectrum, srf_for_band


def pytest_collection_modifyitems(config, items):
    """Run every test under tests/ with warnings as errors: a numpy
    RuntimeWarning from a divide or invalid operation outside an errstate is
    the usual sign of a silent NaN. Prepended, so a test's own
    filterwarnings marks still take precedence."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
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
    provider = AnalyticProvider(
        grid228, default_geometry, default_state, continental, e0_228
    )
    return [
        provider.band_params(b, srf_for_band(b, grid228)[0]) for b in bands228
    ]


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
