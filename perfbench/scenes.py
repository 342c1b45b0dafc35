"""Seeded scene generator for the hsac benchmark.

Each scene is a directory holding one scene XML and one ENVI float32
radiance raster, plus a reference R_rs CSV for `hsac compare` at a station
pixel. Radiance is forward-modelled with `hsac.inversion.forward_model_toa`
from a water-like rho_w truth (<= ~0.05 in the visible, near 0 beyond
900 nm) using the same per-band parameters the analytic provider gives the
pipeline, so the program's products can be checked against that truth. About
10 % of each scene is a land mask written as the nodata value.

The truth is never materialised as a cube: a pixel's rho_w is
`amp[r, c] * spectra[cls[r, c], band]`, so the checks rebuild it band by
band and the generator's memory stays at a few planes.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass

import numpy as np

from hsac.atmosphere import (
    AnalyticProvider,
    AtmosphericState,
    BandAtmParams,
    Geometry,
    aerosol_model,
    aerosol_models,
    load_solar_irradiance,
)
from hsac.inversion import forward_model_toa
from hsac.pipeline import load_bundled_bands, simulation_grid
from hsac.scene import compute_julian_day, earth_sun_distance, parse_scene_metadata
from hsac.spectral import resample_reference_spectrum, srf_for_band

NODATA = -9999.0
TG_THRESHOLD = 0.85  # the CLI default, which every run uses
GRID_STEP = 2.5  # the CLI default
N_WATER_TYPES = 16
LAND_FRACTION = 0.10


@dataclass
class Scene:
    """One generated scene and the truth its products are checked against."""

    name: str
    directory: str
    shape: tuple[int, int, int]  # (bands, rows, cols)
    aerosol: str
    params: list[BandAtmParams]
    d_squared: float
    centers: np.ndarray  # band centre wavelengths, nm
    spectra: np.ndarray  # (N_WATER_TYPES, bands) rho_w shapes
    cls: np.ndarray  # (rows, cols) water type per pixel
    amp: np.ndarray  # (rows, cols) amplitude per pixel
    land: np.ndarray  # (rows, cols) bool, nodata in the input
    station: tuple[int, int]  # (row, col) used by `hsac compare`
    replay: bool  # re-run with --provider table

    @property
    def radiance_base(self) -> str:
        return os.path.join(self.directory, "radiance")

    @property
    def reference_csv(self) -> str:
        return os.path.join(self.directory, "station_rrs.csv")

    def truth_band(self, b: int) -> np.ndarray:
        """rho_w truth of band b; land pixels hold meaningless values."""
        return self.amp * self.spectra[:, b][self.cls]

    def valid_bands(self) -> list[int]:
        return [i for i, p in enumerate(self.params) if not p.t_g_total < TG_THRESHOLD]

    def radiance(self) -> np.ndarray:
        """The input raster as (bands, rows, cols), memory-mapped read-only."""
        return np.memmap(self.radiance_base + ".img", dtype="<f4", mode="r", shape=self.shape)


def _water_spectra(rng: np.random.Generator, centers: np.ndarray) -> np.ndarray:
    peak = rng.uniform(0.01, 0.05, N_WATER_TYPES)[:, None]
    mu = rng.uniform(480.0, 580.0, N_WATER_TYPES)[:, None]
    sigma = rng.uniform(60.0, 120.0, N_WATER_TYPES)[:, None]
    shape = np.exp(-0.5 * ((centers[None, :] - mu) / sigma) ** 2)
    nir_damping = np.exp(-np.maximum(centers[None, :] - 700.0, 0.0) / 50.0)
    return (peak * shape + 1e-4) * nir_damping


def _land_mask(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A wiggly coastline down the right edge covering ~LAND_FRACTION."""
    r = np.arange(rows)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    coast = cols * (1.0 - LAND_FRACTION + 0.03 * np.sin(2.0 * math.pi * r / rows * 3.0 + phase))
    coast = np.round(coast).astype(int)
    return np.arange(cols)[None, :] >= coast[:, None]


def _measured_srf_xml(center: float, fwhm: float, skew: float) -> str:
    """A slightly skewed, 1 nm sampled response, as a lab characterisation gives."""
    wl = np.arange(math.floor(center - 2.0 * fwhm), math.ceil(center + 2.0 * fwhm) + 1.0)
    width = np.where(wl < center, fwhm * (1.0 - skew), fwhm * (1.0 + skew))
    resp = np.exp(-4.0 * math.log(2.0) * (wl - center) ** 2 / width**2)
    return " ".join(f"{w:.1f} {v:.6f}" for w, v in zip(wl, resp))


def scene_xml(scene_id: str, date: datetime.date, geometry: dict, state: dict,
              bands, srf_skews=None) -> str:
    rows = []
    for i, b in enumerate(bands):
        srf = ""
        if srf_skews is not None:
            srf = f"<srf>{_measured_srf_xml(b.center_wavelength, b.fwhm, srf_skews[i])}</srf>"
        rows.append(
            f'    <band index="{b.index}"><centerWavelength>{b.center_wavelength!r}'
            f"</centerWavelength><fwhm>{b.fwhm!r}</fwhm>{srf}</band>"
        )
    body = "\n".join(rows)
    return f"""<scene>
  <sceneId>{scene_id}</sceneId>
  <acquisitionDate>{date.isoformat()}</acquisitionDate>
  <acquisitionTime>10:30:00</acquisitionTime>
  <sunZenith>{geometry['sza']!r}</sunZenith>
  <sunAzimuth>{geometry['saa']!r}</sunAzimuth>
  <viewZenith>{geometry['vza']!r}</viewZenith>
  <viewAzimuth>{geometry['vaa']!r}</viewAzimuth>
  <aod550>{state['aod550']!r}</aod550>
  <tcwv>{state['tcwv']!r}</tcwv>
  <tco3>{state['tco3']!r}</tco3>
  <bandCharacterisation>
{body}
  </bandCharacterisation>
</scene>
"""


def _analytic_params(xml: str, aerosol: str):
    """Per-band parameters and d^2 exactly as `hsac run --provider analytic`
    derives them from this XML with the CLI defaults."""
    meta = parse_scene_metadata(xml)
    bands = list(meta.bands)
    grid = simulation_grid(bands, GRID_STEP)
    e0 = resample_reference_spectrum(load_solar_irradiance(), grid)
    state = AtmosphericState(aod550=meta.aod550, tcwv=meta.tcwv, tco3=meta.tco3,
                             source="metadata")
    provider = AnalyticProvider(grid, Geometry.from_metadata(meta), state,
                                aerosol_model(aerosol), e0)
    params = [provider.band_params(b, srf_for_band(b, grid)[0]) for b in bands]
    d2 = earth_sun_distance(compute_julian_day(meta.acquisition_date)).d_squared
    return params, d2


def _write_header(base: str, shape) -> None:
    bands, rows, cols = shape
    with open(base + ".hdr", "w", encoding="utf-8") as fh:
        fh.write(
            "ENVI\n"
            "description = {hsac benchmark scene}\n"
            f"samples = {cols}\nlines = {rows}\nbands = {bands}\n"
            "header offset = 0\nfile type = ENVI Standard\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\n"
            f"data ignore value = {NODATA!r}\n"
        )


def generate_scene(directory: str, name: str, rng: np.random.Generator,
                   rows: int, cols: int, measured_srfs: bool = False,
                   replay: bool = False) -> Scene:
    """Draw one scene from `rng` and write it into `directory`."""
    os.makedirs(directory, exist_ok=True)
    bands = load_bundled_bands()
    centers = np.array([b.center_wavelength for b in bands])
    date = datetime.date(2024, 1, 1) + datetime.timedelta(days=int(rng.integers(0, 366)))
    geometry = {
        "sza": round(float(rng.uniform(20.0, 60.0)), 3),
        "saa": round(float(rng.uniform(90.0, 270.0)), 3),
        "vza": round(float(rng.uniform(0.0, 10.0)), 3),
        "vaa": round(float(rng.uniform(0.0, 360.0)), 3),
    }
    state = {
        "aod550": round(float(rng.uniform(0.05, 0.3)), 4),
        "tcwv": round(float(rng.uniform(1.0, 3.0)), 3),
        "tco3": round(float(rng.uniform(250.0, 350.0)), 1),
    }
    aerosol = sorted(aerosol_models())[int(rng.integers(0, len(aerosol_models())))]
    skews = rng.uniform(-0.15, 0.15, len(bands)) if measured_srfs else None
    xml = scene_xml(name, date, geometry, state, bands, skews)
    with open(os.path.join(directory, "scene.xml"), "w", encoding="utf-8") as fh:
        fh.write(xml)
    params, d2 = _analytic_params(xml, aerosol)

    spectra = _water_spectra(rng, centers)
    block = max(1, min(rows, cols) // 8)
    blocks = rng.integers(0, N_WATER_TYPES, size=(-(-rows // block), -(-cols // block)))
    cls = np.repeat(np.repeat(blocks, block, 0), block, 1)[:rows, :cols].astype(np.uint8)
    amp = rng.uniform(0.6, 1.0, size=(rows, cols))
    land = _land_mask(rng, rows, cols)
    station = (rows // 2, cols // 4)

    scene = Scene(name=name, directory=directory, shape=(len(bands), rows, cols),
                  aerosol=aerosol, params=params, d_squared=d2, centers=centers, spectra=spectra, cls=cls, amp=amp,
                  land=land, station=station, replay=replay)

    base = scene.radiance_base
    _write_header(base, scene.shape)
    out = np.memmap(base + ".img", dtype="<f4", mode="w+", shape=scene.shape)
    for b, p in enumerate(params):
        plane = forward_model_toa(scene.truth_band(b), d2, p, nodata=NODATA).astype(np.float32)
        plane[land] = NODATA
        out[b] = plane
    out.flush()
    del out

    r, c = station
    rrs = amp[r, c] * spectra[cls[r, c]] / math.pi
    with open(scene.reference_csv, "w", encoding="utf-8") as fh:
        fh.write(f"# label: {name}-station\nwavelength_nm,value\n")
        for w, v in zip(centers, rrs):
            fh.write(f"{float(w)!r},{float(v)!r}\n")
    return scene
