"""Simulation wavelength grid, spectral response functions and band convolution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageGap, GridMismatch, InvalidRange
from .scene import WAVELENGTH_MAX, WAVELENGTH_MIN, BandDefinition

DEFAULT_GRID_STEP = 2.5  # nm
GAUSSIAN_HALF_WINDOW = 3.0  # a Gaussian SRF spans center +/- this many FWHM


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform wavelength grid [start, stop] inclusive, step in nm."""

    start: float
    stop: float
    step: float = DEFAULT_GRID_STEP

    def __post_init__(self):
        if self.start >= self.stop:
            raise InvalidRange(f"start {self.start} must be < stop {self.stop}")
        if self.step <= 0:
            raise InvalidRange(f"step must be > 0, got {self.step}")
        n = (self.stop - self.start) / self.step
        if abs(n - round(n)) > 1e-9:
            raise InvalidRange(
                f"(stop - start)/step = {n} is not an integer point count"
            )

    @property
    def n_points(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    @property
    def wavelengths(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_points)

    def index_of(self, wavelength: float) -> int:
        """Index of an on-grid wavelength; GridMismatch when off-grid."""
        pos = (wavelength - self.start) / self.step
        idx = int(round(pos))
        if abs(pos - idx) > 1e-6 or not 0 <= idx < self.n_points:
            raise GridMismatch(f"{wavelength} nm is not a grid point")
        return idx


@dataclass(frozen=True)
class SRF:
    """Sampled spectral response of one band, aligned to a grid sub-range.

    Built by `gaussian_srf` or `measured_srf`: consecutive grid points and
    non-negative responses with a positive maximum.
    """

    band_index: int
    wavelengths: np.ndarray
    responses: np.ndarray


@dataclass(frozen=True)
class NyquistBandCheck:
    band_index: int
    fwhm: float
    threshold: float  # fwhm / 2
    satisfied: bool


@dataclass(frozen=True)
class NyquistReport:
    step: float
    bands: tuple[NyquistBandCheck, ...]
    overall: bool


def check_nyquist(bands: list[BandDefinition], step: float) -> NyquistReport:
    """Per-band check that the grid step is at most half the FWHM (inclusive)."""
    checks = tuple(
        NyquistBandCheck(
            band_index=b.index,
            fwhm=b.fwhm,
            threshold=b.fwhm / 2.0,
            satisfied=step <= b.fwhm / 2.0,
        )
        for b in bands
    )
    return NyquistReport(step=step, bands=checks, overall=all(c.satisfied for c in checks))


def _gaussian_window(band: BandDefinition) -> tuple[float, float]:
    half_window = GAUSSIAN_HALF_WINDOW * band.fwhm
    return band.center_wavelength - half_window, band.center_wavelength + half_window


def _grid_span(grid: SpectralGrid, lo: float, hi: float) -> tuple[int, int]:
    """Indices of the first and last grid point in [lo, hi]; i1 < i0 if none."""
    lo, hi = max(grid.start, lo), min(grid.stop, hi)
    i0 = int(math.ceil((lo - grid.start) / grid.step - 1e-9))
    i1 = int(math.floor((hi - grid.start) / grid.step + 1e-9))
    return i0, i1


def simulation_grid(bands: list[BandDefinition], step: float) -> SpectralGrid:
    """Grid anchored at WAVELENGTH_MIN covering every band's Gaussian window
    and measured SRF support, clipped to [WAVELENGTH_MIN, WAVELENGTH_MAX]."""
    lows, highs = zip(*map(_gaussian_window, bands),
                      *((b.srf[0][0], b.srf[-1][0]) for b in bands if b.srf is not None))
    first = max(0, math.floor((min(lows) - WAVELENGTH_MIN) / step))
    last = min(math.ceil((max(highs) - WAVELENGTH_MIN) / step),
               math.floor((WAVELENGTH_MAX - WAVELENGTH_MIN) / step))
    return SpectralGrid(WAVELENGTH_MIN + step * first, WAVELENGTH_MIN + step * last, step)


def gaussian_srf(band: BandDefinition, grid: SpectralGrid) -> SRF:
    """Gaussian fallback SRF truncated at center +/- GAUSSIAN_HALF_WINDOW * FWHM.

    Sampled on grid points; normalized so the largest sample is exactly 1
    (the grid point nearest the band center).
    """
    i0, i1 = _grid_span(grid, *_gaussian_window(band))
    if i1 < i0:
        i0 = i1 = grid.index_of(
            grid.start + grid.step * round((band.center_wavelength - grid.start) / grid.step)
        )
    wl = grid.start + grid.step * np.arange(i0, i1 + 1)
    resp = np.exp(-4.0 * math.log(2.0) * (wl - band.center_wavelength) ** 2 / band.fwhm**2)
    resp = resp / resp.max()
    return SRF(band_index=band.index, wavelengths=wl, responses=resp)


def measured_srf(band: BandDefinition, grid: SpectralGrid) -> SRF:
    """Resample a measured SRF from metadata onto the grid by linear interpolation."""
    assert band.srf is not None
    wl_in, r_in = map(np.array, zip(*band.srf))
    i0, i1 = _grid_span(grid, wl_in[0], wl_in[-1])
    if i1 < i0:
        raise GridMismatch(
            f"band {band.index}: measured SRF support does not reach any grid point"
        )
    wl = grid.start + grid.step * np.arange(i0, i1 + 1)
    resp = np.interp(wl, wl_in, r_in)
    if resp.max() <= 0:
        raise GridMismatch(f"band {band.index}: resampled SRF is all zero")
    return SRF(band_index=band.index, wavelengths=wl, responses=resp)


def srf_for_band(band: BandDefinition, grid: SpectralGrid) -> tuple[SRF, str]:
    """SRF plus its provenance: measured SRFs take precedence over the Gaussian fallback."""
    if band.srf is not None:
        return measured_srf(band, grid), "measured"
    return gaussian_srf(band, grid), "gaussian"


def convolve_to_band(fine_spectra, srf: SRF, grid: SpectralGrid) -> list[float]:
    """Response-weighted mean over the SRF window of each fine-grid spectrum.

    `fine_spectra` is a sequence of grid-length 1-D arrays. The window and
    the response sum are found once; each mean is its own `np.dot`, so it
    equals the convolution of that spectrum alone, to the bit.
    """
    i0 = grid.index_of(float(srf.wavelengths[0]))
    i1 = grid.index_of(float(srf.wavelengths[-1]))
    if i1 - i0 + 1 != len(srf.wavelengths):
        raise GridMismatch("SRF samples are not consecutive grid points")
    total = np.sum(srf.responses)
    return [float(np.dot(s[i0 : i1 + 1], srf.responses) / total) for s in fine_spectra]


def resample_reference_spectrum(reference, grid: SpectralGrid) -> np.ndarray:
    """Linear interpolation of a tabulated reference spectrum onto the grid.

    `reference` is any (n, 2) array-like of (wavelength, value) rows, such
    as the table `load_solar_irradiance` returns or a list of pairs.
    """
    wl, values = np.asarray(reference, dtype=np.float64).T
    if np.any(np.diff(wl) <= 0):
        raise InvalidRange("reference wavelengths must be strictly increasing")
    if grid.start < wl[0] - 1e-9 or grid.stop > wl[-1] + 1e-9:
        raise CoverageGap(
            f"grid [{grid.start}, {grid.stop}] exceeds reference support "
            f"[{wl[0]}, {wl[-1]}]"
        )
    return np.interp(grid.wavelengths, wl, values)
