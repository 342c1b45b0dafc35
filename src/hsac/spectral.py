"""Simulation wavelength grid, spectral response functions and band convolution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HsacError
from .scene import WAVELENGTH_MAX, WAVELENGTH_MIN, BandDefinition

# The bundled tables are tabulated at 340 + 2.5 k nm, so a grid anchored at
# WAVELENGTH_MIN with this step lies on their nodes.
GRID_STEP = 2.5  # nm
GAUSSIAN_HALF_WINDOW = 3.0  # a Gaussian SRF spans center +/- this many FWHM


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform wavelength grid [start, stop] inclusive, step in nm."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.start >= self.stop:
            raise HsacError(f"start {self.start} must be < stop {self.stop}")
        if self.step <= 0:
            raise HsacError(f"step must be > 0, got {self.step}")
        n = (self.stop - self.start) / self.step
        if abs(n - round(n)) > 1e-9:
            raise HsacError(f"(stop - start)/step = {n} is not an integer point count")

    @property
    def n_points(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    @property
    def wavelengths(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_points)


@dataclass(frozen=True)
class SRFTable:
    """The SRFs of a list of bands on one grid, row b for band b: its
    length[b] samples at grid points start[b], start[b] + 1, ... fill the
    first length[b] columns of responses[b], and exact zeros the rest."""

    responses: np.ndarray  # (bands, width) float64
    start: np.ndarray  # (bands,) int
    length: np.ndarray  # (bands,) int


def check_nyquist(bands: list[BandDefinition]) -> tuple[int, ...]:
    """The index of each band, in list order, that the simulation grid
    undersamples: GRID_STEP must be at most half of a band's FWHM
    (inclusive), so a band with GRID_STEP > fwhm / 2 violates it."""
    index = np.array([b.index for b in bands], dtype=np.intp)
    fwhm = np.array([b.fwhm for b in bands])
    return tuple(index[GRID_STEP > fwhm / 2.0].tolist())


def _grid_span(grid: SpectralGrid, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first and last grid point in [lo, hi], elementwise over
    arrays of bounds; i1 < i0 where there is none."""
    lo, hi = np.maximum(grid.start, lo), np.minimum(grid.stop, hi)
    i0 = np.ceil((lo - grid.start) / grid.step - 1e-9).astype(np.intp)
    i1 = np.floor((hi - grid.start) / grid.step + 1e-9).astype(np.intp)
    return i0, i1


def simulation_grid(bands: list[BandDefinition], step: float) -> SpectralGrid:
    """Grid anchored at WAVELENGTH_MIN covering every band's Gaussian window
    and measured SRF support, clipped to [WAVELENGTH_MIN, WAVELENGTH_MAX]."""
    center = np.array([b.center_wavelength for b in bands])
    half_window = GAUSSIAN_HALF_WINDOW * np.array([b.fwhm for b in bands])
    srfs = [b.srf for b in bands if b.srf is not None]
    lo = min([(center - half_window).min(), *(srf[0, 0] for srf in srfs)])
    hi = max([(center + half_window).max(), *(srf[-1, 0] for srf in srfs)])
    first = max(0, math.floor((lo - WAVELENGTH_MIN) / step))
    last = min(math.ceil((hi - WAVELENGTH_MIN) / step),
               math.floor((WAVELENGTH_MAX - WAVELENGTH_MIN) / step))
    return SpectralGrid(WAVELENGTH_MIN + step * first, WAVELENGTH_MIN + step * last, step)


def srf_table(bands: list[BandDefinition], grid: SpectralGrid) -> SRFTable:
    """The SRF of every band on the grid; a measured SRF takes precedence
    over the Gaussian fallback.

    Gaussian rows come from one elementwise pass: the response at each grid
    point of center +/- GAUSSIAN_HALF_WINDOW * FWHM, normalized so that the
    largest sample (the one nearest the center) is exactly 1. A window that
    falls between two grid points keeps that nearest point alone. A measured
    SRF is resampled onto the grid points of its support by linear
    interpolation, one band at a time.
    """
    measured = np.array([b.srf is not None for b in bands], dtype=bool)
    center = np.array([b.center_wavelength for b in bands])
    fwhm = np.array([b.fwhm for b in bands])
    lo = center - GAUSSIAN_HALF_WINDOW * fwhm
    hi = center + GAUSSIAN_HALF_WINDOW * fwhm
    for b in np.flatnonzero(measured):
        lo[b], hi[b] = bands[b].srf[0, 0], bands[b].srf[-1, 0]
    start, last = _grid_span(grid, lo, hi)
    between = ~measured & (last < start)
    start[between] = last[between] = np.rint((center[between] - grid.start) / grid.step)
    length = last - start + 1
    wavelengths = grid.wavelengths
    responses = np.zeros((len(bands), length.max(initial=0)))

    gauss = np.flatnonzero(~measured)
    if len(gauss):
        columns = np.arange(length[gauss].max())
        inside = columns < length[gauss, None]
        points = np.minimum(start[gauss, None] + columns, len(wavelengths) - 1)
        offset = wavelengths[points] - center[gauss, None]
        # squared by C pow, as Python's float ** squares: np.power's vector
        # loop and fwhm * fwhm differ from it in the last bit of some values
        fwhm_squared = np.float_power(fwhm[gauss, None], 2)
        resp = np.exp(-4.0 * math.log(2.0) * offset**2 / fwhm_squared)
        resp = np.where(inside, resp, 0.0)
        # a lone point is the peak, also where its response underflows to 0
        resp[between[gauss], 0] = 1.0
        responses[gauss, :len(columns)] = resp / resp.max(axis=1, keepdims=True)

    for b in np.flatnonzero(measured):
        band = bands[b]
        if last[b] < start[b]:
            raise HsacError(
                f"band {band.index}: measured SRF support does not reach any grid point"
            )
        resp = np.interp(wavelengths[start[b]:last[b] + 1], band.srf[:, 0], band.srf[:, 1])
        if resp.max() <= 0:
            raise HsacError(f"band {band.index}: resampled SRF is all zero")
        responses[b, :length[b]] = resp
    return SRFTable(responses, start, length)


def srf_for_band(band: BandDefinition, grid: SpectralGrid) -> tuple[SRFTable, str]:
    """One band's one-row `srf_table` plus its provenance; the row equals
    that band's row of any table it is in, to the bit."""
    return srf_table([band], grid), "measured" if band.srf is not None else "gaussian"


def convolve(fine_spectra: np.ndarray, srfs: SRFTable) -> np.ndarray:
    """(bands, k) response-weighted means over each SRF's grid slice of the
    k columns of a (grid points, k) array.

    The sums run over the table's columns from left to right, one
    multiply-add per column for all bands at once. A padding column adds
    an exact zero, so a band's means do not depend on the other bands in
    the table.
    """
    columns = srfs.responses.shape[1]
    points = np.minimum(srfs.start[:, None] + np.arange(columns), len(fine_spectra) - 1)
    samples = fine_spectra[points]  # (bands, columns, k)
    weighted = np.zeros((len(srfs.start), fine_spectra.shape[1]))
    total = np.zeros((len(srfs.start), 1))
    for j in range(columns):
        w = srfs.responses[:, j:j + 1]
        weighted += w * samples[:, j]
        total += w
    return weighted / total


def resample_reference_spectrum(reference, grid: SpectralGrid) -> np.ndarray:
    """Linear interpolation of a tabulated reference spectrum onto the grid.

    `reference` is any (n, 2) array-like of (wavelength, value) rows, such
    as the table `load_solar_irradiance` returns or a list of pairs.
    """
    wl, values = np.asarray(reference, dtype=np.float64).T
    if not np.all(np.diff(wl) > 0):  # a NaN fails too
        raise HsacError("reference wavelengths must be strictly increasing")
    if grid.start < wl[0] - 1e-9 or grid.stop > wl[-1] + 1e-9:
        raise HsacError(
            f"grid [{grid.start}, {grid.stop}] exceeds reference support "
            f"[{wl[0]}, {wl[-1]}]"
        )
    return np.interp(grid.wavelengths, wl, values)
