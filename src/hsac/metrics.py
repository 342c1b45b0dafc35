"""Spectral validation statistics: SAM, RMSE, Bias, Std.

Std uses population normalization (divide by n) so RMSE^2 == Bias^2 + Std^2
holds exactly. Reference spectra are resampled onto the derived wavelengths
(never the other way round) so the derived product stays untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HsacError
from .raster import RadianceCube, read_text


@dataclass(frozen=True)
class SpectrumSample:
    wavelengths: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.wavelengths) != len(self.values):
            raise HsacError("wavelength/value lengths differ")
        if not np.all(np.diff(self.wavelengths) > 0):  # a NaN fails too
            raise HsacError("wavelengths must be strictly increasing")


@dataclass(frozen=True)
class ComparisonReport:
    sam_deg: float
    rmse: float
    bias: float
    std: float
    n: int
    window: tuple[float, float]


def spectral_angle(a: SpectrumSample, b: SpectrumSample) -> float:
    """Angle in degrees between two spectra sharing a wavelength grid."""
    if len(a.values) != len(b.values) or not np.allclose(
        a.wavelengths, b.wavelengths
    ):
        raise HsacError("spectra are not on a common wavelength grid; align first")
    va, vb = np.asarray(a.values, float), np.asarray(b.values, float)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise HsacError("spectral angle undefined for a zero spectrum")
    if np.array_equal(va, vb):
        # exact identity must not pick up acos rounding noise
        return 0.0
    cos = float(np.dot(va, vb) / (na * nb))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def error_stats(
    derived: SpectrumSample, reference: SpectrumSample, window=(float("-inf"), float("inf"))
) -> ComparisonReport:
    """RMSE / Bias / Std of derived minus reference on a shared grid."""
    if len(derived.values) != len(reference.values):
        raise HsacError("spectra must be aligned before computing statistics")
    n = len(derived.values)
    if n < 2:
        raise HsacError(f"need at least 2 shared samples, have {n}")
    e = np.asarray(derived.values, float) - np.asarray(reference.values, float)
    bias = float(np.mean(e))
    rmse = float(np.sqrt(np.mean(e * e)))
    std = float(np.sqrt(np.mean((e - bias) ** 2)))
    return ComparisonReport(
        sam_deg=spectral_angle(derived, reference),
        rmse=rmse,
        bias=bias,
        std=std,
        n=n,
        window=(float(window[0]), float(window[1])),
    )


def align_spectra(
    derived: SpectrumSample, reference: SpectrumSample, window: tuple[float, float]
) -> tuple[SpectrumSample, SpectrumSample]:
    """Resample the reference onto derived wavelengths inside the window.

    Pairs outside either spectrum's support or the window are dropped.
    """
    lo, hi = window
    if not lo < hi:  # NaN too
        raise HsacError(f"window start {lo} must be < stop {hi}")
    wl = np.asarray(derived.wavelengths, float)
    ref_wl = np.asarray(reference.wavelengths, float)
    keep = (wl >= lo) & (wl <= hi) & (wl >= ref_wl[0]) & (wl <= ref_wl[-1])
    if not np.any(keep):
        raise HsacError(f"no shared wavelengths in window [{lo}, {hi}]")
    wl_out = wl[keep]
    ref_values = np.interp(wl_out, ref_wl, np.asarray(reference.values, float))
    return (
        SpectrumSample(wl_out, np.asarray(derived.values, float)[keep], derived.label),
        SpectrumSample(wl_out, ref_values, reference.label),
    )


def compare_spectra(
    derived: SpectrumSample, reference: SpectrumSample, window: tuple[float, float]
) -> ComparisonReport:
    d, r = align_spectra(derived, reference, window)
    return error_stats(d, r, window=window)


def pixel_spectrum(cube: RadianceCube, row: int, col: int) -> SpectrumSample:
    """Spectrum of an exported product raster at one pixel, by header wavelength.

    A pixel outside the raster, or one where any band holds the header's
    nodata value, is an error.
    """
    if cube.wavelengths is None:
        raise HsacError("product header lacks a wavelength list")
    if not (0 <= row < cube.n_rows and 0 <= col < cube.n_cols):
        raise HsacError(f"pixel ({row}, {col}) outside the {cube.n_rows}x{cube.n_cols} raster")
    values = cube.data[:, row, col].astype(np.float64)
    nodata = np.flatnonzero(values == cube.nodata_value)
    if nodata.size:
        raise HsacError(f"pixel ({row}, {col}) is nodata at {cube.wavelengths[nodata[0]]} nm")
    return SpectrumSample(
        np.asarray(cube.wavelengths), values, label=f"pixel({row},{col})"
    )


def load_reference_spectrum(path: str) -> SpectrumSample:
    """CSV `wavelength_nm,value`; an optional `# label:` comment names it.
    A row that is not two finite numbers, a wavelength not greater than the
    previous row's, or no data row, is an error naming the file and line."""
    label = ""
    wl, values = [], []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].strip().lower().startswith("label:"):
                label = line.split(":", 1)[1].strip()
            continue
        if line.lower().startswith("wavelength"):
            continue
        try:
            w, v = map(float, line.split(","))
            if not (math.isfinite(w) and math.isfinite(v)):
                raise ValueError
        except ValueError:
            raise HsacError(
                f"{path}:{line_no}: {line!r} is not two finite numbers") from None
        if wl and w <= wl[-1]:
            raise HsacError(f"{path}:{line_no}: wavelength {w:g} nm is not greater "
                            f"than the previous row's {wl[-1]:g} nm")
        wl.append(w)
        values.append(v)
    if not wl:
        raise HsacError(f"{path}: no data rows")
    return SpectrumSample(np.asarray(wl), np.asarray(values), label=label)


def aggregate_reports(reports: list[ComparisonReport]) -> ComparisonReport:
    """Unweighted mean of each statistic across references."""
    if not reports:
        raise HsacError("nothing to aggregate")
    return ComparisonReport(
        sam_deg=float(np.mean([r.sam_deg for r in reports])),
        rmse=float(np.mean([r.rmse for r in reports])),
        bias=float(np.mean([r.bias for r in reports])),
        std=float(np.mean([r.std for r in reports])),
        n=int(sum(r.n for r in reports)),
        window=reports[0].window,
    )
