"""Pixel-wise radiative-transfer inversion: TOA radiance to rho_w and R_rs.

Per pixel, with y = L_TOA * d^2 / T_g_O3 - L_path:

    rho_w = y / (E_s * T_up / pi + S_atm * y)

Negative rho_w is preserved by default (it diagnoses overcorrection over
dark water); clipping is opt-in. The forward model ships in the library
because it doubles as the synthetic-scene generator for self-test mode.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .atmosphere import BandAtmParams
from .errors import LengthMismatch, OutOfRange
from .raster import NODATA, RadianceCube

DENOMINATOR_EPS = 1e-12
ROW_TILE = 64

BAND_VALID = "valid"
BAND_MASKED_LOW_TG = "masked_low_tg"


@dataclass(frozen=True)
class MaskPolicy:
    """Band exclusion policy: mask when t_g_total < tg_threshold (strict)."""

    tg_threshold: float = 0.85
    clip_negative: bool = False

    def __post_init__(self):
        if not 0.0 < self.tg_threshold <= 1.0:
            raise OutOfRange(f"tg_threshold {self.tg_threshold} outside (0, 1]")


@dataclass
class InversionReport:
    negativity_rate: float = 0.0
    degenerate_pixels: int = 0
    nonfinite_pixels: int = 0
    masked_bands: dict[int, str] = field(default_factory=dict)


@dataclass
class ReflectanceProduct:
    """rho_w planes of the valid bands, with band mask and report.

    Plane k of rho_w is band valid_band_indices[k]; masked bands are not
    stored. R_rs is not stored either: `to_rrs` derives it at export.
    rho_w is None when the tiles went to a sink instead (see invert_cube);
    otherwise its nodata pixels hold NODATA.
    """

    rho_w: np.ndarray | None  # (valid bands, rows, cols) float64
    band_mask: list[str]  # BAND_VALID | BAND_MASKED_LOW_TG per band
    report: InversionReport

    @property
    def valid_band_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.band_mask) if m == BAND_VALID]


def invert_band_plane(
    l_toa_plane: np.ndarray,
    d_squared: float,
    params: BandAtmParams,
    nodata: float = NODATA,
) -> tuple[np.ndarray, int]:
    """Invert one band plane; returns (rho_w plane, degenerate pixel count).

    Pixels equal to the input's `nodata` and degenerate pixels become NODATA.
    """
    if d_squared <= 0:
        raise OutOfRange(f"d_squared must be > 0, got {d_squared}")
    coupling_c = params.e_s * params.t_up / math.pi
    plane = np.ascontiguousarray(l_toa_plane, dtype=np.float64)
    return kernels.invert_plane(
        plane,
        d_squared,
        params.t_g_o3,
        params.l_path,
        coupling_c,
        params.s_atm,
        nodata,
        DENOMINATOR_EPS,
    )


def forward_model_toa(
    rho_w: np.ndarray,
    d_squared: float,
    params: BandAtmParams,
    nodata: float = NODATA,
) -> np.ndarray:
    """TOA radiance plane from a rho_w plane (inverse of invert_band_plane).

    Pixels equal to `nodata`, and pixels where S_atm * rho_w == 1, become
    `nodata` in the radiance.
    """
    if d_squared <= 0:
        raise OutOfRange(f"d_squared must be > 0, got {d_squared}")
    coupling_c = params.e_s * params.t_up / math.pi
    plane = np.ascontiguousarray(rho_w, dtype=np.float64)
    return kernels.forward_plane(
        plane,
        d_squared,
        params.t_g_o3,
        params.l_path,
        coupling_c,
        params.s_atm,
        nodata,
        DENOMINATOR_EPS,
    )


def mask_bands(params: list[BandAtmParams], policy: MaskPolicy) -> list[str]:
    """Per-band mask reason: strict-less comparison against the threshold."""
    return [
        BAND_MASKED_LOW_TG if p.t_g_total < policy.tg_threshold else BAND_VALID
        for p in params
    ]


def to_rrs(rho_w: np.ndarray) -> np.ndarray:
    """The float32 R_rs raster: float64 rho_w / pi cast once, NODATA kept."""
    out = np.empty(rho_w.shape, dtype=np.float32)
    np.divide(rho_w, math.pi, out=out, casting="same_kind")
    out[rho_w == NODATA] = NODATA
    return out


TileWriter = Callable[[int, np.ndarray], None]


def _finish_tile(tile: np.ndarray, clip_negative: bool) -> tuple[int, int, int]:
    """Non-finite rho_w to NODATA, then the opt-in clip, on one tile in place.

    Returns the tile's (non-finite, data, negative) pixel counts.
    """
    nonfinite = ~np.isfinite(tile)
    tile[nonfinite] = NODATA
    data = tile != NODATA
    negative = data & (tile < 0)
    if clip_negative:
        tile[negative] = 0.0
    return tuple(int(np.count_nonzero(m)) for m in (nonfinite, data, negative))


def invert_cube(
    cube: RadianceCube,
    d_squared: float,
    params: list[BandAtmParams],
    policy: MaskPolicy | None = None,
    workers: int = 1,
    open_sink: Callable[[list[int], int, int], TileWriter] | None = None,
) -> ReflectanceProduct:
    """Invert the valid bands of a cube, one row tile at a time.

    One task per row tile inverts every valid band into a float64 tile,
    then sets its non-finite rho_w to NODATA, counts its non-finite, data
    and negative pixels, applies the opt-in clip, and hands the finished
    tile to a sink as `write(r0, tile)`, from its worker thread.
    `open_sink(valid band indices, rows, cols)` is called once before the
    pool and returns that `write`; the product's rho_w is then None.
    Without it, the tiles fill one in-memory float64 array, returned as
    rho_w. Input pixels equal to the cube's nodata value become NODATA.
    Per-pixel arithmetic order is fixed, so results are bit-identical for
    any worker count.
    """
    policy = policy or MaskPolicy()
    if len(params) != cube.n_bands:
        raise LengthMismatch(
            f"{len(params)} parameter sets for {cube.n_bands} bands"
        )
    nodata = cube.nodata_value
    band_mask = mask_bands(params, policy)
    valid = [i for i, m in enumerate(band_mask) if m == BAND_VALID]
    n_rows, n_cols = cube.n_rows, cube.n_cols
    if open_sink is None:
        rho_w = np.empty((len(valid), n_rows, n_cols), dtype=np.float64)

        def write(r0, tile):
            rho_w[:, r0:r0 + ROW_TILE] = tile
    else:
        rho_w, write = None, open_sink(valid, n_rows, n_cols)

    def run(r0):
        tile = np.empty((len(valid), min(ROW_TILE, n_rows - r0), n_cols))
        degenerate = 0
        for k, b in enumerate(valid):
            tile[k], count = invert_band_plane(
                cube.data[b, r0:r0 + ROW_TILE, :], d_squared, params[b], nodata
            )
            degenerate += count
        counts = _finish_tile(tile, policy.clip_negative)
        write(r0, tile)
        return degenerate, *counts

    with ThreadPoolExecutor(max_workers=workers) as pool:
        tiles = pool.map(run, range(0, n_rows, ROW_TILE))
        # the zero row makes the sums 0 for a cube without rows
        degenerate, n_nonfinite, n_data, n_negative = map(sum, zip((0, 0, 0, 0), *tiles))

    report = InversionReport(
        negativity_rate=(n_negative / n_data) if n_data else 0.0,
        degenerate_pixels=degenerate,
        nonfinite_pixels=n_nonfinite,
        masked_bands={
            i: m for i, m in enumerate(band_mask) if m != BAND_VALID
        },
    )
    return ReflectanceProduct(
        rho_w=rho_w,
        band_mask=band_mask,
        report=report,
    )
