"""Pixel-wise radiative-transfer inversion: TOA radiance to rho_w and R_rs.

Per pixel, with y = L_TOA * d^2 / T_g_O3 - L_path:

    rho_w = y / (E_s * T_up / pi + S_atm * y)

Negative rho_w is preserved by default (it diagnoses overcorrection over
dark water); clipping is opt-in. The forward model ships in the library
because it doubles as the synthetic-scene generator of the self-test.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .atmosphere import T_G_TOTAL, BandAtmParams, kernel_terms
from .errors import LengthMismatch, OutOfRange
from .raster import NODATA, RadianceCube

DENOMINATOR_EPS = 1e-12
# rho_w at or below this is degenerate: no reflectance is this negative, and
# float32 rho_w, or R_rs = rho_w / pi, could otherwise round onto NODATA
NEAR_NODATA = -9998.5
ROW_TILE = 64
# pixels of one band block: the float64 block, its denominator and two bool
# masks (18 B a pixel, ~1.2 MB) stay in one core's L2 cache
BLOCK_PIXELS = 1 << 16

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

    The rule of `invert_cube`, on one plane, without the clip: pixels equal
    to the input's `nodata`, degenerate pixels and non-finite rho_w become
    NODATA, so the plane equals `invert_cube`'s for every input.
    """
    if d_squared <= 0:
        raise OutOfRange(f"d_squared must be > 0, got {d_squared}")
    plane = np.ascontiguousarray(l_toa_plane, dtype=np.float64)
    masks = (np.equal(plane, nodata), np.empty(plane.shape, dtype=bool))
    rho_w, denom = kernels.invert_plane(plane, d_squared, *params.kernel_terms)
    degenerate, *_ = _finish_block(rho_w, denom, masks, clip_negative=False)
    return rho_w, degenerate


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
    plane = np.ascontiguousarray(rho_w, dtype=np.float64)
    return kernels.forward_plane(plane, d_squared, *params.kernel_terms, nodata, DENOMINATOR_EPS)


def mask_bands(table: np.ndarray, policy: MaskPolicy) -> list[str]:
    """Per-band mask reason of a band table: strict-less comparison of
    t_g_total against the threshold."""
    masked = table[:, T_G_TOTAL] < policy.tg_threshold
    return [BAND_MASKED_LOW_TG if m else BAND_VALID for m in masked.tolist()]


def to_rrs(rho_w: np.ndarray) -> np.ndarray:
    """The float32 R_rs raster: float64 rho_w / pi cast once, NODATA kept."""
    out = np.empty(rho_w.shape, dtype=np.float32)
    np.divide(rho_w, math.pi, out=out, casting="same_kind")
    out[rho_w == NODATA] = NODATA
    return out


BlockWriter = Callable[[int, int, np.ndarray], None]


def _finish_block(rho_w: np.ndarray, denom: np.ndarray,
                  masks: tuple[np.ndarray, np.ndarray],
                  clip_negative: bool) -> tuple[int, int, int, int]:
    """The pixel rule of the inversion, on one block of `kernels.invert_plane`
    output in place: `denom` is the kernel's denominator, overwritten here,
    and `masks` two bool arrays shaped like the block, the first holding the
    input's nodata pixels on entry and every NODATA pixel on return.

    Each pixel is counted in the first class it meets: input nodata; then
    degenerate, |denom| < DENOMINATOR_EPS; then non-finite rho_w; then rho_w
    at or below NEAR_NODATA, also counted as degenerate. All of them become
    NODATA, then the opt-in clip sets negative data to 0.

    Returns the block's (degenerate, non-finite, data, negative) pixel counts.
    """
    nodata, mask = masks
    n_input = int(np.count_nonzero(nodata))
    np.less(np.absolute(denom, out=denom), DENOMINATOR_EPS, out=mask)
    # input nodata or degenerate
    n_marked = int(np.count_nonzero(np.logical_or(nodata, mask, out=nodata)))
    np.isfinite(rho_w, out=mask)
    np.logical_not(mask, out=mask)
    n_nonfinite = int(np.count_nonzero(np.logical_or(nodata, mask, out=nodata))) - n_marked
    np.less_equal(rho_w, NEAR_NODATA, out=mask)
    n_nodata = int(np.count_nonzero(np.logical_or(nodata, mask, out=nodata)))
    np.copyto(rho_w, NODATA, where=nodata)
    np.less(rho_w, 0.0, out=mask)  # the negative data and every NODATA pixel
    n_negative = int(np.count_nonzero(mask)) - n_nodata
    if clip_negative:
        np.logical_xor(mask, nodata, out=mask)
        np.copyto(rho_w, 0.0, where=mask)
    return n_nodata - n_input - n_nonfinite, n_nonfinite, rho_w.size - n_nodata, n_negative


def invert_cube(
    cube: RadianceCube,
    d_squared: float,
    table: np.ndarray,
    policy: MaskPolicy | None = None,
    workers: int = 1,
    open_sink: Callable[[list[int], int, int], BlockWriter] | None = None,
) -> ReflectanceProduct:
    """Invert the valid bands of a cube with the parameters of a (bands, 6)
    band table, one row tile at a time.

    One task per row tile of ROW_TILE rows walks the valid bands in blocks
    of g = max(1, BLOCK_PIXELS // (tile rows * cols)) bands. It allocates
    one workspace (a float64 block, a float64 denominator and two bool
    masks) and reuses it for every block: it copies the block's input rows
    into the float64 block, marks the pixels equal to the cube's nodata
    value, inverts the block in place with `kernels.invert_plane`, lets
    `_finish_block` apply the one pixel rule and the opt-in clip, and hands
    the finished block (valid bands k0..k0+g-1 of rows r0..) to a sink as
    `write(r0, k0, block)`, from its worker thread. The block is overwritten
    after `write` returns, so a sink copies what it keeps.
    `open_sink(valid band indices, rows, cols)` is called once before the
    pool and returns that `write`; the product's rho_w is then None.
    Without it, the blocks fill one in-memory float64 array, returned as
    rho_w. Input nodata, degenerate, non-finite and near-nodata pixels are
    NODATA in it, each counted once, in that order (see `_finish_block`).
    Per-pixel arithmetic order is fixed, so results are bit-identical for
    any worker count and block size.
    """
    policy = policy or MaskPolicy()
    if len(table) != cube.n_bands:
        raise LengthMismatch(
            f"{len(table)} parameter sets for {cube.n_bands} bands"
        )
    if d_squared <= 0:
        raise OutOfRange(f"d_squared must be > 0, got {d_squared}")
    nodata = cube.nodata_value
    band_mask = mask_bands(table, policy)
    valid = [i for i, m in enumerate(band_mask) if m == BAND_VALID]
    n_valid, n_rows, n_cols = len(valid), cube.n_rows, cube.n_cols
    # the kernel's atmospheric terms, one (valid bands, 1, 1) column each
    columns = kernel_terms(table[valid]).T[:, :, np.newaxis, np.newaxis]
    if open_sink is None:
        rho_w = np.empty((n_valid, n_rows, n_cols), dtype=np.float64)

        def write(r0, k0, block):
            rho_w[k0:k0 + len(block), r0:r0 + block.shape[1]] = block
    else:
        rho_w, write = None, open_sink(valid, n_rows, n_cols)

    def run(r0):
        rows = min(ROW_TILE, n_rows - r0)
        g = max(1, min(n_valid, BLOCK_PIXELS // max(1, rows * n_cols)))
        shape = (g, rows, n_cols)
        work = np.empty(shape)
        scratch = (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        totals = np.zeros(4, dtype=np.int64)  # degenerate, non-finite, data, negative
        for k0 in range(0, n_valid, g):
            block_bands = valid[k0:k0 + g]
            n = len(block_bands)
            block, denom, *masks = (a[:n] for a in (work, *scratch))
            for j, b in enumerate(block_bands):
                block[j] = cube.data[b, r0:r0 + rows, :]
            np.equal(block, nodata, out=masks[0])  # before the kernel overwrites the block
            kernels.invert_plane(block, d_squared, *(c[k0:k0 + n] for c in columns),
                                 out=block, denom=denom)
            totals += _finish_block(block, denom, masks, policy.clip_negative)
            write(r0, k0, block)
        return totals.tolist()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        tiles = pool.map(run, range(0, n_rows, ROW_TILE))
        # the zero row makes the sums 0 for a cube without rows
        degenerate, n_nonfinite, n_data, n_negative = map(sum, zip((0, 0, 0, 0), *tiles))

    report = InversionReport(
        negativity_rate=(n_negative / n_data) if n_data else 0.0,
        degenerate_pixels=degenerate,
        nonfinite_pixels=n_nonfinite,
    )
    return ReflectanceProduct(
        rho_w=rho_w,
        band_mask=band_mask,
        report=report,
    )
