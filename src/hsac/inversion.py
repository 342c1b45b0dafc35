"""Pixel-wise radiative-transfer inversion: TOA radiance to rho_w and R_rs.

Per pixel, with y = L_TOA * d^2 / T_g_O3 - L_path:

    rho_w = y / (E_s * T_up / pi + S_atm * y)

computed in the 6S coefficient form of `kernels` (one divide per pixel).

Negative rho_w is preserved by default (it diagnoses overcorrection over
dark water); clipping is opt-in. The forward model ships in the library
because it doubles as the synthetic-scene generator of the self-test.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import threading
import warnings
from typing import Callable

import numpy as np

from . import kernels
from .atmosphere import T_G_TOTAL, BandAtmParams, kernel_terms
from .errors import HsacError
from .raster import NODATA, RadianceCube

# A pixel is degenerate when the kernel's unit-free denominator 1 + xc * y'
# is under k * u, u = 2**-53 the float64 unit roundoff, k = 16. At an exact
# zero, the roundings of xa * L, - xb and xc * y' leave it at most
# (2 + |1 - xc * xb|) * u from 0, and a radiance computed from the
# coefficients at the zero, L = (xb - 1 / xc) / xa, adds (1 + 2 |1 - xc * xb|)
# * u (first order, Higham 2002, ch. 3): 16 * u bounds both up to xc * xb = 5.
DENOMINATOR_EPS = 16 * 2.0**-53
# rho_w at or below this is degenerate: no reflectance is this negative, and
# float32 rho_w, or R_rs = rho_w / pi, could otherwise round onto NODATA
NEAR_NODATA = -9998.5
# rho_w above this is degenerate too: its float32 cast would be +inf
FLOAT32_MAX = float(np.finfo(np.float32).max)
ROW_TILE = 64
# pixels of one band block: the float64 block, its denominator and two bool
# masks (18 B a pixel, ~1.2 MB) stay in one core's L2 cache
BLOCK_PIXELS = 1 << 16

# CPython >= 3.12 warns on os.fork() in a process with more than one thread
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead"

BAND_VALID = "valid"
BAND_MASKED_LOW_TG = "masked_low_tg"


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
    plane = np.array(l_toa_plane, dtype=np.float64, order="C")  # a copy: nodata becomes 0.0
    scratch = [np.empty_like(plane), *np.empty((2, *plane.shape), dtype=bool)]
    degenerate, *_ = _invert_block(plane, params.kernel_terms(d_squared), nodata, scratch,
                                   clip_negative=False)
    return plane, degenerate


def forward_model_toa(
    rho_w: np.ndarray,
    d_squared: float,
    params: BandAtmParams,
    nodata: float = NODATA,
) -> np.ndarray:
    """TOA radiance plane from a rho_w plane (inverse of invert_band_plane).

    Pixels equal to `nodata`, and pixels where |1 - S_atm * rho_w| <
    DENOMINATOR_EPS, become `nodata` in the radiance.
    """
    plane = np.ascontiguousarray(rho_w, dtype=np.float64)
    return kernels.forward_plane(plane, *params.kernel_terms(d_squared), nodata, DENOMINATOR_EPS)


def mask_bands(table: np.ndarray, tg_threshold: float) -> list[str]:
    """Per-band mask reason of a band table: a band whose t_g_total is
    strictly below `tg_threshold` is masked, every other band is valid."""
    masked = table[:, T_G_TOTAL] < tg_threshold
    return [BAND_MASKED_LOW_TG if m else BAND_VALID for m in masked.tolist()]


def to_rrs(rho_w: np.ndarray) -> np.ndarray:
    """The float32 R_rs raster: float64 rho_w * (1 / pi) cast once, NODATA kept."""
    out = np.empty(rho_w.shape, dtype=np.float32)
    np.multiply(rho_w, 1.0 / math.pi, out=out, casting="same_kind")
    np.copyto(out, NODATA, where=rho_w == NODATA)
    return out


def _invert_block(block: np.ndarray, terms, nodata_value: float, scratch: list[np.ndarray],
                  clip_negative: bool) -> tuple[int, int, int, int]:
    """The one block step of the inversion, in place on a float64 radiance
    block: the pixels equal to the input's `nodata_value` are marked and
    set to 0.0, so that the kernel sees no sentinel, `kernels.invert_plane`
    turns the block into rho_w with the kernel terms `terms` (xa, xb, xc),
    and the pixel rule and the opt-in clip finish it. `scratch` is a float64
    array and two bool arrays shaped like the block, overwritten here: the
    kernel's denominator, the mask of every NODATA pixel, and a work mask.

    Each pixel is counted in the first class it meets: input nodata,
    whatever the kernel gave it; then degenerate, |denom| < DENOMINATOR_EPS;
    then non-finite rho_w; then rho_w at or below NEAR_NODATA or above
    FLOAT32_MAX, also counted as degenerate. All of them become NODATA, then
    the opt-in clip sets negative data to 0.

    Three reductions decide first whether any pixel can be of the last
    three classes: when denom >= DENOMINATOR_EPS and NEAR_NODATA < rho_w <=
    FLOAT32_MAX hold for every pixel (a NaN fails all three), none is, and
    only the input nodata is set. As the input nodata was set to 0.0, a
    block whose only anomaly is input nodata keeps this fast path.

    Returns the block's (degenerate, non-finite, data, negative) pixel counts.
    """
    denom, nodata, mask = scratch
    np.equal(block, nodata_value, out=nodata)
    n_input = int(np.count_nonzero(nodata))
    if n_input:
        np.copyto(block, 0.0, where=nodata)
    # looked up on the module: perfbench traces kernels.invert_plane
    rho_w, _ = kernels.invert_plane(block, *terms, out=block, denom=denom)
    if (np.min(denom, initial=np.inf) >= DENOMINATOR_EPS
            and np.min(rho_w, initial=np.inf) > NEAR_NODATA
            and np.max(rho_w, initial=-np.inf) <= FLOAT32_MAX):
        n_nonfinite = 0
        n_nodata = n_input
        if n_input:
            np.copyto(rho_w, NODATA, where=nodata)
    else:
        np.less(np.absolute(denom, out=denom), DENOMINATOR_EPS, out=mask)
        # input nodata or degenerate
        n_marked = int(np.count_nonzero(np.logical_or(nodata, mask, out=nodata)))
        np.isfinite(rho_w, out=mask)
        np.logical_not(mask, out=mask)
        n_nonfinite = int(np.count_nonzero(np.logical_or(nodata, mask, out=nodata))) - n_marked
        np.less_equal(rho_w, NEAR_NODATA, out=mask)
        np.logical_or(nodata, mask, out=nodata)
        np.greater(rho_w, FLOAT32_MAX, out=mask)
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
    valid: list[int],
    write: Callable[[int, int, np.ndarray], None],
    clip_negative: bool = False,
    workers: int = 1,
) -> tuple[int, int, int, int]:
    """Invert the bands `valid` of a cube with the parameters of a (bands, 6)
    band table, one row tile at a time, and hand every finished block to
    `write`; returns the pixel account, `_invert_block`'s (degenerate,
    non-finite, data, negative) counts summed over every block.

    One task per row tile of ROW_TILE rows walks the valid bands in blocks
    of g = max(1, BLOCK_PIXELS // (tile rows * cols)) bands. It allocates
    one workspace (a float64 block, a float64 denominator and two bool
    masks) and reuses it for every block: it copies the block's input rows
    into the float64 block, lets `_invert_block` invert it in place with
    the bands' coefficient columns, the cube's nodata value and the opt-in
    clip, and calls `write(r0, k0, block)` with the finished float64 block,
    planes k0.. (bands valid[k0:k0+g]) of rows r0.. . The block is
    overwritten after `write` returns, so a writer copies what it keeps.
    Input nodata, degenerate, non-finite, near-nodata and float32-overflow
    pixels are NODATA in it, each counted once, in that order (see
    `_invert_block`).

    The calling process runs tiles 0, n, 2n, ... and n - 1 forked workers
    the rest (`_in_workers`), n = min(workers, row tiles), or 1 without
    `os.fork` or while another Python thread is alive. With no valid band
    there is no tile, and nothing is forked. With n > 1 `write`
    must write to a file descriptor or to shared memory (`shared_array`).
    Per-pixel arithmetic order is fixed, so the blocks are bit-identical for
    any worker count and block size.
    """
    if len(table) != cube.n_bands:
        raise HsacError(f"{len(table)} parameter sets for {cube.n_bands} bands")
    nodata = cube.nodata_value
    n_valid, n_rows, n_cols = len(valid), cube.n_rows, cube.n_cols
    # the kernel's atmospheric terms, one (valid bands, 1, 1) column each
    columns = kernel_terms(table[valid], d_squared).T[:, :, np.newaxis, np.newaxis]

    def run(tiles: range) -> np.ndarray:
        totals = np.zeros(4, dtype=np.int64)  # degenerate, non-finite, data, negative
        for r0 in tiles:
            rows = min(ROW_TILE, n_rows - r0)
            g = max(1, min(n_valid, BLOCK_PIXELS // max(1, rows * n_cols)))
            shape = (g, rows, n_cols)
            work = np.empty(shape)
            scratch = (np.empty(shape), *np.empty((2, *shape), dtype=bool))
            for k0 in range(0, n_valid, g):
                block_bands = valid[k0:k0 + g]
                n = len(block_bands)
                block = work[:n]
                for j, b in enumerate(block_bands):
                    block[j] = cube.data[b, r0:r0 + rows, :]
                totals += _invert_block(block, [c[k0:k0 + n] for c in columns], nodata,
                                        [a[:n] for a in scratch], clip_negative)
                write(r0, k0, block)
        return totals

    tiles = range(0, n_rows if valid else 0, ROW_TILE)
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = max(1, min(workers, len(tiles))) if forkable else 1
    return tuple(sum(_in_workers(run, tiles, n)).tolist())


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array in anonymous shared memory, so that what forked
    workers write into it is seen by the process that made it."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, size * 8))  # an empty mapping is refused
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)


def _in_workers(run: Callable[[range], np.ndarray], tiles: range, n: int) -> list[np.ndarray]:
    """The accounts run(tiles[k::n]) for k = 0 .. n-1, in that order: this
    process forks workers 1 .. n-1, which send their account over their own
    pipe, and then runs share 0 itself. A worker's exception is raised here
    as its own type once share 0 has run; a worker that ends without a
    result (killed by a signal, say) is an HsacError. Every worker is reaped
    before this returns or raises, and when anything fails, or this process
    is interrupted, the workers left are killed first."""
    pids: list[int] = []  # 0 once reaped
    pipes = []
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                with warnings.catch_warnings():
                    # no Python thread is alive (the caller checks), and the
                    # workers call no BLAS, whose idle threads trigger it
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _worker(run, tiles[k::n], w)
            finally:
                os.close(w)  # in this process; a worker never leaves _worker
            pids.append(pid)
        accounts = [run(tiles[0::n])]
        for k, pid in enumerate(pids):
            payload = pipes[k].read()
            status = os.waitpid(pid, 0)[1]
            pids[k] = 0
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
                raise HsacError(f"inversion worker {pid} {how} before it sent its counts")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            accounts.append(result)
    finally:
        for pid in pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return accounts


def _worker(run: Callable[[range], np.ndarray], tiles: range, fd: int) -> None:
    """The body of a forked worker: sends run(tiles), the one account of its
    tiles, or the exception it raised, pickled to `fd`, and leaves by
    os._exit only, so that nothing of the parent's runs on exit; with 1 if
    it could not send."""
    try:
        try:
            result = run(tiles)
        except BaseException as exc:  # raised again in the parent
            result = exc
        with open(fd, "wb") as pipe:
            pickle.dump(result, pipe)
        os._exit(0)
    finally:
        os._exit(1)
