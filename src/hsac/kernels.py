"""Per-plane inversion and forward-model kernels (numpy).

The expression order is fixed: products are byte-identical across runs and
worker counts only as long as it does not change.

`invert_plane` and `forward_plane` take one plane, or a block of band planes
with the atmospheric terms as per-band (bands, 1, 1) columns. `invert_plane`
is the arithmetic alone: it decides no pixel's fate, and its NaN, inf and
degenerate values are left for `inversion._finish_block`. A caller that
passes `out` and `denom` gets every intermediate in its own buffers, so the
kernel allocates nothing and can run in place.
"""

from __future__ import annotations

import numpy as np


def invert_plane(l_toa, d_squared, t_g_o3, l_path, coupling_c, s_atm, out=None, denom=None):
    """rho_w of float64 `l_toa`, and the denominator it was divided by.
    Returns (rho_w, denom).

    `out` receives rho_w and may be `l_toa` itself; `denom` is a float64
    array shaped like `l_toa`. Both are allocated when not given.
    """
    if out is None:
        out = np.empty_like(l_toa)
    if denom is None:
        denom = np.empty_like(l_toa)
    with np.errstate(all="ignore"):
        # y = l_toa * d_squared / t_g_o3 - l_path, left to right
        np.multiply(l_toa, d_squared, out=out)
        np.divide(out, t_g_o3, out=out)
        np.subtract(out, l_path, out=out)
        # denom = coupling_c + s_atm * y
        np.multiply(s_atm, out, out=denom)
        np.add(coupling_c, denom, out=denom)
        np.divide(out, denom, out=out)
    return out, denom


def forward_plane(rho_w, d_squared, t_g_o3, l_path, coupling_c, s_atm, nodata, eps):
    """A new array of the TOA radiance of float64 `rho_w`, a plane or a block
    with (bands, 1, 1) term columns, as for `invert_plane`; pixels equal to
    `nodata`, and pixels where |1 - s_atm * rho_w| < eps, become `nodata`."""
    nodata_mask = rho_w == nodata
    scale = t_g_o3 / d_squared
    a = 1.0 - s_atm * rho_w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = scale * (l_path + rho_w * coupling_c / a)
    out[np.abs(a) < eps] = nodata
    out[nodata_mask] = nodata
    return out
