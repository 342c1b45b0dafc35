"""Per-plane inversion and forward-model kernels (numpy).

The expression order is fixed: products are byte-identical across runs and
worker counts only as long as it does not change.
"""

from __future__ import annotations

import numpy as np

from .raster import NODATA


def invert_plane(l_toa, d_squared, t_g_o3, l_path, coupling_c, s_atm, nodata, eps):
    """rho_w of one plane; input pixels equal to `nodata` and degenerate
    pixels become NODATA. Returns (plane, degenerate pixel count)."""
    nodata_mask = l_toa == nodata
    y = l_toa * d_squared / t_g_o3 - l_path
    denom = coupling_c + s_atm * y
    degenerate_mask = (np.abs(denom) < eps) & ~nodata_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y / denom
    out[degenerate_mask] = NODATA
    out[nodata_mask] = NODATA
    return out, int(np.count_nonzero(degenerate_mask))


def forward_plane(rho_w, d_squared, t_g_o3, l_path, coupling_c, s_atm, nodata, eps):
    nodata_mask = rho_w == nodata
    scale = t_g_o3 / d_squared
    a = 1.0 - s_atm * rho_w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = scale * (l_path + rho_w * coupling_c / a)
    out[np.abs(a) < eps] = nodata
    out[nodata_mask] = nodata
    return out
