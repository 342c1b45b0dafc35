"""Per-plane inversion and forward-model kernels (numpy), in the 6S
coefficient form (Vermote et al., 1997):

    y' = xa * L_TOA - xb,    rho_w = y' / (1 + xc * y')

with xa = d^2 / (T_g_O3 * c), xb = L_path / c, xc = S_atm and
c = E_s * T_up / pi, computed once per band by `atmosphere.kernel_terms`.

The expression order is fixed: products are byte-identical across runs and
worker counts only as long as it does not change.

`invert_plane` takes one plane, or a block of band planes with the
coefficients as per-band (bands, 1, 1) columns; `forward_plane` takes one
plane. `invert_plane` is the arithmetic alone: it decides no pixel's
fate, and its NaN, inf and degenerate values are left for
`inversion._invert_block`. Every intermediate goes to the caller's `out`
and `denom`, so the kernel allocates nothing and can run in place.
"""

from __future__ import annotations

import numpy as np


def invert_plane(l_toa, xa, xb, xc, out, denom):
    """rho_w of float64 `l_toa`, and the unit-free denominator 1 + xc * y'
    it was divided by. Returns (rho_w, denom).

    `out` receives rho_w and may be `l_toa` itself; `denom` is a float64
    array shaped like `l_toa`.
    """
    with np.errstate(all="ignore"):
        np.multiply(l_toa, xa, out=out)
        np.subtract(out, xb, out=out)
        np.multiply(xc, out, out=denom)
        np.add(denom, 1.0, out=denom)
        np.divide(out, denom, out=out)
    return out, denom


def forward_plane(rho_w, xa, xb, xc, nodata, eps):
    """A new array of the TOA radiance (xb + rho_w / (1 - xc * rho_w)) / xa
    of a float64 `rho_w` plane; pixels equal to `nodata`, and pixels where
    |1 - xc * rho_w| < eps, become `nodata`."""
    nodata_mask = rho_w == nodata
    a = 1.0 - xc * rho_w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (xb + rho_w / a) / xa
    out[np.abs(a) < eps] = nodata
    out[nodata_mask] = nodata
    return out
