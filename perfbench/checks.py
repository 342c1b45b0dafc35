"""Product checks for the hsac benchmark, run outside the timed interval.

Every check returns a list of problems; an empty list is a pass. The
rho_w tolerance comes from the conditioning of the float32 input, not from
a chosen constant: with y = L d^2 / T_g - L_path and c = E_s T_up / pi,

    d rho / d L = (d^2 / T_g) * c / (c + S_atm y)^2,

so storing L in float32 moves rho by at most that times half an ulp of L,
and writing rho as float32 adds at most half an ulp of rho. The bound
allows one full ulp of each, which also covers the float64 arithmetic of
the inversion (~1e-16 relative).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

from scenes import NODATA, TG_THRESHOLD, Scene

PRODUCT_FILES = ("rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img", "band_mask.csv",
                 "band_params.csv")
COMPARE_WINDOW = (400.0, 900.0)


def read_envi(base: str) -> tuple[dict, np.ndarray]:
    """Header fields and a read-only (bands, rows, cols) view of a BSQ float32 raster."""
    fields = {}
    with open(base + ".hdr", encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                fields[key.strip().lower()] = value.strip()
    shape = (int(fields["bands"]), int(fields["lines"]), int(fields["samples"]))
    if fields.get("data type") != "4" or fields.get("interleave") != "bsq":
        raise ValueError(f"{base}: expected float32 bsq, got {fields}")
    if shape[0] == 0:
        return fields, np.empty(shape, dtype="<f4")
    return fields, np.memmap(base + ".img", dtype="<f4", mode="r", shape=shape)


def _wavelengths(fields: dict) -> list[float]:
    inner = fields.get("wavelength", "{}").strip("{}")
    return [float(w) for w in inner.split(",") if w.strip()]


def rho_bound(scene: Scene, b: int, radiance: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Largest |rho_w product - truth| the float32 input and output allow."""
    p = scene.params[b]
    d2 = scene.d_squared
    lrad = radiance.astype(np.float64)
    c = p.e_s * p.t_up / math.pi
    y = lrad * d2 / p.t_g_o3 - p.l_path
    drho_dl = (d2 / p.t_g_o3) * c / (c + p.s_atm * y) ** 2
    return (np.abs(drho_dl) * np.spacing(np.abs(radiance)).astype(np.float64)
            + np.spacing(np.abs(truth).astype(np.float32)).astype(np.float64))


def _band_table(path: str, column: str) -> dict[int, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {int(row["band_index"]): row[column] for row in csv.DictReader(fh)}


def check_product(scene: Scene, product_dir: str) -> tuple[list[str], int]:
    """(problems, non-finite output pixels) for one `hsac run` product."""
    problems: list[str] = []
    valid = scene.valid_bands()

    status = _band_table(os.path.join(product_dir, "band_mask.csv"), "status")
    t_g_total = _band_table(os.path.join(product_dir, "band_params.csv"), "t_g_total")
    if sorted(status) != list(range(scene.shape[0])) or sorted(t_g_total) != sorted(status):
        problems.append("band_mask.csv / band_params.csv do not list every band once")
        return problems, 0
    for b, s in status.items():
        expected = "masked_low_tg" if float(t_g_total[b]) < TG_THRESHOLD else "valid"
        if s != expected:
            problems.append(f"band {b}: status {s} but t_g_total {t_g_total[b]}")
    if [b for b in sorted(status) if status[b] == "valid"] != valid:
        problems.append("valid bands differ from t_g_total >= threshold of the scene")

    rho_fields, rho = read_envi(os.path.join(product_dir, "rho_w"))
    rrs_fields, rrs = read_envi(os.path.join(product_dir, "r_rs"))
    expected_shape = (len(valid),) + scene.shape[1:]
    for name, fields, cube in (("rho_w", rho_fields, rho), ("r_rs", rrs_fields, rrs)):
        if cube.shape != expected_shape:
            problems.append(f"{name}: shape {cube.shape} != {expected_shape}")
        if float(fields.get("data ignore value", "nan")) != NODATA:
            problems.append(f"{name}: nodata value {fields.get('data ignore value')}")
        if not np.allclose(_wavelengths(fields), scene.centers[valid], rtol=0, atol=1e-6):
            problems.append(f"{name}: header wavelengths are not the valid band centres")
    if problems:
        return problems, 0

    radiance = scene.radiance()
    water = ~scene.land
    nonfinite = 0
    for k, b in enumerate(valid):
        rho_k = np.asarray(rho[k])
        rrs_k = np.asarray(rrs[k])
        nonfinite += int(np.count_nonzero(~np.isfinite(rho_k)))
        nonfinite += int(np.count_nonzero(~np.isfinite(rrs_k)))
        if np.any((rho_k == NODATA) != scene.land) or np.any((rrs_k == NODATA) != scene.land):
            problems.append(f"band {b}: nodata does not match the land mask exactly")
        truth = scene.truth_band(b)
        bound = rho_bound(scene, b, np.asarray(radiance[b]), truth)
        rho64 = rho_k.astype(np.float64)
        err = np.abs(rho64 - truth)
        bad = water & ~(err <= bound)
        if np.any(bad):
            i = np.flatnonzero(bad)[0]
            problems.append(
                f"band {b}: {np.count_nonzero(bad)} rho_w pixels off truth, first "
                f"err {err.flat[i]:.3e} > bound {bound.flat[i]:.3e}")
        rrs64 = rrs_k.astype(np.float64)
        rrs_bound = (np.spacing(np.abs(rrs_k)).astype(np.float64)
                     + np.spacing(np.abs(rho_k)).astype(np.float64) / math.pi)
        bad = water & ~(np.abs(rrs64 - rho64 / math.pi) <= rrs_bound)
        if np.any(bad):
            problems.append(f"band {b}: {np.count_nonzero(bad)} R_rs pixels != rho_w / pi")
        if len(problems) > 20:
            break
    if nonfinite:
        problems.append(f"{nonfinite} non-finite output pixels")
    return problems, nonfinite


def check_compare(scene: Scene, result: dict | None) -> list[str]:
    """The station comparison must agree with the truth to the rho_w bound / pi."""
    if not result:
        return ["compare gave no result"]
    r, c = scene.station
    lo, hi = COMPARE_WINDOW
    bands = [b for b in scene.valid_bands() if lo <= scene.centers[b] <= hi]
    radiance = scene.radiance()
    bounds = []
    for b in bands:
        truth = np.array([scene.amp[r, c] * scene.spectra[scene.cls[r, c], b]])
        rho_b = rho_bound(scene, b, np.asarray(radiance[b, r:r + 1, c]), truth)[0]
        rrs_true = truth[0] / math.pi
        bounds.append(rho_b / math.pi + 2.0 * float(np.spacing(np.float32(rrs_true)))
                      + float(np.spacing(np.float32(truth[0]))) / math.pi)
    agg = result.get("aggregate", {})
    limit = max(bounds) if bounds else 0.0
    problems = []
    if agg.get("n") != len(bands):
        problems.append(f"compare used {agg.get('n')} bands, expected {len(bands)}")
    if not (abs(agg.get("rmse", math.inf)) <= limit and abs(agg.get("bias", math.inf)) <= limit):
        problems.append(f"compare rmse {agg.get('rmse')} / bias {agg.get('bias')} > {limit:.3e}")
    return problems


def product_digests(directory: str) -> dict[str, str]:
    """sha256 of each product file, for the byte-identity checks: table
    replays against their analytic run, later children against the first."""
    digests = {}
    for name in PRODUCT_FILES:
        h = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
        digests[name] = h.hexdigest()
    return digests


def differing(a: dict[str, str], b: dict[str, str], what: str) -> list[str]:
    return [f"{what}: {name} differs" for name in PRODUCT_FILES if a[name] != b[name]]
