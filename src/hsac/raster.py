"""ENVI-style raster reading and writing.

Two-file convention: a text header (.hdr) describing dimensions, data type
and interleave, next to a raw payload, little-endian from byte 0 (byte order
and header offset 0). Data types are 4 (float32) and 12 (uint16); interleaves
bsq and bil. Cubes are always returned in canonical band-sequential order.

Payloads are never copied: `read_cube` maps the payload file read-only
(a BIL payload is returned as a transposed view of the mapping), so only
the pages a caller touches are read, and `write_cube` writes the array
from its own buffer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    HeaderPayloadMismatch,
    IoFailure,
    UnsupportedDataType,
    UnsupportedInterleave,
)

DEFAULT_NODATA = -9999.0

_DTYPE_CODES = {4: np.dtype("<f4"), 12: np.dtype("<u2")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 4, np.dtype("uint16"): 12}


@dataclass
class RadianceCube:
    """Band-sequential raster: data has shape (n_bands, n_rows, n_cols)."""

    data: np.ndarray
    nodata_value: float = DEFAULT_NODATA
    wavelengths: tuple[float, ...] | None = None

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_rows(self) -> int:
        return self.data.shape[1]

    @property
    def n_cols(self) -> int:
        return self.data.shape[2]


def parse_envi_header(text: str) -> dict:
    """Parse an ENVI header into a key -> string/list dict (keys lowercased)."""
    fields: dict = {}
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if not line or line.upper() == "ENVI" or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if value.startswith("{"):
            while "}" not in value:
                value += " " + next(lines).strip()
            inner = value[value.index("{") + 1 : value.index("}")]
            fields[key] = [v.strip() for v in inner.split(",") if v.strip()]
        else:
            fields[key] = value
    return fields


def read_cube(base_path: str) -> RadianceCube:
    """Map `base_path`.hdr + `base_path`.img (or `base_path` raw) read-only."""
    img = base_path + ".img" if os.path.exists(base_path + ".img") else base_path
    with open(base_path + ".hdr", encoding="utf-8") as fh:
        fields = parse_envi_header(fh.read())
    try:
        samples = int(fields["samples"])
        lines = int(fields["lines"])
        bands = int(fields["bands"])
        dtype_code = int(fields["data type"])
        interleave = str(fields["interleave"]).lower()
    except KeyError as exc:
        raise HeaderPayloadMismatch(f"header missing field {exc}") from exc

    if dtype_code not in _DTYPE_CODES:
        raise UnsupportedDataType(f"data type {dtype_code} not in {sorted(_DTYPE_CODES)}")
    if interleave not in ("bsq", "bil"):
        raise UnsupportedInterleave(f"interleave {interleave!r} not in {{bsq, bil}}")
    if int(fields.get("byte order", 0)) != 0:
        raise UnsupportedDataType(f"byte order {fields['byte order']}: only 0 (little-endian)")
    if int(fields.get("header offset", 0)) != 0:
        raise HeaderPayloadMismatch(f"header offset {fields['header offset']}: only 0")

    dtype = _DTYPE_CODES[dtype_code]
    expected = samples * lines * bands * dtype.itemsize
    size = os.path.getsize(img)
    if size != expected:
        raise HeaderPayloadMismatch(f"payload is {size} bytes, header implies {expected}")

    if expected:
        # a plain ndarray view: slicing it skips the memmap subclass's overhead
        flat = np.memmap(img, dtype=dtype, mode="r").view(np.ndarray)
    else:
        flat = np.empty(0, dtype=dtype)  # an empty file cannot be mapped
    if interleave == "bsq":
        data = flat.reshape(bands, lines, samples)
    else:  # bil: (lines, bands, samples)
        data = flat.reshape(lines, bands, samples).transpose(1, 0, 2)

    nodata = float(fields.get("data ignore value", DEFAULT_NODATA))
    wavelengths = None
    if "wavelength" in fields:
        wavelengths = tuple(float(w) for w in fields["wavelength"])
    return RadianceCube(data=data, nodata_value=nodata, wavelengths=wavelengths)


def format_envi_header(cube: RadianceCube, interleave: str = "bsq") -> str:
    dtype_code = _CODE_FOR_DTYPE.get(cube.data.dtype)
    if dtype_code is None:
        raise UnsupportedDataType(f"cannot write dtype {cube.data.dtype}")
    if interleave not in ("bsq", "bil"):
        raise UnsupportedInterleave(interleave)
    lines = [
        "ENVI",
        "description = {hsac raster}",
        f"samples = {cube.n_cols}",
        f"lines = {cube.n_rows}",
        f"bands = {cube.n_bands}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {dtype_code}",
        f"interleave = {interleave}",
        "byte order = 0",
        f"data ignore value = {cube.nodata_value!r}",
    ]
    if cube.wavelengths is not None:
        wl = ", ".join(f"{w:.6f}" for w in cube.wavelengths)
        lines.append(f"wavelength = {{{wl}}}")
    return "\n".join(lines) + "\n"


def write_cube(base_path: str, cube: RadianceCube, interleave: str = "bsq") -> None:
    """Write header + payload atomically (temp file then rename)."""
    header = format_envi_header(cube, interleave=interleave)
    data = cube.data if interleave == "bsq" else cube.data.transpose(1, 0, 2)
    try:
        tmp = base_path + ".hdr.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header)
        os.replace(tmp, base_path + ".hdr")
        tmp = base_path + ".img.tmp"
        with open(tmp, "wb") as fh:
            np.ascontiguousarray(data).tofile(fh)
        os.replace(tmp, base_path + ".img")
    except OSError as exc:
        raise IoFailure(f"writing {base_path}: {exc}") from exc
