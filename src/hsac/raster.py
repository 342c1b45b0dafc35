"""ENVI-style raster reading and writing.

Two-file convention: a text header (.hdr) describing dimensions, data type
and interleave, next to a raw payload, little-endian from byte 0 (byte order
and header offset 0). Data types are 4 (float32) and 12 (uint16); interleaves
bsq and bil. Cubes are always returned in canonical band-sequential order.

Payloads are never copied. `read_cube` maps the payload file read-only
(a BIL payload is returned as a transposed view of the mapping), so only
the pages a caller touches are read. A `CubeWriter` preallocates the payload
as `<base>.img.tmp` and writes rows at their offsets with `os.pwrite`, from
the caller's buffers and from any thread; the written pages sit in the page
cache and do not count in the writer's resident memory. `write_cube`
commits a writer: it writes the header, then renames header and payload
into place, so a reader never sees a partial raster. An in-memory cube is
written through a new writer first.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    HeaderPayloadMismatch,
    IoFailure,
    UnsupportedDataType,
    UnsupportedInterleave,
)

# nodata of every product raster, whatever the input's, and far from any
# rho_w; also a cube's when its header names none
NODATA = -9999.0

_DTYPE_CODES = {4: np.dtype("<f4"), 12: np.dtype("<u2")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 4, np.dtype("uint16"): 12}


@dataclass
class RadianceCube:
    """Band-sequential raster: data has shape (n_bands, n_rows, n_cols)."""

    data: np.ndarray
    nodata_value: float = NODATA
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
                more = next(lines, None)
                if more is None:
                    raise HeaderPayloadMismatch(f"header field {key!r}: '{{' is never closed")
                value += " " + more.strip()
            inner = value[value.index("{") + 1 : value.index("}")]
            fields[key] = [v.strip() for v in inner.split(",") if v.strip()]
        else:
            fields[key] = value
    return fields


def _header_field(fields: dict, key: str, cast=int, default=None):
    """`cast` of a header field, or `default` when it is absent;
    HeaderPayloadMismatch names a field that is missing or of the wrong type."""
    value = fields.get(key, default)
    if value is None:
        raise HeaderPayloadMismatch(f"header missing field {key!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise HeaderPayloadMismatch(f"header field {key!r} is not a number: {value!r}") from None


def read_cube(base_path: str) -> RadianceCube:
    """Map `base_path`.hdr + `base_path`.img (or `base_path` raw) read-only."""
    img = base_path + ".img" if os.path.exists(base_path + ".img") else base_path
    with open(base_path + ".hdr", encoding="utf-8") as fh:
        fields = parse_envi_header(fh.read())
    samples = _header_field(fields, "samples")
    lines = _header_field(fields, "lines")
    bands = _header_field(fields, "bands")
    dtype_code = _header_field(fields, "data type")
    interleave = _header_field(fields, "interleave", str).lower()

    if dtype_code not in _DTYPE_CODES:
        raise UnsupportedDataType(f"data type {dtype_code} not in {sorted(_DTYPE_CODES)}")
    if interleave not in ("bsq", "bil"):
        raise UnsupportedInterleave(f"interleave {interleave!r} not in {{bsq, bil}}")
    if (byte_order := _header_field(fields, "byte order", default=0)) != 0:
        raise UnsupportedDataType(f"byte order {byte_order}: only 0 (little-endian)")
    if (header_offset := _header_field(fields, "header offset", default=0)) != 0:
        raise HeaderPayloadMismatch(f"header offset {header_offset}: only 0")

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

    nodata = _header_field(fields, "data ignore value", float, NODATA)
    wavelengths = None
    if "wavelength" in fields:
        listed = fields["wavelength"]
        if not isinstance(listed, list) or len(listed) != bands:
            raise HeaderPayloadMismatch(
                f"header field 'wavelength' must be a {{...}} list of {bands} values, "
                f"got {listed!r}"
            )
        wavelengths = _header_field(fields, "wavelength", lambda ws: tuple(map(float, ws)))
    return RadianceCube(data=data, nodata_value=nodata, wavelengths=wavelengths)


def format_envi_header(
    shape: tuple[int, int, int],
    dtype,
    nodata_value: float,
    wavelengths: tuple[float, ...] | None,
    interleave: str,
) -> str:
    """Header of a (bands, rows, cols) raster."""
    dtype_code = _CODE_FOR_DTYPE.get(np.dtype(dtype))
    if dtype_code is None:
        raise UnsupportedDataType(f"cannot write dtype {dtype}")
    if interleave not in ("bsq", "bil"):
        raise UnsupportedInterleave(interleave)
    bands, rows, cols = shape
    lines = [
        "ENVI",
        "description = {hsac raster}",
        f"samples = {cols}",
        f"lines = {rows}",
        f"bands = {bands}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {dtype_code}",
        f"interleave = {interleave}",
        "byte order = 0",
        f"data ignore value = {nodata_value!r}",
    ]
    if wavelengths is not None:
        wl = ", ".join(f"{w:.6f}" for w in wavelengths)
        lines.append(f"wavelength = {{{wl}}}")
    return "\n".join(lines) + "\n"


def _pwrite_all(fd: int, array: np.ndarray, offset: int) -> None:
    view = memoryview(np.ascontiguousarray(array)).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


class CubeWriter:
    """The payload of a (bands, rows, cols) raster being written.

    `<base_path>.img.tmp` is created at its full size; `write_rows` writes
    a block of rows of a run of bands at its offsets and may be called from
    several threads for disjoint blocks. `write_cube(base_path, writer)`
    commits it; `discard` deletes an uncommitted payload.
    """

    def __init__(
        self,
        base_path: str,
        shape: tuple[int, int, int],
        dtype,
        nodata_value: float,
        wavelengths: tuple[float, ...] | None,
        interleave: str = "bsq",
    ):
        self.header = format_envi_header(shape, dtype, nodata_value, wavelengths, interleave)
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.interleave = interleave
        self.path = base_path + ".img.tmp"
        self._fd = -1
        try:
            self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            os.ftruncate(self._fd, math.prod(shape) * self.dtype.itemsize)
        except OSError as exc:
            self.discard()
            raise IoFailure(f"creating {self.path}: {exc}") from exc

    def write_rows(self, r0: int, rows: np.ndarray, k0: int = 0) -> None:
        """Write rows[k, i] as row r0 + i of band k0 + k: one pwrite per
        band for BSQ, one per row for BIL."""
        if rows.dtype != self.dtype:
            raise UnsupportedDataType(f"rows are {rows.dtype}, the raster is {self.dtype}")
        bands, n_rows, n_cols = self.shape
        row_bytes = n_cols * self.dtype.itemsize
        try:
            if self.interleave == "bsq":
                for k in range(rows.shape[0]):
                    _pwrite_all(self._fd, rows[k], ((k0 + k) * n_rows + r0) * row_bytes)
            else:  # bil: one (bands, cols) run per row
                for i in range(rows.shape[1]):
                    _pwrite_all(self._fd, rows[:, i], ((r0 + i) * bands + k0) * row_bytes)
        except OSError as exc:
            raise IoFailure(f"writing {self.path}: {exc}") from exc

    def close(self) -> None:
        if self._fd >= 0:
            fd, self._fd = self._fd, -1
            os.close(fd)

    def discard(self) -> None:
        """Close, and delete the payload unless it was committed (best effort)."""
        with contextlib.suppress(OSError):
            self.close()
            os.unlink(self.path)


def replace_with_text(path: str, text: str) -> None:
    """Write `text` to `path.tmp`, then rename it to `path`, so a reader
    sees the old file or the whole new one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_cube(base_path: str, cube: RadianceCube | CubeWriter, interleave: str = "bsq") -> None:
    """Commit a raster at `base_path`: write the header, then rename header
    and payload from their temporary names.

    `cube` is a CubeWriter holding every row, or an in-memory RadianceCube,
    which is first written from its own buffer through a new CubeWriter
    (`interleave` applies to this case only).
    """
    writer = cube
    if isinstance(cube, RadianceCube):
        writer = CubeWriter(base_path, cube.data.shape, cube.data.dtype,
                            cube.nodata_value, cube.wavelengths, interleave)
    try:
        if writer is not cube:
            writer.write_rows(0, cube.data)
        writer.close()
        replace_with_text(base_path + ".hdr", writer.header)
        os.replace(writer.path, base_path + ".img")
    except OSError as exc:
        raise IoFailure(f"writing {base_path}: {exc}") from exc
    finally:
        writer.discard()  # a no-op once the payload is renamed
