"""ENVI-style raster reading and writing.

Two-file convention: a text header (.hdr) describing dimensions, data type
and interleave, next to a raw payload, little-endian from byte 0 (byte order
and header offset 0). Data types are 4 (float32) and 12 (uint16); interleaves
bsq and bil. Cubes are always returned in canonical band-sequential order.

Payloads are never copied. `read_cube` maps the payload file read-only
(a BIL payload is returned as a transposed view of the mapping), so only
the pages a caller touches are read. A `CubeWriter` preallocates the payload
as `<base>.img.tmp` and writes rows at their offsets with `os.pwrite`, from
the caller's buffers, also from forked processes that inherit its file
descriptor; the written pages sit in the page cache and do not count in the
writer's resident memory. `write_cube` commits a writer: it writes the
header to a temporary file, then renames the payload and then the header
into place, so a reader never sees a partial file, and a commit that fails
before the payload's rename leaves the old raster whole. An in-memory cube
is written through a new writer first. Every text input is read by
`parse_file`, and every CSV of numbers by `read_numeric_csv`.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import HsacError, IoFailure

# nodata of every product raster, whatever the input's, and far from any
# rho_w; also a cube's when its header names none
NODATA = -9999.0

SIZE_FIELDS = ("samples", "lines", "bands")
_DTYPE_CODES = {4: np.dtype("<f4"), 12: np.dtype("<u2")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 4, np.dtype("uint16"): 12}
# nm per unit of a header's `wavelength units`, lowercased; absent means nm
_NM_PER_UNIT = {"nanometers": 1.0, "nm": 1.0, "micrometers": 1000.0, "um": 1000.0}


@dataclass
class RadianceCube:
    """Band-sequential raster: data has shape (n_bands, n_rows, n_cols);
    wavelengths are in nm."""

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
                    raise HsacError(f"header field {key!r}: '{{' is never closed")
                value += " " + more.strip()
            inner = value[value.index("{") + 1 : value.index("}")]
            fields[key] = [v.strip() for v in inner.split(",") if v.strip()]
        else:
            fields[key] = value
    return fields


def _header_field(fields: dict, key: str, cast=int, default=None):
    """`cast` of a header field, or `default` when it is absent; the error
    names a field that is missing or of the wrong type."""
    value = fields.get(key, default)
    if value is None:
        raise HsacError(f"header missing field {key!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise HsacError(f"header field {key!r} is not {kind}: {value!r}") from None


def read_cube(base_path: str) -> RadianceCube:
    """Map `base_path`.hdr + `base_path`.img (or `base_path` raw) read-only.
    Every error it raises names the header."""
    return parse_file(base_path + ".hdr",
                      lambda text: _map_cube(parse_envi_header(text), base_path))


def _map_cube(fields: dict, base_path: str) -> RadianceCube:
    img = base_path + ".img" if os.path.exists(base_path + ".img") else base_path
    samples, lines, bands = sizes = [_header_field(fields, key) for key in SIZE_FIELDS]
    for key, n in zip(SIZE_FIELDS, sizes):
        if n < 0:
            raise HsacError(f"header field {key!r} must be an integer >= 0, got {n}")
    dtype_code = _header_field(fields, "data type")
    interleave = _header_field(fields, "interleave", str).lower()

    if dtype_code not in _DTYPE_CODES:
        raise HsacError(f"data type {dtype_code} not in {sorted(_DTYPE_CODES)}")
    if interleave not in ("bsq", "bil"):
        raise HsacError(f"interleave {interleave!r} not in {{bsq, bil}}")
    if (byte_order := _header_field(fields, "byte order", default=0)) != 0:
        raise HsacError(f"byte order {byte_order}: only 0 (little-endian)")
    if (header_offset := _header_field(fields, "header offset", default=0)) != 0:
        raise HsacError(f"header offset {header_offset}: only 0")

    dtype = _DTYPE_CODES[dtype_code]
    expected = samples * lines * bands * dtype.itemsize
    size = os.path.getsize(img)
    if size != expected:
        raise HsacError(f"payload is {size} bytes, header implies {expected}")

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
            raise HsacError(
                f"header field 'wavelength' must be a {{...}} list of {bands} values, "
                f"got {listed!r}"
            )
        units = _header_field(fields, "wavelength units", str, "nanometers")
        nm_per_unit = _NM_PER_UNIT.get(units.lower())
        if nm_per_unit is None:
            raise HsacError(f"wavelength units {units!r}: only nanometers or micrometers")
        wavelengths = _header_field(fields, "wavelength",
                                    lambda ws: tuple(float(w) * nm_per_unit for w in ws))
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
        raise HsacError(f"cannot write dtype {dtype}")
    if interleave not in ("bsq", "bil"):
        raise HsacError(f"interleave {interleave!r} not in {{bsq, bil}}")
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
    # bytes through a flat uint8 view: a memoryview cast refuses an empty array
    view = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


class CubeWriter:
    """The payload of a (bands, rows, cols) raster being written.

    `<base_path>.img.tmp` is created at its full size; `write_rows` writes
    a block of rows of a run of bands at its offsets and may be called from
    several forked processes, which inherit the file descriptor, for
    disjoint blocks. `write_cube(base_path, writer)`
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
        """Write rows[k, i] as row r0 + i of band k0 + k: for BSQ one pwrite
        per band, or one for a block of whole bands; one per row for BIL."""
        if rows.dtype != self.dtype:
            raise HsacError(f"rows are {rows.dtype}, the raster is {self.dtype}")
        bands, n_rows, n_cols = self.shape
        row_bytes = n_cols * self.dtype.itemsize
        try:
            if self.interleave == "bsq" and rows.shape[1] == n_rows:
                # whole bands are one contiguous run of the payload
                _pwrite_all(self._fd, rows, k0 * n_rows * row_bytes)
            elif self.interleave == "bsq":
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


def parse_file(path: str, parse):
    """parse(the text of the UTF-8 file at path, a leading byte-order mark
    dropped); every error reads `<path>: ...`, or `<path>:<line>: ...`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise HsacError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(text)
    except HsacError as exc:
        where = path if exc.line is None else f"{path}:{exc.line}"
        raise HsacError(f"{where}: {exc}") from exc


def to_numbers(groups: list[list[str]], dtype, error) -> np.ndarray:
    """The strings of `groups`, one group after another, as a 1-D `dtype`
    array made by one conversion. When one is not a number of that type,
    the error is error(k, exc) for the first group k holding one."""
    try:
        return np.array([s for group in groups for s in group], dtype=dtype)
    except (ValueError, OverflowError):
        for k, group in enumerate(groups):
            try:
                np.array(group, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise error(k, exc) from None
        raise


def read_numeric_csv(text: str, n_fields: int, skip=None, index: bool = False):
    """The rows of a CSV of numbers, comma-separated without quoting: a
    float64 (rows, n_fields) array and each row's line number (from 1).
    Blank lines, `#` comments and the stripped lines that `skip` is true of
    are not rows. With `index`, a row's first field is an integer (`1.0` is
    not). The error names the line of the first row with another number of
    fields, or else of the first row that is not numbers."""
    rows, lines = [], []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#") and not (skip and skip(line)):
            rows.append(line.split(","))
            lines.append(number)
            if len(rows[-1]) != n_fields:
                raise HsacError(f"row has {len(rows[-1])} fields, expected {n_fields}: "
                                f"{line!r}", line=number)

    def error(what):
        return lambda k, exc: HsacError(f"{what}: {','.join(rows[k])!r}", line=lines[k])

    if index:
        to_numbers([fields[:1] for fields in rows], np.int64, error("index not an integer"))
    values = to_numbers(rows, np.float64, error("non-numeric row"))
    return values.reshape(-1, n_fields), np.array(lines)


def replace_with_text(path: str, text: str) -> None:
    """Write `text` to `path.tmp`, then rename it to `path`, so a reader
    sees the old file or the whole new one; on failure `path.tmp` is deleted."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_cube(base_path: str, cube: RadianceCube | CubeWriter, interleave: str = "bsq") -> None:
    """Commit a raster at `base_path`: write the header to `<base>.hdr.tmp`,
    then rename the payload, then the header, from their temporary names.
    Whatever fails, both temporary files are deleted; a failure before the
    payload's rename leaves an existing raster as it was.

    `cube` is a CubeWriter holding every row, or an in-memory RadianceCube,
    which is first written from its own buffer through a new CubeWriter
    (`interleave` applies to this case only).
    """
    writer = cube
    if isinstance(cube, RadianceCube):
        writer = CubeWriter(base_path, cube.data.shape, cube.data.dtype,
                            cube.nodata_value, cube.wavelengths, interleave)
    header = base_path + ".hdr"
    try:
        if writer is not cube:
            writer.write_rows(0, cube.data)
        writer.close()
        with open(header + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(writer.header)
        os.replace(writer.path, base_path + ".img")
        os.replace(header + ".tmp", header)
    except OSError as exc:
        raise IoFailure(f"writing {base_path}: {exc}") from exc
    finally:
        writer.discard()  # a no-op once the payload is renamed
        with contextlib.suppress(OSError):
            os.unlink(header + ".tmp")
