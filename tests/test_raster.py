import numpy as np
import pytest

from hsac.errors import (
    HeaderPayloadMismatch,
    UnsupportedDataType,
    UnsupportedInterleave,
)
from hsac.raster import RadianceCube, read_cube, write_cube


def make_header(samples, lines, bands, dtype_code=4, interleave="bsq"):
    return (
        "ENVI\n"
        f"samples = {samples}\nlines = {lines}\nbands = {bands}\n"
        f"data type = {dtype_code}\ninterleave = {interleave}\nbyte order = 0\n"
    )


def write_raw(tmp_path, header, payload, name="cube"):
    """Write a header and a raw payload as `name`.hdr/.img; return the base path."""
    base = tmp_path / name
    (tmp_path / f"{name}.hdr").write_text(header)
    (tmp_path / f"{name}.img").write_bytes(payload)
    return str(base)


class TestRead:
    def test_bsq_literal_values(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        cube = read_cube(write_raw(tmp_path, make_header(2, 2, 2), data.tobytes()))
        np.testing.assert_array_equal(cube.data, data)

    def test_header_payload_mismatch(self, tmp_path):
        # the header implies 2x2x3 values: one payload too short, one too long
        for n_values in (2 * 2 * 2, 2 * 2 * 4):
            payload = np.zeros(n_values, dtype=np.float32).tobytes()
            with pytest.raises(HeaderPayloadMismatch):
                read_cube(write_raw(tmp_path, make_header(2, 2, 3), payload))

    def test_unsupported_data_type(self, tmp_path):
        with pytest.raises(UnsupportedDataType):
            read_cube(write_raw(tmp_path, make_header(1, 1, 1, dtype_code=5), b"\0" * 8))

    def test_unsupported_interleave(self, tmp_path):
        with pytest.raises(UnsupportedInterleave):
            read_cube(
                write_raw(tmp_path, make_header(1, 1, 1, interleave="bip"), b"\0" * 4)
            )

    def test_big_endian_rejected(self, tmp_path):
        # read as little-endian, [1.5, 2.5] would come back as [6.9e-41, 1.2e-41]
        header = make_header(2, 1, 1).replace("byte order = 0", "byte order = 1")
        payload = np.array([1.5, 2.5], dtype=">f4").tobytes()
        with pytest.raises(UnsupportedDataType, match="byte order 1"):
            read_cube(write_raw(tmp_path, header, payload))

    def test_header_offset_rejected(self, tmp_path):
        header = make_header(2, 1, 1) + "header offset = 16\n"
        for payload_bytes in (8, 16 + 8):  # the size without and with the offset
            with pytest.raises(HeaderPayloadMismatch, match="header offset 16"):
                read_cube(write_raw(tmp_path, header, b"\0" * payload_bytes))

    def test_bil_equals_bsq(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.random((3, 4, 5)).astype(np.float32)
        bsq = read_cube(
            write_raw(tmp_path, make_header(5, 4, 3, interleave="bsq"), data.tobytes(), "bsq")
        )
        bil_payload = data.transpose(1, 0, 2).copy().tobytes()
        bil = read_cube(
            write_raw(tmp_path, make_header(5, 4, 3, interleave="bil"), bil_payload, "bil")
        )
        np.testing.assert_array_equal(bsq.data, bil.data)

    def test_wavelength_list_parsed(self, tmp_path):
        header = make_header(1, 1, 2) + "wavelength = {550.0,\n 650.0}\n"
        payload = np.zeros(2, dtype=np.float32).tobytes()
        cube = read_cube(write_raw(tmp_path, header, payload))
        assert cube.wavelengths == (550.0, 650.0)

    def test_unterminated_list_names_field(self, tmp_path):
        header = make_header(1, 1, 2) + "wavelength = {550.0,\n 650.0\n"
        with pytest.raises(HeaderPayloadMismatch, match="'wavelength'"):
            read_cube(write_raw(tmp_path, header, b"\0" * 8))

    @pytest.mark.parametrize("value", ["500", "{500, 600}"], ids=["unbraced", "two_for_three"])
    def test_wavelength_not_one_per_band_names_field(self, tmp_path, value):
        # unbraced, "500" used to read as (5.0, 0.0, 0.0), one value per character
        header = make_header(1, 1, 3) + f"wavelength = {value}\n"
        with pytest.raises(HeaderPayloadMismatch, match="'wavelength'.* 3 values"):
            read_cube(write_raw(tmp_path, header, b"\0" * 12))

    @pytest.mark.parametrize("field", ["samples", "lines", "bands", "data type", "wavelength"])
    def test_non_number_names_field(self, tmp_path, field):
        header = make_header(1, 1, 2) + "wavelength = {550.0, 650.0}\n"
        header = header.replace(f"{field} = ", f"{field} = x")
        with pytest.raises(HeaderPayloadMismatch, match=f"'{field}'"):
            read_cube(write_raw(tmp_path, header, b"\0" * 8))

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_payload_is_read_only(self, tmp_path, interleave):
        base = str(tmp_path / "cube")
        write_cube(base, RadianceCube(data=np.ones((2, 3, 4), dtype=np.float32)), interleave)
        cube = read_cube(base)
        with pytest.raises(ValueError):
            cube.data[0, 0, 0] = 0.0


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.uint16])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_write_read_bit_identical(self, tmp_path, dtype, interleave):
        rng = np.random.default_rng(11)
        if dtype is np.float32:
            data = rng.random((4, 6, 3)).astype(dtype)
        else:
            data = rng.integers(0, 60000, size=(4, 6, 3)).astype(dtype)
        cube = RadianceCube(data=data, nodata_value=-9999.0, wavelengths=(1.0, 2.0, 3.0, 4.0))
        base = str(tmp_path / "cube")
        write_cube(base, cube, interleave=interleave)
        back = read_cube(base)
        assert back.data.dtype == data.dtype
        np.testing.assert_array_equal(back.data, data)
        assert back.nodata_value == cube.nodata_value
        assert back.wavelengths == cube.wavelengths

    def test_encode_header_consistency(self, tmp_path):
        # the bytes on disk, not only a read back: header says bil, payload is BIL
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        write_cube(str(tmp_path / "cube"), RadianceCube(data=data), interleave="bil")
        assert "interleave = bil\n" in (tmp_path / "cube.hdr").read_text()
        expected = data.transpose(1, 0, 2).copy().tobytes()
        assert (tmp_path / "cube.img").read_bytes() == expected
