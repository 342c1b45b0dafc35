import os
import re

import numpy as np
import pytest

from hsac.errors import HsacError
from hsac.raster import CubeWriter, RadianceCube, read_cube, write_cube


def make_header(samples, lines, bands, dtype_code=4, interleave="bsq"):
    return (
        "ENVI\n"
        f"samples = {samples}\nlines = {lines}\nbands = {bands}\n"
        f"data type = {dtype_code}\ninterleave = {interleave}\nbyte order = 0\n"
    )


def write_raw(tmp_path, header, payload, name="cube"):
    """Write a header and a raw payload as `name`.hdr/.img; return the base path."""
    base = tmp_path / name
    (tmp_path / f"{name}.hdr").write_text(header, encoding="utf-8")
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
            with pytest.raises(HsacError, match=f"payload is {4 * n_values} bytes, header "
                                                "implies 48$"):
                read_cube(write_raw(tmp_path, make_header(2, 2, 3), payload))

    def test_unsupported_data_type(self, tmp_path):
        with pytest.raises(HsacError, match=r"data type 5 not in \[4, 12\]$"):
            read_cube(write_raw(tmp_path, make_header(1, 1, 1, dtype_code=5), b"\0" * 8))

    def test_unsupported_interleave(self, tmp_path):
        with pytest.raises(HsacError, match=r"interleave 'bip' not in \{bsq, bil\}$"):
            read_cube(
                write_raw(tmp_path, make_header(1, 1, 1, interleave="bip"), b"\0" * 4)
            )

    def test_big_endian_rejected(self, tmp_path):
        # read as little-endian, [1.5, 2.5] would come back as [6.9e-41, 1.2e-41]
        header = make_header(2, 1, 1).replace("byte order = 0", "byte order = 1")
        payload = np.array([1.5, 2.5], dtype=">f4").tobytes()
        with pytest.raises(HsacError, match="byte order 1"):
            read_cube(write_raw(tmp_path, header, payload))

    def test_header_offset_rejected(self, tmp_path):
        header = make_header(2, 1, 1) + "header offset = 16\n"
        for payload_bytes in (8, 16 + 8):  # the size without and with the offset
            with pytest.raises(HsacError, match="header offset 16"):
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

    @pytest.mark.parametrize("units,listed", [
        ("Nanometers", "550.0, 650.0"), ("nanometers", "550.0, 650.0"),
        ("Micrometers", "0.55, 0.65"), ("MICROMETERS", "0.55, 0.65"),
    ])
    def test_wavelength_units_converted_to_nm(self, tmp_path, units, listed):
        header = make_header(1, 1, 2) + f"wavelength units = {units}\nwavelength = {{{listed}}}\n"
        cube = read_cube(write_raw(tmp_path, header, b"\0" * 8))
        assert cube.wavelengths == pytest.approx((550.0, 650.0), rel=1e-15)

    def test_unknown_wavelength_unit_is_refused(self, tmp_path):
        # the message starts with the header's path, as every read_cube error does
        header = make_header(1, 1, 2) + "wavelength units = GHz\nwavelength = {550.0, 650.0}\n"
        base = write_raw(tmp_path, header, b"\0" * 8)
        with pytest.raises(HsacError, match=f"^{re.escape(base)}\\.hdr: wavelength units 'GHz': "
                                            "only nanometers or micrometers$"):
            read_cube(base)

    def test_unterminated_list_names_field(self, tmp_path):
        header = make_header(1, 1, 2) + "wavelength = {550.0,\n 650.0\n"
        with pytest.raises(HsacError, match="'wavelength'"):
            read_cube(write_raw(tmp_path, header, b"\0" * 8))

    @pytest.mark.parametrize("value", ["500", "{500, 600}"], ids=["unbraced", "two_for_three"])
    def test_wavelength_not_one_per_band_names_field(self, tmp_path, value):
        # unbraced, "500" used to read as (5.0, 0.0, 0.0), one value per character
        header = make_header(1, 1, 3) + f"wavelength = {value}\n"
        with pytest.raises(HsacError, match="'wavelength'.* 3 values"):
            read_cube(write_raw(tmp_path, header, b"\0" * 12))

    @pytest.mark.parametrize("field", ["samples", "lines", "bands", "data type", "wavelength"])
    def test_non_number_names_field(self, tmp_path, field):
        header = make_header(1, 1, 2) + "wavelength = {550.0, 650.0}\n"
        header = header.replace(f"{field} = ", f"{field} = x")
        with pytest.raises(HsacError, match=f"'{field}'"):
            read_cube(write_raw(tmp_path, header, b"\0" * 8))

    @pytest.mark.parametrize("field", ["samples", "lines", "bands", "data type"])
    def test_integer_field_with_a_fraction_is_not_an_integer(self, tmp_path, field):
        header = re.sub(f"^{field} = .*$", f"{field} = 5.0", make_header(1, 1, 1),
                        flags=re.MULTILINE)
        base = write_raw(tmp_path, header, b"\0" * 4)
        with pytest.raises(HsacError, match=f"^{re.escape(base)}\\.hdr: header field '{field}' "
                                            "is not an integer: '5.0'$"):
            read_cube(base)

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

    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (2, 3, 0)])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_empty_cube_round_trip(self, tmp_path, shape, interleave):
        base = str(tmp_path / "cube")
        write_cube(base, RadianceCube(data=np.zeros(shape, dtype=np.float32)), interleave)
        assert read_cube(base).data.shape == shape
        assert (tmp_path / "cube.img").stat().st_size == 0

    @pytest.mark.parametrize("dtype,interleave,message", [
        (np.float64, "bsq", "cannot write dtype float64"),
        (np.float32, "bip", "interleave 'bip' not in {bsq, bil}"),
    ], ids=["float64", "bip"])
    def test_unwritable_cube_refused_leaving_no_file(self, tmp_path, dtype, interleave,
                                                     message):
        cube = RadianceCube(data=np.zeros((2, 3, 4), dtype=dtype))
        with pytest.raises(HsacError, match=f"^{re.escape(message)}$"):
            write_cube(str(tmp_path / "cube"), cube, interleave)
        assert list(tmp_path.iterdir()) == []

    def test_encode_header_consistency(self, tmp_path):
        # the bytes on disk, not only a read back: header says bil, payload is BIL
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        write_cube(str(tmp_path / "cube"), RadianceCube(data=data), interleave="bil")
        assert "interleave = bil\n" in (tmp_path / "cube.hdr").read_text(encoding="utf-8")
        expected = data.transpose(1, 0, 2).copy().tobytes()
        assert (tmp_path / "cube.img").read_bytes() == expected


class TestCubeWriter:
    def test_rows_of_another_dtype_refused(self, tmp_path):
        writer = CubeWriter(str(tmp_path / "cube"), (2, 3, 4), np.float32, -9999.0, None)
        with pytest.raises(HsacError, match="^rows are float64, the raster is float32$"):
            writer.write_rows(0, np.zeros((2, 3, 4)))
        writer.discard()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_block_of_whole_bands_in_one_call(self, tmp_path, monkeypatch, interleave):
        """Bands 1..3 of a 5-band raster, every row in one call or one row a
        call: the same payload. A BSQ block of whole bands is one pwrite."""
        shape = (5, 4, 3)
        block = np.arange(1, 3 * 4 * 3 + 1, dtype=np.float32).reshape(3, 4, 3)
        offsets = []
        pwrite = os.pwrite

        def counted(fd, data, offset):
            offsets.append(offset)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", counted)
        payloads, calls = [], []
        for name, step in (("whole", 4), ("by_row", 1)):
            base = str(tmp_path / name)
            writer = CubeWriter(base, shape, np.float32, -9999.0, None, interleave)
            offsets.clear()
            for r0 in range(0, 4, step):
                writer.write_rows(r0, block[:, r0:r0 + step], k0=1)
            calls.append(len(offsets))
            write_cube(base, writer)
            payloads.append((tmp_path / f"{name}.img").read_bytes())
        full = np.zeros(shape, dtype=np.float32)
        full[1:4] = block
        if interleave == "bil":
            full = full.transpose(1, 0, 2)
        assert payloads[0] == payloads[1] == np.ascontiguousarray(full).tobytes()
        assert calls == ([1, 12] if interleave == "bsq" else [4, 4])
