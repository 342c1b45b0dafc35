import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_params, table_of
from hsac.atmosphere import BandAtmParams
from hsac.errors import NodataPixel, NoOverlap, OutOfBounds, SchemaViolation, ZeroVector
from hsac.inversion import MaskPolicy, forward_model_toa, invert_cube
from hsac.metrics import (
    SpectrumSample,
    aggregate_reports,
    align_spectra,
    compare_spectra,
    error_stats,
    load_reference_spectrum,
    pixel_spectrum,
    spectral_angle,
)
from hsac.pipeline import ProductSink, write_product
from hsac.raster import RadianceCube, read_cube
from hsac.scene import BandDefinition


def spectrum(wl, values, label=""):
    return SpectrumSample(np.asarray(wl, float), np.asarray(values, float), label)


class TestSpectralAngle:
    def test_identity_is_zero(self):
        a = spectrum([400, 500, 600], [0.1, 0.3, 0.2])
        assert spectral_angle(a, a) == 0.0

    def test_scale_invariance(self):
        a = spectrum([400, 500, 600], [0.1, 0.3, 0.2])
        b = spectrum([400, 500, 600], 3.7 * np.array([0.1, 0.3, 0.2]))
        assert spectral_angle(a, b) < 1e-9

    def test_orthogonal_vectors(self):
        a = spectrum([400, 500], [1.0, 0.0])
        b = spectrum([400, 500], [0.0, 1.0])
        assert spectral_angle(a, b) == pytest.approx(90.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        a = spectrum(range(5), rng.random(5))
        b = spectrum(range(5), rng.random(5))
        assert spectral_angle(a, b) == spectral_angle(b, a)

    def test_zero_vector(self):
        a = spectrum([400, 500], [0.0, 0.0])
        b = spectrum([400, 500], [1.0, 1.0])
        with pytest.raises(ZeroVector):
            spectral_angle(a, b)

    def test_negative_values_allowed(self):
        a = spectrum([400, 500], [-0.01, 0.02])
        b = spectrum([400, 500], [0.01, 0.02])
        assert 0.0 <= spectral_angle(a, b) <= 180.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_triangle_inequality_on_positive_spectra(self, seed):
        rng = np.random.default_rng(seed)
        wl = np.arange(10.0)
        a = spectrum(wl, rng.uniform(0.01, 1, 10))
        b = spectrum(wl, rng.uniform(0.01, 1, 10))
        m = spectrum(wl, rng.uniform(0.01, 1, 10))
        assert spectral_angle(a, b) <= (
            spectral_angle(a, m) + spectral_angle(m, b) + 1e-9
        )


class TestErrorStats:
    def test_identity(self):
        a = spectrum([400, 500, 600], [0.1, 0.3, 0.2])
        report = error_stats(a, a)
        assert report.rmse == report.bias == report.std == 0.0
        assert report.n == 3

    def test_pure_bias_decomposition(self):
        a = spectrum([400, 500, 600], [0.1, 0.3, 0.2])
        b = spectrum([400, 500, 600], np.array([0.1, 0.3, 0.2]) + 0.05)
        report = error_stats(b, a)
        assert report.bias == pytest.approx(0.05, rel=1e-12)
        assert report.std == pytest.approx(0.0, abs=1e-12)
        assert report.rmse == pytest.approx(0.05, rel=1e-12)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(43)
        wl = np.arange(20.0)
        d = rng.random(20)
        r = rng.random(20)
        report = error_stats(spectrum(wl, d), spectrum(wl, r))
        e = [d[i] - r[i] for i in range(20)]
        bias = sum(e) / 20
        rmse = math.sqrt(sum(x * x for x in e) / 20)
        std = math.sqrt(sum((x - bias) ** 2 for x in e) / 20)
        assert report.bias == pytest.approx(bias, rel=1e-12)
        assert report.rmse == pytest.approx(rmse, rel=1e-12)
        assert report.std == pytest.approx(std, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 50)
        wl = np.arange(float(n))
        report = error_stats(
            spectrum(wl, rng.normal(size=n)), spectrum(wl, rng.normal(size=n))
        )
        assert report.rmse**2 == pytest.approx(
            report.bias**2 + report.std**2, rel=1e-12, abs=1e-300
        )

    def test_too_few_samples(self):
        a = spectrum([400], [0.1])
        with pytest.raises(NoOverlap):
            error_stats(a, a)


class TestAlignSpectra:
    def test_identity_grids(self):
        a = spectrum([400, 500, 600], [1, 2, 3])
        b = spectrum([400, 500, 600], [4, 5, 6])
        da, db = align_spectra(a, b, (350, 650))
        np.testing.assert_array_equal(da.values, a.values)
        np.testing.assert_array_equal(db.values, b.values)

    def test_window_restricts_pairs(self):
        wl = np.arange(420.0, 2451.0, 10.0)
        derived = spectrum(wl, np.ones_like(wl))
        reference = spectrum(wl, np.ones_like(wl))
        da, _ = align_spectra(derived, reference, (400.0, 900.0))
        assert da.wavelengths[0] >= 420.0
        assert da.wavelengths[-1] <= 900.0

    def test_denser_reference_interpolated(self):
        derived = spectrum([450, 550], [1.0, 1.0])
        ref_wl = np.arange(400.0, 601.0, 25.0)
        ref_v = ref_wl * 0.01
        _, db = align_spectra(derived, spectrum(ref_wl, ref_v), (400, 600))
        assert db.values[0] == pytest.approx(4.5)
        assert db.values[1] == pytest.approx(5.5)

    def test_no_overlap(self):
        a = spectrum([400, 500], [1, 2])
        b = spectrum([1500, 1600], [1, 2])
        with pytest.raises(NoOverlap):
            align_spectra(a, b, (400, 900))

    def test_bad_window(self):
        a = spectrum([400, 500], [1, 2])
        with pytest.raises(NoOverlap):
            align_spectra(a, a, (900, 400))


class TestExtractPixelSpectrum:
    @pytest.fixture
    def exported(self, tmp_path):
        """A 3-band product with band 1 masked, streamed to disk through a
        ProductSink, and the same inversion held in memory as the reference."""
        rng = np.random.default_rng(47)
        bands = [
            BandDefinition(0, 500.0, 6.5),
            BandDefinition(1, 550.0, 6.5),
            BandDefinition(2, 600.0, 6.5),
        ]
        params = []
        for i in range(3):
            p = random_params(rng, i)
            tg = 0.5 if i == 1 else 0.95  # band 1 gets masked
            params.append(
                BandAtmParams(i, p.l_path, p.t_g_o3, tg, p.t_up, p.s_atm, p.e_s)
            )
        rho = rng.uniform(0.01, 0.3, size=(3, 2, 2))
        l_toa = np.stack([forward_model_toa(rho[b], 1.0, params[b]) for b in range(3)])
        l_toa[2, 1, 1] = -9999.0  # nodata pixel in band 2
        cube, policy = RadianceCube(data=l_toa), MaskPolicy(tg_threshold=0.85)
        sink = ProductSink(str(tmp_path), bands)
        table = table_of(params)
        streamed = invert_cube(cube, 1.0, table, policy, open_sink=sink.open)
        write_product(sink, streamed.band_mask, table)
        return invert_cube(cube, 1.0, table, policy), tmp_path

    def test_mask_filtering(self, exported):
        _, out = exported
        s = pixel_spectrum(read_cube(str(out / "r_rs")), 0, 0)
        np.testing.assert_array_equal(s.wavelengths, [500.0, 600.0])

    def test_nodata_pixel(self, exported):
        _, out = exported
        with pytest.raises(NodataPixel):
            pixel_spectrum(read_cube(str(out / "r_rs")), 1, 1)

    def test_out_of_bounds(self, exported):
        _, out = exported
        cube = read_cube(str(out / "r_rs"))
        for row, col in ((5, 0), (2, 0), (0, 2), (-1, 0), (0, -1)):
            with pytest.raises(OutOfBounds):
                pixel_spectrum(cube, row, col)

    def test_values_match_planes(self, exported):
        product, out = exported
        s = pixel_spectrum(read_cube(str(out / "rho_w")), 0, 1)
        assert s.values[0] == np.float32(product.rho_w[0, 0, 1])
        assert s.values[1] == np.float32(product.rho_w[1, 0, 1])


class TestCompareAndAggregate:
    def test_equal_spectra_zero_stats(self):
        wl = np.arange(400.0, 901.0, 50.0)
        a = spectrum(wl, np.linspace(0.01, 0.05, len(wl)))
        report = compare_spectra(a, a, (400, 900))
        assert report.sam_deg == 0.0
        assert report.rmse == 0.0

    def test_aggregate_is_mean(self):
        wl = np.arange(400.0, 901.0, 100.0)
        base = np.linspace(0.01, 0.05, len(wl))
        derived = spectrum(wl, base)
        reports = [
            compare_spectra(derived, spectrum(wl, base + off), (400, 900))
            for off in (0.0, 0.01, 0.02)
        ]
        agg = aggregate_reports(reports)
        assert agg.bias == pytest.approx(
            np.mean([r.bias for r in reports]), rel=1e-12
        )
        assert agg.rmse == pytest.approx(
            np.mean([r.rmse for r in reports]), rel=1e-12
        )


class TestReferenceFile:
    def test_load_with_label(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text(
            "# label: site-A\nwavelength_nm,value\n400,0.01\n500,0.02\n"
        )
        s = load_reference_spectrum(str(path))
        assert s.label == "site-A"
        np.testing.assert_array_equal(s.wavelengths, [400.0, 500.0])
        np.testing.assert_array_equal(s.values, [0.01, 0.02])

    @pytest.mark.parametrize("body,message", [
        ("400,0.01\nabc,0.02\n", ":3:"),
        ("400,0.01\n500,0.02,7\n", ":3:"),
        ("", "no data rows"),
        ("400,0.01\n500,nan\n", ":3:"),
        ("400,0.01\ninf,0.02\n", ":3:"),
        ("-inf,0.01\n500,0.02\n", ":2:"),
        ("400,0.01\n500,-inf\n", ":3:"),
        ("500,0.01\n450,0.02\n", ":3: wavelength 450 nm is not greater"),
        ("400,0.01\n500,0.02\n500,0.03\n", ":4: wavelength 500 nm is not greater"),
    ], ids=["non_numeric", "third_column", "header_only", "nan_value", "inf_wavelength",
            "minus_inf_wavelength", "minus_inf_value", "decreasing", "repeated"])
    def test_malformed_file_names_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "ref.csv"
        path.write_text("wavelength_nm,value\n" + body)
        with pytest.raises(SchemaViolation, match=message) as exc:
            load_reference_spectrum(str(path))
        assert str(path) in str(exc.value)
