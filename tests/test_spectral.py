import math

import numpy as np
import pytest

from hsac.errors import HsacError
from hsac.scene import BandDefinition
from hsac.spectral import (
    SpectralGrid,
    SRFTable,
    check_nyquist,
    convolve,
    resample_reference_spectrum,
    simulation_grid,
    srf_for_band,
    srf_table,
)


def srf_wavelengths(srf, grid):
    """The grid wavelengths of the samples of a one-row SRF table."""
    return grid.wavelengths[srf.start[0] : srf.start[0] + srf.length[0]]


def srf_of(band, grid):
    """The band's one-row SRF table."""
    return srf_for_band(band, grid)[0]


def convolve_to_band(spectra, srf):
    """Each spectrum's mean over the SRF of a one-row table."""
    return convolve(np.column_stack(spectra), srf)[0].tolist()


class TestBuildGrid:
    def test_three_point_grid(self):
        grid = SpectralGrid(400, 405, 2.5)
        np.testing.assert_allclose(grid.wavelengths, [400.0, 402.5, 405.0])

    def test_full_sensor_range_point_count(self):
        # (2450 - 420) / 2.5 + 1
        assert SpectralGrid(420, 2450, 2.5).n_points == 813

    def test_invalid_range(self):
        with pytest.raises(HsacError, match="^start 500 must be < stop 400$"):
            SpectralGrid(500, 400, 2.5)

    def test_non_integer_count(self):
        with pytest.raises(HsacError, match=r"^\(stop - start\)/step = 3\.33+\d* is not an integer "
                                               "point count$"):
            SpectralGrid(400, 401, 0.3)


class TestNyquist:
    """The rule is GRID_STEP (2.5 nm) <= fwhm / 2, inclusive; `check_nyquist`
    names the bands that break it by their band index."""

    def test_typical_vnir_band_satisfied(self):
        assert check_nyquist([BandDefinition(0, 550.0, 6.5)]) == ()

    def test_equality_boundary_inclusive(self):
        assert check_nyquist([BandDefinition(0, 550.0, 5.0)]) == ()

    def test_narrow_band_fails(self):
        assert check_nyquist([BandDefinition(0, 550.0, 4.0)]) == (0,)

    def test_mixed_list_returns_the_violating_band_indices(self):
        # 5.0 sits on the boundary and passes; the float just below it fails
        fwhms = (6.5, 4.0, 5.0, float(np.nextafter(5.0, 0)), 12.0, 0.5)
        bands = [BandDefinition(i + 3, 500.0 + 20.0 * i, f) for i, f in enumerate(fwhms)]
        violations = check_nyquist(bands)
        assert violations == (4, 6, 8)
        assert all(type(i) is int for i in violations)  # as report.json writes them

    def test_bundled_bands_all_pass(self, bands228):
        assert not check_nyquist(bands228)


class TestGaussianSrf:
    def test_peak_is_one_on_grid_center(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        i = list(srf_wavelengths(srf, grid)).index(550.0)
        assert srf.responses[0, i] == 1.0

    def test_half_maximum_at_half_fwhm(self):
        grid = SpectralGrid(500, 600, 0.5)
        srf = srf_of(BandDefinition(0, 550.0, 5.0), grid)
        i = list(srf_wavelengths(srf, grid)).index(552.5)
        assert srf.responses[0, i] == pytest.approx(0.5, abs=1e-9)

    def test_integral_matches_analytic_gaussian_area(self):
        grid = SpectralGrid(400, 700, 2.5)
        fwhm = 12.0  # >= 4 * step
        srf = srf_of(BandDefinition(0, 550.0, fwhm), grid)
        integral = float(np.sum(srf.responses)) * grid.step
        expected = fwhm * math.sqrt(math.pi / (4 * math.log(2)))
        assert integral == pytest.approx(expected, rel=0.01)

    def test_symmetry_about_center(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        wl = list(srf_wavelengths(srf, grid))
        for offset in (2.5, 5.0, 7.5):
            assert srf.responses[0, wl.index(550.0 + offset)] == pytest.approx(
                srf.responses[0, wl.index(550.0 - offset)], rel=1e-12
            )

    def test_truncated_at_three_fwhm(self):
        grid = SpectralGrid(350, 800, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        wl = srf_wavelengths(srf, grid)
        assert wl[0] >= 550.0 - 3 * 6.5
        assert wl[-1] <= 550.0 + 3 * 6.5

    def test_window_between_grid_points_keeps_the_nearest_point(self):
        # centre +/- 3 FWHM is [550.4, 551.6]: no grid point; 550.0 is nearest
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 551.0, 0.2), grid)
        assert srf.start[0] == 20 and grid.wavelengths[srf.start[0]] == 550.0
        assert srf.responses.tolist() == [[1.0]]
        spectrum = grid.wavelengths * 2.0
        assert convolve_to_band([spectrum], srf) == [1100.0]


class TestMeasuredSrf:
    def test_measured_takes_precedence(self):
        grid = SpectralGrid(500, 600, 2.5)
        band = BandDefinition(
            0, 550.0, 6.5, srf=np.array([(545.0, 0.2), (550.0, 1.0), (555.0, 0.2)])
        )
        srf, source = srf_for_band(band, grid)
        assert source == "measured"
        i = list(srf_wavelengths(srf, grid)).index(550.0)
        assert srf.responses[0, i] == 1.0

    def test_gaussian_fallback(self):
        grid = SpectralGrid(500, 600, 2.5)
        _, source = srf_for_band(BandDefinition(0, 550.0, 6.5), grid)
        assert source == "gaussian"

    def test_finer_than_grid_resampled(self):
        grid = SpectralGrid(500, 600, 2.5)
        pairs = np.array([(545.0 + i, math.exp(-((i - 5.0) ** 2) / 8)) for i in range(11)])
        band = BandDefinition(0, 550.0, 6.5, srf=pairs)
        srf = srf_of(band, grid)
        assert set(srf_wavelengths(srf, grid)).issubset(set(grid.wavelengths))


class TestSimulationGrid:
    def test_covers_measured_srf_beyond_gaussian_window(self):
        # centre +/- 3 FWHM is [400.5, 439.5]; the measured response spans 395-445
        pairs = np.array([(w, 1.0 - abs(w - 420.0) / 30.0) for w in np.arange(395.0, 446.0)])
        band = BandDefinition(0, 420.0, 6.5, srf=pairs)
        grid = simulation_grid([band], 2.5)
        srf, _ = srf_for_band(band, grid)
        wl = srf_wavelengths(srf, grid)
        assert (wl[0], wl[-1]) == (395.0, 445.0)

    def test_measured_support_clipped_to_wavelength_range(self):
        srf = np.array([(330.0, 0.5), (355.0, 1.0), (380.0, 0.5)])
        band = BandDefinition(0, 355.0, 5.0, srf=srf)
        grid = simulation_grid([band], 2.5)
        assert grid.start == 350.0
        assert grid.stop >= 380.0


class TestConvolveToBand:
    def test_constant_spectrum(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        spectrum = np.full(grid.n_points, 3.7)
        assert convolve_to_band([spectrum], srf) == [pytest.approx(3.7, rel=1e-12)]

    def test_delta_srf_picks_single_value(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = SRFTable(np.array([[1.0]]), np.array([20]), np.array([1]))  # the 550 nm sample
        spectrum = grid.wavelengths * 2.0
        assert convolve_to_band([spectrum], srf) == [1100.0]

    def test_linear_spectrum_symmetric_srf(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        (band_value,) = convolve_to_band([grid.wavelengths.copy()], srf)
        assert band_value == pytest.approx(550.0, abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        f = rng.random(grid.n_points)
        g = rng.random(grid.n_points)
        a, b = 2.5, -1.25
        (lhs,) = convolve_to_band([a * f + b * g], srf)
        cf, cg = convolve_to_band([f, g], srf)
        rhs = a * cf + b * cg
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_bounded_by_spectrum_extrema(self):
        rng = np.random.default_rng(6)
        grid = SpectralGrid(500, 600, 2.5)
        srf = srf_of(BandDefinition(0, 550.0, 6.5), grid)
        for _ in range(50):
            f = rng.random(grid.n_points)
            (v,) = convolve_to_band([f], srf)
            assert f.min() <= v <= f.max()


def gaussian_reference(band, grid):
    """(start, responses) of a Gaussian SRF built for one band alone, as
    version 0.1.0 did: the grid points in center +/- 3 FWHM, or else the
    nearest point alone, normalized to a peak of 1."""
    lo = max(grid.start, band.center_wavelength - 3.0 * band.fwhm)
    hi = min(grid.stop, band.center_wavelength + 3.0 * band.fwhm)
    i0 = math.ceil((lo - grid.start) / grid.step - 1e-9)
    i1 = math.floor((hi - grid.start) / grid.step + 1e-9)
    if i1 < i0:
        i0 = i1 = round((band.center_wavelength - grid.start) / grid.step)
    wl = grid.wavelengths[i0 : i1 + 1]
    resp = np.exp(-4.0 * math.log(2.0) * (wl - band.center_wavelength) ** 2 / band.fwhm**2)
    return i0, resp / resp.max()


def measured_band(index, center, fwhm, skew):
    """A band with a skewed, 1 nm sampled measured SRF over center +/- 2 FWHM."""
    wl = np.arange(math.floor(center - 2.0 * fwhm), math.ceil(center + 2.0 * fwhm) + 1.0)
    width = np.where(wl < center, fwhm * (1.0 - skew), fwhm * (1.0 + skew))
    resp = np.exp(-4.0 * math.log(2.0) * (wl - center) ** 2 / width**2)
    return BandDefinition(index, center, fwhm, srf=np.column_stack([wl, resp]))


def assert_row(table, b, start, responses):
    n = table.length[b]
    assert (table.start[b], n) == (start, len(responses))
    assert table.responses[b, :n].tobytes() == np.asarray(responses).tobytes()
    assert not table.responses[b, n:].any()  # exact zeros


class TestSRFTable:
    def test_gaussian_rows_equal_one_band_values_to_the_bit(self, bands228, grid228):
        table = srf_table(bands228, grid228)
        assert table.responses.shape[0] == len(bands228)
        for b, band in enumerate(bands228):
            assert_row(table, b, *gaussian_reference(band, grid228))

    @pytest.mark.parametrize("center,fwhm", [
        (551.0, 0.2),  # between grid points: the nearest point alone
        (551.3, 0.35),
        (501.0, 10.0),  # window clipped at the grid start
        (598.8, 6.5),  # ... and at the grid stop
        (500.0, 0.3),  # a lone point on the first grid point
    ], ids=["lone_point", "lone_point_below_half", "clipped_start", "clipped_stop",
            "lone_first_point"])
    def test_lone_point_and_clipped_rows_to_the_bit(self, center, fwhm):
        grid = SpectralGrid(500, 600, 2.5)
        bands = [BandDefinition(0, 550.0, 10.0), BandDefinition(1, center, fwhm)]
        table = srf_table(bands, grid)
        for b, band in enumerate(bands):
            assert_row(table, b, *gaussian_reference(band, grid))

    def test_lone_point_is_one_where_its_response_underflows(self):
        # 552.5 nm is nearest; exp(-4 ln 2 (1.2 / 0.01)^2) is 0.0, yet it is the peak
        grid = SpectralGrid(500, 600, 2.5)
        table = srf_table([BandDefinition(0, 551.3, 0.01)], grid)
        assert_row(table, 0, 21, [1.0])

    def test_measured_rows_equal_np_interp(self, grid228):
        bands = [measured_band(0, 450.0, 6.5, 0.1), BandDefinition(1, 500.0, 6.5),
                 measured_band(2, 700.0, 10.0, -0.15), measured_band(3, 1200.0, 8.0, 0.0)]
        table = srf_table(bands, grid228)
        wl = grid228.wavelengths
        for b in (0, 2, 3):
            srf = bands[b].srf
            inside = np.flatnonzero((wl >= srf[0, 0]) & (wl <= srf[-1, 0]))
            expected = np.interp(wl[inside], srf[:, 0], srf[:, 1])
            assert_row(table, b, inside[0], expected)
        assert_row(table, 1, *gaussian_reference(bands[1], grid228))

    def test_one_band_srf_is_its_table_row(self, bands228, grid228):
        bands = [measured_band(b.index, b.center_wavelength, b.fwhm, 0.1) if b.index % 3 == 0
                 else b for b in bands228]
        table = srf_table(bands, grid228)
        for b, band in enumerate(bands):
            srf, _ = srf_for_band(band, grid228)
            assert_row(table, b, srf.start[0], srf.responses[0])

    def test_band_means_do_not_depend_on_the_other_bands(self, bands228, grid228):
        rng = np.random.default_rng(3)
        fine = rng.uniform(0.0, 2.0, size=(grid228.n_points, 3))
        table = srf_table(bands228, grid228)
        means = convolve(fine, table)
        for b, band in enumerate(bands228):
            alone = convolve(fine, srf_of(band, grid228))
            assert alone.tobytes() == means[b:b + 1].tobytes()


class TestResampleReference:
    def test_identity_on_grid_points(self):
        grid = SpectralGrid(400, 410, 2.5)
        reference = [(w, w * 0.01) for w in grid.wavelengths]
        out = resample_reference_spectrum(reference, grid)
        np.testing.assert_array_equal(out, grid.wavelengths * 0.01)

    def test_nan_wavelength_refused(self):
        grid = SpectralGrid(400, 500, 50.0)
        with pytest.raises(HsacError, match="^reference wavelengths must be strictly increasing$"):
            resample_reference_spectrum([(400.0, 1.0), (math.nan, 2.0), (500.0, 3.0)], grid)

    def test_midpoint_interpolation(self):
        grid = SpectralGrid(400, 500, 50.0)
        out = resample_reference_spectrum([(400.0, 1.0), (500.0, 2.0)], grid)
        assert out[1] == 1.5

    def test_against_scalar_interpolation_oracle(self):
        rng = np.random.default_rng(9)
        wl = np.sort(rng.uniform(390, 620, 200))
        wl[0], wl[-1] = 390.0, 620.0
        values = np.cumsum(rng.random(200))
        grid = SpectralGrid(400, 600, 2.5)
        out = resample_reference_spectrum(list(zip(wl, values)), grid)
        for i, x in enumerate(grid.wavelengths):
            j = np.searchsorted(wl, x, side="right") - 1
            j = min(j, len(wl) - 2)
            t = (x - wl[j]) / (wl[j + 1] - wl[j])
            expected = values[j] + t * (values[j + 1] - values[j])
            assert abs(out[i] - expected) < 1e-12

    def test_coverage_gap(self):
        grid = SpectralGrid(400, 600, 2.5)
        with pytest.raises(HsacError, match=r"^grid \[400, 600\] exceeds reference support "
                                               r"\[450\.0, 550\.0\]$"):
            resample_reference_spectrum([(450.0, 1.0), (550.0, 2.0)], grid)
