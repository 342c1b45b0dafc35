import math

import numpy as np
import pytest

from hsac.errors import CoverageGap, InvalidRange
from hsac.scene import BandDefinition
from hsac.spectral import (
    SRF,
    SpectralGrid,
    check_nyquist,
    convolve_to_band,
    gaussian_srf,
    measured_srf,
    resample_reference_spectrum,
    simulation_grid,
    srf_for_band,
)


def srf_wavelengths(srf, grid):
    """The grid wavelengths of an SRF's samples."""
    return grid.wavelengths[srf.start : srf.start + len(srf.responses)]


class TestBuildGrid:
    def test_three_point_grid(self):
        grid = SpectralGrid(400, 405, 2.5)
        np.testing.assert_allclose(grid.wavelengths, [400.0, 402.5, 405.0])

    def test_full_sensor_range_point_count(self):
        # (2450 - 420) / 2.5 + 1
        assert SpectralGrid(420, 2450, 2.5).n_points == 813

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            SpectralGrid(500, 400, 2.5)

    def test_non_integer_count(self):
        with pytest.raises(InvalidRange):
            SpectralGrid(400, 401, 0.3)


class TestNyquist:
    def test_typical_vnir_band_satisfied(self):
        report = check_nyquist([BandDefinition(0, 550.0, 6.5)], step=2.5)
        assert report.bands[0].threshold == 3.25
        assert report.bands[0].satisfied
        assert report.overall

    def test_equality_boundary_inclusive(self):
        report = check_nyquist([BandDefinition(0, 550.0, 5.0)], step=2.5)
        assert report.bands[0].satisfied

    def test_narrow_band_fails(self):
        report = check_nyquist([BandDefinition(0, 550.0, 4.0)], step=2.5)
        assert not report.bands[0].satisfied
        assert not report.overall

    def test_bundled_bands_all_pass(self, bands228):
        assert check_nyquist(bands228, step=2.5).overall


class TestGaussianSrf:
    def test_peak_is_one_on_grid_center(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        i = list(srf_wavelengths(srf, grid)).index(550.0)
        assert srf.responses[i] == 1.0

    def test_half_maximum_at_half_fwhm(self):
        grid = SpectralGrid(500, 600, 0.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 5.0), grid)
        i = list(srf_wavelengths(srf, grid)).index(552.5)
        assert srf.responses[i] == pytest.approx(0.5, abs=1e-9)

    def test_integral_matches_analytic_gaussian_area(self):
        grid = SpectralGrid(400, 700, 2.5)
        fwhm = 12.0  # >= 4 * step
        srf = gaussian_srf(BandDefinition(0, 550.0, fwhm), grid)
        integral = float(np.sum(srf.responses)) * grid.step
        expected = fwhm * math.sqrt(math.pi / (4 * math.log(2)))
        assert integral == pytest.approx(expected, rel=0.01)

    def test_symmetry_about_center(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        wl = list(srf_wavelengths(srf, grid))
        for offset in (2.5, 5.0, 7.5):
            assert srf.responses[wl.index(550.0 + offset)] == pytest.approx(
                srf.responses[wl.index(550.0 - offset)], rel=1e-12
            )

    def test_truncated_at_three_fwhm(self):
        grid = SpectralGrid(350, 800, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        wl = srf_wavelengths(srf, grid)
        assert wl[0] >= 550.0 - 3 * 6.5
        assert wl[-1] <= 550.0 + 3 * 6.5

    def test_window_between_grid_points_keeps_the_nearest_point(self):
        # centre +/- 3 FWHM is [550.4, 551.6]: no grid point; 550.0 is nearest
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 551.0, 0.2), grid)
        assert srf.start == 20 and grid.wavelengths[srf.start] == 550.0
        assert list(srf.responses) == [1.0]
        spectrum = grid.wavelengths * 2.0
        assert convolve_to_band([spectrum], srf) == [1100.0]


class TestMeasuredSrf:
    def test_measured_takes_precedence(self):
        grid = SpectralGrid(500, 600, 2.5)
        band = BandDefinition(
            0, 550.0, 6.5, srf=((545.0, 0.2), (550.0, 1.0), (555.0, 0.2))
        )
        srf, source = srf_for_band(band, grid)
        assert source == "measured"
        i = list(srf_wavelengths(srf, grid)).index(550.0)
        assert srf.responses[i] == 1.0

    def test_gaussian_fallback(self):
        grid = SpectralGrid(500, 600, 2.5)
        _, source = srf_for_band(BandDefinition(0, 550.0, 6.5), grid)
        assert source == "gaussian"

    def test_finer_than_grid_resampled(self):
        grid = SpectralGrid(500, 600, 2.5)
        pairs = tuple((545.0 + i, math.exp(-((i - 5.0) ** 2) / 8)) for i in range(11))
        band = BandDefinition(0, 550.0, 6.5, srf=pairs)
        srf = measured_srf(band, grid)
        assert set(srf_wavelengths(srf, grid)).issubset(set(grid.wavelengths))


class TestSimulationGrid:
    def test_covers_measured_srf_beyond_gaussian_window(self):
        # centre +/- 3 FWHM is [400.5, 439.5]; the measured response spans 395-445
        pairs = tuple((w, 1.0 - abs(w - 420.0) / 30.0) for w in np.arange(395.0, 446.0))
        band = BandDefinition(0, 420.0, 6.5, srf=pairs)
        grid = simulation_grid([band], 2.5)
        srf, _ = srf_for_band(band, grid)
        wl = srf_wavelengths(srf, grid)
        assert (wl[0], wl[-1]) == (395.0, 445.0)

    def test_measured_support_clipped_to_wavelength_range(self):
        band = BandDefinition(0, 355.0, 5.0, srf=((330.0, 0.5), (355.0, 1.0), (380.0, 0.5)))
        grid = simulation_grid([band], 2.5)
        assert grid.start == 350.0
        assert grid.stop >= 380.0


class TestConvolveToBand:
    def test_constant_spectrum(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        spectrum = np.full(grid.n_points, 3.7)
        assert convolve_to_band([spectrum], srf) == [pytest.approx(3.7, rel=1e-12)]

    def test_delta_srf_picks_single_value(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = SRF(0, 20, np.array([1.0]))  # the 550 nm sample
        spectrum = grid.wavelengths * 2.0
        assert convolve_to_band([spectrum], srf) == [1100.0]

    def test_linear_spectrum_symmetric_srf(self):
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        (band_value,) = convolve_to_band([grid.wavelengths.copy()], srf)
        assert band_value == pytest.approx(550.0, abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        grid = SpectralGrid(500, 600, 2.5)
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
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
        srf = gaussian_srf(BandDefinition(0, 550.0, 6.5), grid)
        for _ in range(50):
            f = rng.random(grid.n_points)
            (v,) = convolve_to_band([f], srf)
            assert f.min() <= v <= f.max()


class TestResampleReference:
    def test_identity_on_grid_points(self):
        grid = SpectralGrid(400, 410, 2.5)
        reference = [(w, w * 0.01) for w in grid.wavelengths]
        out = resample_reference_spectrum(reference, grid)
        np.testing.assert_array_equal(out, grid.wavelengths * 0.01)

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
        with pytest.raises(CoverageGap):
            resample_reference_spectrum([(450.0, 1.0), (550.0, 2.0)], grid)
