import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_params, table_of
from test_scene import FIXTURE_XML
from hsac.atmosphere import (
    AOD_DATASET,
    OZONE_DATASET,
    E_S,
    FINE_FIELD_NAMES,
    L_PATH,
    S_ATM,
    T_G_O3,
    T_G_TOTAL,
    T_UP,
    WV_DATASET,
    AnalyticProvider,
    AtmosphericState,
    AuxCatalogue,
    BandAtmParams,
    Geometry,
    TableProvider,
    aerosol_model,
    aerosol_optical_depth,
    check_band_table,
    compute_fine_fields,
    diffuse_transmittance,
    gas_transmittance,
    henyey_greenstein_phase,
    load_params_table,
    load_solar_irradiance,
    path_radiance,
    rayleigh_optical_depth,
    rayleigh_phase,
    resolve_atmospheric_state,
    serialize_params_table,
    spherical_albedo,
)
from hsac.errors import HsacError
from hsac.pipeline import RunConfig, configure_scene
from hsac.scene import BandDefinition, parse_scene_metadata
from hsac.spectral import (
    SpectralGrid,
    SRFTable,
    convolve,
    resample_reference_spectrum,
    srf_for_band,
    srf_table,
)


class TestRayleigh:
    def test_reference_value_at_550(self):
        # cross-checked against standard-atmosphere Rayleigh tables
        assert rayleigh_optical_depth(550.0) == pytest.approx(0.0973, abs=1e-3)

    def test_inverse_fourth_power_dominance(self):
        ratio = rayleigh_optical_depth(1100.0) / rayleigh_optical_depth(550.0)
        assert ratio == pytest.approx(2.0**-4, rel=0.03)

    def test_strictly_decreasing(self):
        wl = np.arange(350.0, 2600.0 + 1e-9, 2.5)
        tau = rayleigh_optical_depth(wl)
        assert np.all(np.diff(tau) < 0)

    def test_out_of_range(self):
        with pytest.raises(HsacError, match=r"^wavelength outside \[350\.0, 2600\.0\] nm$"):
            rayleigh_optical_depth(300.0)


class TestAerosolOpticalDepth:
    def test_anchor_wavelength(self, continental):
        assert aerosol_optical_depth(550.0, 0.25, continental) == 0.25

    def test_zero_aerosol(self, continental):
        wl = np.array([400.0, 900.0, 2400.0])
        np.testing.assert_array_equal(aerosol_optical_depth(wl, 0.0, continental), 0.0)

    def test_power_law(self, continental):
        # Continental alpha = 1.3
        expected = 0.2 * 2.0 ** (-1.3)
        assert aerosol_optical_depth(1100.0, 0.2, continental) == pytest.approx(expected)

    def test_monotone_decreasing_for_positive_angstrom(self, continental):
        wl = np.arange(400.0, 2400.0, 10.0)
        tau = aerosol_optical_depth(wl, 0.3, continental)
        assert np.all(np.diff(tau) < 0)


class TestAtmosphericState:
    def test_negative_aod_rejected(self):
        with pytest.raises(HsacError, match="aod550 must be finite and non-negative"):
            AtmosphericState(aod550=-0.1, tcwv=2.0, tco3=300.0, source="override")


class TestGeometry:
    @pytest.mark.parametrize("name,value", [
        ("sza", 95.0), ("sza", -1.0), ("sza", math.nan), ("vza", 90.0),
        ("saa", 360.0), ("saa", -0.5), ("vaa", 400.0),
    ])
    def test_out_of_range_angle_refused_as_in_metadata(self, name, value):
        angles = {"sza": 35.2, "saa": 145.0, "vza": 5.0, "vaa": 100.0}
        tag = {"sza": "sunZenith", "saa": "sunAzimuth", "vza": "viewZenith",
               "vaa": "viewAzimuth"}[name]
        doc = FIXTURE_XML.replace(f"<{tag}>{angles[name]}</{tag}>", f"<{tag}>{value}</{tag}>")
        with pytest.raises(HsacError, match=f"^{name} ") as from_metadata:
            parse_scene_metadata(doc)
        with pytest.raises(HsacError, match=f"^{name} ") as from_geometry:
            Geometry(**{**angles, name: value})
        assert str(from_geometry.value) == str(from_metadata.value)
        assert str(from_geometry.value).startswith(f"{name} {value} outside [0, ")


def geometry(sza=30.0, vza=5.0):
    return Geometry(sza=sza, saa=145.0, vza=vza, vaa=100.0)


class TestGasTransmittance:
    def test_zero_ozone(self):
        t_o3, _ = gas_transmittance(600.0, 2.0, 0.0, geometry())
        assert t_o3 == 1.0

    def test_outside_chappuis_band(self):
        t_o3, _ = gas_transmittance(1600.0, 2.0, 300.0, geometry())
        assert t_o3 >= 0.999

    def test_table_lookup_oracle_at_600(self):
        # independent scalar evaluation of the bundled table
        import os

        from hsac.atmosphere import DATA_DIR

        table = np.loadtxt(
            os.path.join(DATA_DIR, "gas_o3.csv"), delimiter=",", skiprows=1, encoding="utf-8"
        )
        k600 = np.interp(600.0, table[:, 0], table[:, 1])
        expected = math.exp(-k600 * 0.3 * 2.0)
        t_o3, _ = gas_transmittance(600.0, 2.0, 300.0, geometry(sza=0.0, vza=0.0))
        assert t_o3 == pytest.approx(expected, rel=1e-12)

    def test_no_absorbers_outside_o2_bands(self):
        assert gas_transmittance(550.0, 0.0, 0.0, geometry()) == (1.0, 1.0)

    def test_oxygen_a_band_below_mask_threshold(self):
        # ~760 nm must fall below the 0.85 masking threshold for typical states
        _, t_total = gas_transmittance(760.0, 1.0, 300.0, geometry(vza=0.0))
        assert t_total < 0.85

    def test_total_oracle_at_550(self):
        import os

        from hsac.atmosphere import DATA_DIR

        m = 1.0 / math.cos(math.radians(30.0)) + 1.0
        o3, h2o, o2 = (np.loadtxt(os.path.join(DATA_DIR, f"gas_{gas}.csv"), delimiter=",",
                                  skiprows=1, encoding="utf-8") for gas in ("o3", "h2o", "o2"))
        t_o3 = math.exp(-np.interp(550.0, o3[:, 0], o3[:, 1]) * 0.3 * m)
        a = np.interp(550.0, h2o[:, 0], h2o[:, 1])
        b = np.interp(550.0, h2o[:, 0], h2o[:, 2])
        t_wv = math.exp(-a * (2.0 * m) ** b)
        t_o2 = math.exp(-np.interp(550.0, o2[:, 0], o2[:, 1]) * math.sqrt(m))
        expected = t_o3 * t_wv * t_o2
        _, t_total = gas_transmittance(550.0, 2.0, 300.0, geometry(vza=0.0))
        assert t_total == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_ozone_column(self):
        values = [gas_transmittance(600.0, 2.0, du, geometry())[0] for du in (0, 200, 400, 600)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestPathRadiance:
    def test_no_scatterers(self, default_geometry, continental):
        assert path_radiance(0.0, 0.0, default_geometry, continental, 1.5) == 0.0

    def test_backscatter_phase_identity(self, continental):
        # sun at zenith, nadir view: scattering angle 180 deg, P_R = 3/2
        geom = Geometry(sza=0.0, saa=0.0, vza=0.0, vaa=0.0)
        tau_r = rayleigh_optical_depth(550.0)
        lp = path_radiance(tau_r, 0.0, geom, continental, 1.0)
        rho = lp * math.pi / 1.0  # mu_s = 1
        assert rho == pytest.approx(0.375 * tau_r, rel=1e-12)

    def test_duplicate_implementation_oracle(self, continental):
        rng = np.random.default_rng(13)
        for _ in range(100):
            geom = Geometry(
                sza=rng.uniform(0, 75),
                saa=rng.uniform(0, 360),
                vza=rng.uniform(0, 60),
                vaa=rng.uniform(0, 360),
            )
            wl = rng.uniform(400, 2400)
            aod = rng.uniform(0, 0.8)
            e0 = rng.uniform(0.2, 2.0)
            # independent scalar evaluation of the closed form
            ts, tv = math.radians(geom.sza), math.radians(geom.vza)
            phi = abs(geom.saa - geom.vaa) % 360
            phi = 360 - phi if phi > 180 else phi
            cos_theta = -math.cos(ts) * math.cos(tv) - math.sin(ts) * math.sin(
                tv
            ) * math.cos(math.radians(phi))
            tau_r = 0.008569 * (wl / 1000) ** -4 * (
                1 + 0.0113 * (wl / 1000) ** -2 + 0.00013 * (wl / 1000) ** -4
            )
            tau_a = aod * (wl / 550.0) ** -continental.angstrom_exponent
            g = continental.asymmetry
            p_r = 0.75 * (1 + cos_theta**2)
            p_hg = (1 - g * g) / (1 + g * g - 2 * g * cos_theta) ** 1.5
            rho = (
                tau_r * p_r + continental.single_scatter_albedo * tau_a * p_hg
            ) / (4 * math.cos(ts) * math.cos(tv))
            expected = rho * e0 * math.cos(ts) / math.pi
            got = path_radiance(rayleigh_optical_depth(wl),
                                aerosol_optical_depth(wl, aod, continental),
                                geom, continental, e0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_phase_functions(self):
        assert rayleigh_phase(-1.0) == 1.5
        assert henyey_greenstein_phase(0.0, 0.0) == 1.0


def fields_at(geom, aod, model, wl=550.0):
    """compute_fine_fields' row at one grid wavelength, with E0 = 1."""
    grid = SpectralGrid(wl, wl + 2.5, 2.5)
    state = AtmosphericState(aod550=aod, tcwv=2.0, tco3=300.0, source="override")
    return compute_fine_fields(grid, geom, state, model, np.ones(grid.n_points))[0]


class TestTransmittanceUp:
    """T_up, the diffuse transmittance at mu_v."""

    def test_transparent_atmosphere(self, continental):
        assert diffuse_transmittance(0.0, 0.0, 1.0, continental) == 1.0

    def test_half_rayleigh_closed_form(self, continental):
        got = diffuse_transmittance(0.1, 0.0, 1.0, continental)
        assert got == pytest.approx(math.exp(-0.05), rel=1e-9)

    def test_monotone_in_view_angle(self, continental):
        values = [fields_at(geometry(vza=vza), 0.3, continental)[T_UP] for vza in range(0, 89, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_aerosol_depth(self, continental):
        values = [fields_at(geometry(), aod, continental)[T_UP] for aod in (0, 0.2, 0.5, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestDownwellingIrradiance:
    """E_s = E0 * mu_s * T_down, T_down the diffuse transmittance at mu_s."""

    def test_transparent_overhead_sun(self, continental):
        mu_s = Geometry(sza=0.0, saa=0.0, vza=0.0, vaa=0.0).mu_s
        assert 1.36 * mu_s * diffuse_transmittance(0.0, 0.0, mu_s, continental) == 1.36

    def test_cosine_factor(self, continental):
        # the E_s column is E0 mu_s T_down at the solar zenith, not the view zenith
        geom = geometry(sza=60.0)
        tau_r = rayleigh_optical_depth(550.0)
        tau_a = aerosol_optical_depth(550.0, 0.2, continental)
        t_down = diffuse_transmittance(tau_r, tau_a, geom.mu_s, continental)
        assert fields_at(geom, 0.2, continental)[E_S] == pytest.approx(geom.mu_s * t_down,
                                                                       rel=1e-12)

    def test_attenuated_closed_form(self, continental):
        # the aerosol's forward-scattered fraction ssa (1 + g) / 2 still reaches the surface
        ssa, g = continental.single_scatter_albedo, continental.asymmetry
        got = diffuse_transmittance(0.0, 0.2, 0.5, continental)
        assert got == pytest.approx(math.exp(-(1 - ssa * (1 + g) / 2) * 0.2 / 0.5), rel=1e-12)


class TestSphericalAlbedo:
    def test_empty_atmosphere(self, continental):
        assert spherical_albedo(0.0, 0.0, continental) == 0.0

    def test_rayleigh_only_closed_form(self, continental):
        got = spherical_albedo(0.1, 0.0, continental)
        assert got == pytest.approx(0.092, rel=1e-9)

    def test_clamped(self, continental):
        wl = np.arange(350.0, 2600.0, 2.5)
        s = spherical_albedo(rayleigh_optical_depth(wl),
                             aerosol_optical_depth(wl, 50.0, continental), continental)
        assert np.all(s >= 0) and np.all(s <= 0.99)


class TestComputeBandParams:
    def test_delta_srf_reduces_to_scalar_ops(
        self, default_geometry, default_state, continental
    ):
        grid = SpectralGrid(350, 2600, 2.5)
        e0 = resample_reference_spectrum(load_solar_irradiance(), grid)
        band = BandDefinition(0, 550.0, 6.5)
        i550 = 80  # (550 - 350) / 2.5
        srf = SRFTable(np.array([[1.0]]), np.array([i550]), np.array([1]))
        provider = AnalyticProvider(
            grid, default_geometry, default_state, continental, e0
        )
        p = provider.band_params(band, srf)
        g, s = default_geometry, default_state
        e0_550 = e0[i550]
        tau_r = rayleigh_optical_depth(550.0)
        tau_a = aerosol_optical_depth(550.0, s.aod550, continental)
        t_o3, t_total = gas_transmittance(550.0, s.tcwv, s.tco3, g)
        assert p.l_path == pytest.approx(
            path_radiance(tau_r, tau_a, g, continental, e0_550), rel=1e-12
        )
        assert p.t_g_o3 == pytest.approx(t_o3, rel=1e-12)
        assert p.t_g_total == pytest.approx(t_total, rel=1e-12)
        assert p.t_up == pytest.approx(
            diffuse_transmittance(tau_r, tau_a, g.mu_v, continental), rel=1e-12
        )
        assert p.s_atm == pytest.approx(
            spherical_albedo(tau_r, tau_a, continental), rel=1e-12
        )
        assert p.e_s == pytest.approx(
            e0_550 * g.mu_s * diffuse_transmittance(tau_r, tau_a, g.mu_s, continental),
            rel=1e-12,
        )

    def test_transparent_atmosphere_identity(self, default_geometry, continental):
        # no aerosol and no absorbing gas: the gas terms are exactly 1 and every
        # other term is the band mean of its closed form in tau_R alone
        grid = SpectralGrid(500, 600, 2.5)
        e0 = np.full(grid.n_points, 1.7)
        state = AtmosphericState(aod550=0.0, tcwv=0.0, tco3=0.0, source="override")
        band = BandDefinition(0, 550.0, 6.5)
        srf, _ = srf_for_band(band, grid)
        provider = AnalyticProvider(grid, default_geometry, state, continental, e0)
        p = provider.band_params(band, srf)
        g = default_geometry
        start, n = int(srf.start[0]), int(srf.length[0])
        tau_r = rayleigh_optical_depth(grid.wavelengths[start:start + n])

        def band_mean(values):
            return np.average(values, weights=srf.responses[0, :n])

        p_r = 0.75 * (1 + g.cos_scattering**2)
        assert p.t_g_o3 == 1.0
        assert p.t_g_total == 1.0
        assert p.l_path == pytest.approx(
            band_mean(tau_r * p_r / (4 * g.mu_s * g.mu_v) * 1.7 * g.mu_s / math.pi), rel=1e-12)
        assert p.t_up == pytest.approx(band_mean(np.exp(-tau_r / 2 / g.mu_v)), rel=1e-12)
        assert p.s_atm == pytest.approx(band_mean(0.92 * tau_r), rel=1e-12)
        assert p.e_s == pytest.approx(
            band_mean(1.7 * g.mu_s * np.exp(-tau_r / 2 / g.mu_s)), rel=1e-12)

    def test_band_values_bounded_by_fine_grid(
        self, default_geometry, default_state, continental
    ):
        grid = SpectralGrid(500, 700, 2.5)
        e0 = np.linspace(1.5, 1.9, grid.n_points)
        fields = compute_fine_fields(
            grid, default_geometry, default_state, continental, e0
        )
        band = BandDefinition(0, 600.0, 8.0)
        srf, _ = srf_for_band(band, grid)
        provider = AnalyticProvider(
            grid, default_geometry, default_state, continental, e0
        )
        p = provider.band_params(band, srf)
        for value, column in zip(p.row, fields.T):
            assert column.min() - 1e-12 <= value <= column.max() + 1e-12

    def test_transmittance_bounds_randomized(self, continental):
        rng = np.random.default_rng(17)
        grid = SpectralGrid(400, 2500, 2.5)
        e0 = np.full(grid.n_points, 1.5)
        for _ in range(200):
            geom = Geometry(
                sza=rng.uniform(0, 80), saa=rng.uniform(0, 360),
                vza=rng.uniform(0, 70), vaa=rng.uniform(0, 360),
            )
            state = AtmosphericState(
                aod550=rng.uniform(0, 2.0),
                tcwv=rng.uniform(0, 7.0),
                tco3=rng.uniform(100, 600),
                source="override",
            )
            fields = compute_fine_fields(grid, geom, state, continental, e0)
            assert fields.shape == (grid.n_points, len(FINE_FIELD_NAMES))
            transmittances = fields[:, [T_G_O3, T_G_TOTAL, T_UP]]
            assert np.all(transmittances > 0) and np.all(transmittances <= 1.0)
            assert np.all(fields[:, S_ATM] >= 0) and np.all(fields[:, S_ATM] <= 0.99)
            assert np.all(fields[:, [L_PATH, E_S]] >= 0)


class TestBandTable:
    @pytest.fixture
    def provider(self, grid228, e0_228, default_geometry, default_state, continental):
        return AnalyticProvider(grid228, default_geometry, default_state, continental, e0_228)

    @pytest.fixture
    def mixed_bands(self, bands228):
        """The bundled bands, every third with a measured (triangular) SRF."""
        def measured(b):
            wl = np.arange(b.center_wavelength - 2 * b.fwhm, b.center_wavelength + 2 * b.fwhm)
            resp = 1.0 - np.abs(wl - b.center_wavelength) / (2.5 * b.fwhm)
            return BandDefinition(b.index, b.center_wavelength, b.fwhm,
                                  srf=np.column_stack([wl, resp]))
        return [measured(b) if b.index % 3 == 0 else b for b in bands228]

    def test_one_band_params_are_the_table_row(self, provider, mixed_bands, grid228):
        table = provider.band_table(srf_table(mixed_bands, grid228))
        replay = TableProvider(table)
        for b, band in enumerate(mixed_bands):
            srf, _ = srf_for_band(band, grid228)
            for one in (provider.band_params(band, srf), replay.band_params(band, srf)):
                assert one.band_index == b
                assert np.array(one.row).tobytes() == table[b].tobytes()

    def test_within_conditioning_bound_of_exact_mean(self, provider, mixed_bands, grid228):
        # every field and response is >= 0, so n rounded products summed left to
        # right, a sum of n responses and one division leave a relative error of
        # at most gamma_2n = 2n u / (1 - 2n u) <= (2n + 1) u, n the window length
        srfs = srf_table(mixed_bands, grid228)
        means = convolve(provider.fields, srfs)
        u = np.finfo(np.float64).eps / 2
        for b in range(len(mixed_bands)):
            n, start = int(srfs.length[b]), int(srfs.start[b])
            weights = [Fraction(w) for w in srfs.responses[b, :n]]
            total = sum(weights)
            for k in range(len(FINE_FIELD_NAMES)):
                column = provider.fields[start:start + n, k]
                exact = sum(w * Fraction(f) for w, f in zip(weights, column)) / total
                error = abs(Fraction(means[b, k]) - exact)
                assert error <= (2 * n + 1) * Fraction(u) * exact, (b, FINE_FIELD_NAMES[k])

    def test_first_offending_band_is_named(self):
        table = np.tile([0.1, 0.9, 0.8, 0.95, 0.05, 1.5], (6, 1))
        table[4, L_PATH] = -1.0
        table[2, E_S] = math.inf
        table[2, T_UP] = 1.5  # band 2 breaks two parts; t_up is checked first
        with pytest.raises(HsacError, match=r"^band 2: t_up = 1.5 outside \(0, 1\]$"):
            check_band_table(table)
        table[2, T_UP] = 0.9
        with pytest.raises(HsacError, match=r"^band 2: e_s = inf outside \[0, inf\)$"):
            check_band_table(table)
        table[2, E_S] = 1.5
        with pytest.raises(HsacError, match=r"^band 4: l_path = -1.0 outside \[0, inf\)$"):
            check_band_table(table)

    @pytest.mark.parametrize("name", ["l_path", "e_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-300])
    def test_radiances_must_be_finite_and_non_negative(self, name, value):
        values = dict(l_path=0.1, t_g_o3=0.9, t_g_total=0.8, t_up=0.95, s_atm=0.05, e_s=1.5)
        values[name] = value
        with pytest.raises(HsacError, match=f"band 7: {name} = .* outside"):
            BandAtmParams(7, **values)

    def test_rows_are_put_in_band_order(self):
        text = (TestParamsTable.HEADER + "2,0.3,0.92,0.82,0.97,0.07,1.7\n"
                + "0,0.1,0.9,0.8,0.95,0.05,1.5\n" + "1,0.2,0.91,0.81,1.2,0.06,1.6\n")
        with pytest.raises(HsacError, match="band 1: t_up") as exc:
            load_params_table(text, 3)
        assert exc.value.line == 4  # the row of band 1
        table = load_params_table(text.replace("1.2", "0.96"), 3)
        assert table[:, L_PATH].tolist() == [0.1, 0.2, 0.3]


class TestParamsTable:
    HEADER = "band_index,l_path,t_g_o3,t_g_total,t_up,s_atm,e_s\n"

    def test_identity_ingest(self):
        text = (
            self.HEADER
            + "0,0.1,0.9,0.8,0.95,0.05,1.5\n"
            + "1,0.2,0.91,0.81,0.96,0.06,1.6\n"
            + "2,0.3,0.92,0.82,0.97,0.07,1.7\n"
        )
        table = load_params_table(text, 3)
        assert table.shape == (3, 6)
        assert table[1, L_PATH] == 0.2
        assert table[2, E_S] == 1.7

    def test_invariant_violation_names_band_and_field(self):
        text = self.HEADER + "0,0.1,0.9,0.8,1.2,0.05,1.5\n"
        with pytest.raises(HsacError, match="band 0.*t_up"):
            load_params_table(text, 1)

    def test_duplicate_band(self):
        text = self.HEADER + "0,0.1,0.9,0.8,0.9,0.05,1.5\n0,0.1,0.9,0.8,0.9,0.05,1.5\n"
        with pytest.raises(HsacError, match=r"^2 rows for 2 scene bands; band indices must be "
                                            r"0\.\.1: missing \[1\], duplicated \[0\]$"):
            load_params_table(text, 2)

    def test_missing_band(self):
        text = self.HEADER + "0,0.1,0.9,0.8,0.9,0.05,1.5\n2,0.1,0.9,0.8,0.9,0.05,1.5\n"
        with pytest.raises(HsacError, match=r"^2 rows for 2 scene bands; band indices must be "
                                            r"0\.\.1: missing \[1\], unexpected \[2\]$"):
            load_params_table(text, 2)

    def test_negative_index_is_unexpected(self):
        row = ",0.1,0.9,0.8,0.9,0.05,1.5\n"
        text = self.HEADER + "".join(f"{i}{row}" for i in (-1, 0, 1))
        with pytest.raises(HsacError, match=r"^3 rows for 3 scene bands; band indices must be "
                                            r"0\.\.2: missing \[2\], unexpected \[-1\]$"):
            load_params_table(text, 3)

    def test_schema_violation(self):
        with pytest.raises(HsacError, match=r"^header \['wrong', 'header'\] != expected \['band_index', "):
            load_params_table("wrong,header\n", 1)

    def test_serialization_round_trip_exact(self):
        rng = np.random.default_rng(23)
        table = table_of([random_params(rng, i) for i in range(10)])
        back = load_params_table(serialize_params_table(table), 10)
        assert back.tobytes() == table.tobytes()  # %.17g keeps float64 exact


CATALOGUE = [
    {"dataset": "MODIS/061/MCD19A2_GRANULES", "date": "2024-07-24",
     "bbox": [-1.5, 38.5, -0.5, 39.5], "value": 0.21},
    {"dataset": "TOMS/MERGED", "date": "2024-07-24",
     "bbox": [-1.5, 38.5, -0.5, 39.5], "value": 295.0},
    {"dataset": "NCEP_RE/surface_wv", "date": "2024-07-24",
     "bbox": [-1.5, 38.5, -0.5, 39.5], "value": 1.4},
]


BBOX = [-1.0, 39.0, -0.9, 39.1]
DATASETS = (AOD_DATASET, OZONE_DATASET, WV_DATASET)


def scene_metadata(aod=0.12, tcwv=1.8, tco3=310.0):
    import datetime

    from hsac.scene import SceneMetadata

    return SceneMetadata(
        acquisition_date=datetime.date(2024, 7, 24),
        acquisition_time=0.0,
        geometry=Geometry(sza=30.0, saa=0.0, vza=0.0, vaa=0.0),
        aod550=aod, tcwv=tcwv, tco3=tco3,
    )


class TestCatalogue:
    def test_direct_lookup(self):
        cat = AuxCatalogue(CATALOGUE)
        assert cat.lookup(AOD_DATASET, "2024-07-24", BBOX) == 0.21
        assert cat.lookup(OZONE_DATASET, "2024-07-24", BBOX) == 295.0
        assert cat.lookup(WV_DATASET, "2024-07-24", BBOX) == 1.4
        state = resolve_atmospheric_state(
            scene_metadata(aod=None, tcwv=None, tco3=None),
            catalogue=cat, bbox=BBOX,
        )
        assert state.aod550 == 0.21
        assert state.tco3 == 295.0
        assert state.tcwv == 1.4
        assert state.source == "catalogue"

    def test_missing_entry_names_dataset(self):
        cat = AuxCatalogue([e for e in CATALOGUE if e["dataset"] != "TOMS/MERGED"])
        assert cat.lookup(OZONE_DATASET, "2024-07-24", BBOX) is None
        with pytest.raises(HsacError, match="^no value for tco3 from metadata or catalogue$"):
            resolve_atmospheric_state(
                scene_metadata(tco3=None), policy="catalogue_first",
                catalogue=cat, bbox=BBOX,
            )

    def test_date_must_match_exactly(self):
        cat = AuxCatalogue(CATALOGUE)
        for dataset in DATASETS:
            assert cat.lookup(dataset, "2024-07-25", BBOX) is None

    def test_bbox_containment_required(self):
        cat = AuxCatalogue(CATALOGUE)
        for dataset in DATASETS:
            assert cat.lookup(dataset, "2024-07-24", [-5.0, 39.0, -0.9, 39.1]) is None

    @pytest.mark.parametrize("text", ["{bad", "", "[1,"])
    def test_catalogue_that_is_not_json_is_a_schema_violation(self, text):
        with pytest.raises(HsacError, match="^catalogue is not JSON: "):
            AuxCatalogue.from_json(text)


class TestStatePolicy:
    @pytest.mark.parametrize(
        "policy,expected_aod,expected_source",
        [
            ("metadata_first", 0.12, "metadata"),
            ("catalogue_first", 0.21, "catalogue"),
        ],
    )
    def test_policy_matrix(self, policy, expected_aod, expected_source):
        cat = AuxCatalogue(CATALOGUE)
        state = resolve_atmospheric_state(
            scene_metadata(), policy=policy, catalogue=cat, bbox=BBOX
        )
        assert state.aod550 == expected_aod
        assert state.source == expected_source

    def test_catalogue_fills_missing_metadata(self):
        cat = AuxCatalogue(CATALOGUE)
        state = resolve_atmospheric_state(
            scene_metadata(aod=None), policy="metadata_first", catalogue=cat, bbox=BBOX
        )
        assert state.aod550 == 0.21
        assert state.tcwv == 1.8

    @pytest.mark.parametrize("policy,missing,lookups,source", [
        ("metadata_first", {}, 0, "metadata"),
        ("metadata_first", {"aod": None}, 1, "mixed"),
        ("catalogue_first", {}, 3, "catalogue"),
    ], ids=["metadata_complete", "metadata_without_aod550", "catalogue_first"])
    def test_catalogue_searched_only_for_missing_values(self, monkeypatch, policy,
                                                        missing, lookups, source):
        cat = AuxCatalogue(CATALOGUE)
        calls = []
        lookup = cat.lookup

        def counted(*args):
            calls.append(args[0])
            return lookup(*args)

        monkeypatch.setattr(cat, "lookup", counted)
        state = resolve_atmospheric_state(
            scene_metadata(**missing), policy=policy, catalogue=cat, bbox=BBOX
        )
        assert len(calls) == lookups
        assert state.source == source

    def test_unknown_policy_refused(self):
        with pytest.raises(HsacError, match="^unknown state policy 'bogus'; choose from "
                                            "metadata_first, catalogue_first$"):
            resolve_atmospheric_state(scene_metadata(), policy="bogus")

    def test_missing_everywhere_raises(self):
        with pytest.raises(HsacError, match="^no value for aod550 from metadata or catalogue$"):
            resolve_atmospheric_state(scene_metadata(aod=None), policy="metadata_first")

    def test_override_policy(self):
        override = AtmosphericState(aod550=0.5, tcwv=3.0, tco3=280.0, source="override")
        meta = dataclasses.replace(scene_metadata(), bands=(BandDefinition(0, 550.0, 6.5),))
        assert configure_scene(meta, RunConfig(override_state=override)).state == override

    def test_unknown_aerosol_model(self):
        with pytest.raises(HsacError, match="^unknown aerosol model 'Lunar'; choose from "):
            aerosol_model("Lunar")
