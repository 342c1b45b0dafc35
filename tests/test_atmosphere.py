import math

import numpy as np
import pytest

import hsac.atmosphere
from conftest import random_params
from hsac.atmosphere import (
    AOD_DATASET,
    OZONE_DATASET,
    WV_DATASET,
    AnalyticProvider,
    AtmosphericState,
    AuxCatalogue,
    Geometry,
    aerosol_model,
    aerosol_optical_depth,
    compute_fine_fields,
    downwelling_irradiance,
    gas_transmittance_total,
    henyey_greenstein_phase,
    load_params_table,
    load_solar_irradiance,
    ozone_transmittance,
    path_radiance,
    rayleigh_optical_depth,
    rayleigh_phase,
    resolve_atmospheric_state,
    serialize_params_table,
    spherical_albedo,
    transmittance_up,
)
from hsac.errors import (
    DuplicateBand,
    InvariantViolation,
    MissingBand,
    MissingEntry,
    OutOfRange,
    SchemaViolation,
)
from hsac.scene import BandDefinition
from hsac.spectral import SRF, SpectralGrid, gaussian_srf, resample_reference_spectrum


@pytest.fixture
def rayleigh_tau(monkeypatch):
    """Call with tau to make the Rayleigh optical depth tau at every wavelength."""
    def force(tau):
        monkeypatch.setattr(
            hsac.atmosphere, "rayleigh_optical_depth",
            lambda wavelength: np.full(np.shape(wavelength), tau),
        )
    return force


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
        with pytest.raises(OutOfRange):
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

    def test_negative_aod_rejected(self, continental):
        with pytest.raises(OutOfRange):
            aerosol_optical_depth(550.0, -0.1, continental)

    def test_monotone_decreasing_for_positive_angstrom(self, continental):
        wl = np.arange(400.0, 2400.0, 10.0)
        tau = aerosol_optical_depth(wl, 0.3, continental)
        assert np.all(np.diff(tau) < 0)


class TestGasTransmittance:
    def test_zero_ozone(self):
        assert ozone_transmittance(600.0, 0.0, 30.0, 5.0) == 1.0

    def test_outside_chappuis_band(self):
        assert ozone_transmittance(1600.0, 300.0, 30.0, 5.0) >= 0.999

    def test_table_lookup_oracle_at_600(self):
        # independent scalar evaluation of the bundled table
        import os

        from hsac.atmosphere import DATA_DIR

        table = np.loadtxt(
            os.path.join(DATA_DIR, "gas_o3.csv"), delimiter=",", skiprows=1
        )
        k600 = np.interp(600.0, table[:, 0], table[:, 1])
        expected = math.exp(-k600 * 0.3 * 2.0)
        assert ozone_transmittance(600.0, 300.0, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_no_absorbers_outside_o2_bands(self):
        assert gas_transmittance_total(550.0, 0.0, 0.0, 30.0, 5.0) == 1.0

    def test_oxygen_a_band_below_mask_threshold(self):
        # ~760 nm must fall below the 0.85 masking threshold for typical states
        assert gas_transmittance_total(760.0, 1.0, 300.0, 30.0, 0.0) < 0.85

    def test_total_oracle_at_550(self):
        import os

        from hsac.atmosphere import DATA_DIR

        m = 1.0 / math.cos(math.radians(30.0)) + 1.0
        o3 = np.loadtxt(os.path.join(DATA_DIR, "gas_o3.csv"), delimiter=",", skiprows=1)
        h2o = np.loadtxt(os.path.join(DATA_DIR, "gas_h2o.csv"), delimiter=",", skiprows=1)
        o2 = np.loadtxt(os.path.join(DATA_DIR, "gas_o2.csv"), delimiter=",", skiprows=1)
        t_o3 = math.exp(-np.interp(550.0, o3[:, 0], o3[:, 1]) * 0.3 * m)
        a = np.interp(550.0, h2o[:, 0], h2o[:, 1])
        b = np.interp(550.0, h2o[:, 0], h2o[:, 2])
        t_wv = math.exp(-a * (2.0 * m) ** b)
        t_o2 = math.exp(-np.interp(550.0, o2[:, 0], o2[:, 1]) * math.sqrt(m))
        expected = t_o3 * t_wv * t_o2
        assert gas_transmittance_total(550.0, 2.0, 300.0, 30.0, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_monotone_in_ozone_column(self):
        values = [ozone_transmittance(600.0, du, 30.0, 5.0) for du in (0, 200, 400, 600)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestPathRadiance:
    def test_no_scatterers(self, default_geometry, continental, rayleigh_tau):
        rayleigh_tau(0.0)
        lp = path_radiance(550.0, default_geometry, 0.0, continental, 1.5)
        assert lp == 0.0

    def test_backscatter_phase_identity(self, continental):
        # sun at zenith, nadir view: scattering angle 180 deg, P_R = 3/2
        geom = Geometry(sza=0.0, saa=0.0, vza=0.0, vaa=0.0)
        tau_r = rayleigh_optical_depth(550.0)
        lp = path_radiance(550.0, geom, 0.0, continental, 1.0)
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
            got = path_radiance(wl, geom, aod, continental, e0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_phase_functions(self):
        assert rayleigh_phase(-1.0) == 1.5
        assert henyey_greenstein_phase(0.0, 0.0) == 1.0


class TestTransmittanceUp:
    def test_transparent_atmosphere(self, continental, rayleigh_tau):
        rayleigh_tau(0.0)
        assert transmittance_up(550.0, 0.0, 0.0, continental) == 1.0

    def test_half_rayleigh_closed_form(self, continental, rayleigh_tau):
        rayleigh_tau(0.1)
        got = transmittance_up(550.0, 0.0, 0.0, continental)
        assert got == pytest.approx(math.exp(-0.05), rel=1e-9)

    def test_monotone_in_view_angle(self, continental):
        values = [transmittance_up(550.0, vza, 0.3, continental) for vza in range(0, 89, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_aerosol_depth(self, continental):
        values = [transmittance_up(550.0, 30.0, aod, continental) for aod in (0, 0.2, 0.5, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestDownwellingIrradiance:
    def test_transparent_overhead_sun(self, continental, rayleigh_tau):
        rayleigh_tau(0.0)
        assert downwelling_irradiance(
            550.0, 0.0, 0.0, continental, 1.36
        ) == pytest.approx(1.36)

    def test_cosine_factor(self, continental, rayleigh_tau):
        rayleigh_tau(0.0)
        assert downwelling_irradiance(
            550.0, 60.0, 0.0, continental, 2.0
        ) == pytest.approx(1.0)

    def test_attenuated_closed_form(self, continental, rayleigh_tau):
        rayleigh_tau(0.1)
        got = downwelling_irradiance(550.0, 0.0, 0.0, continental, 1.0)
        assert got == pytest.approx(math.exp(-0.05), rel=1e-9)


class TestSphericalAlbedo:
    def test_empty_atmosphere(self, continental, rayleigh_tau):
        rayleigh_tau(0.0)
        assert spherical_albedo(550.0, 0.0, continental) == 0.0

    def test_rayleigh_only_closed_form(self, continental, rayleigh_tau):
        rayleigh_tau(0.1)
        got = spherical_albedo(550.0, 0.0, continental)
        assert got == pytest.approx(0.092, rel=1e-9)

    def test_clamped(self, continental):
        wl = np.arange(350.0, 2600.0, 2.5)
        s = spherical_albedo(wl, 50.0, continental)
        assert np.all(s >= 0) and np.all(s <= 0.99)


class TestComputeBandParams:
    def test_delta_srf_reduces_to_scalar_ops(
        self, default_geometry, default_state, continental
    ):
        grid = SpectralGrid(350, 2600, 2.5)
        e0 = resample_reference_spectrum(load_solar_irradiance(), grid)
        band = BandDefinition(0, 550.0, 6.5)
        i550 = 80  # (550 - 350) / 2.5
        srf = SRF(0, i550, np.array([1.0]))
        provider = AnalyticProvider(
            grid, default_geometry, default_state, continental, e0
        )
        p = provider.band_params(band, srf)
        g, s = default_geometry, default_state
        e0_550 = e0[i550]
        assert p.l_path == pytest.approx(
            path_radiance(550.0, g, s.aod550, continental, e0_550), rel=1e-12
        )
        assert p.t_g_o3 == pytest.approx(
            ozone_transmittance(550.0, s.tco3, g.sza, g.vza), rel=1e-12
        )
        assert p.t_g_total == pytest.approx(
            gas_transmittance_total(550.0, s.tcwv, s.tco3, g.sza, g.vza), rel=1e-12
        )
        assert p.t_up == pytest.approx(
            transmittance_up(550.0, g.vza, s.aod550, continental), rel=1e-12
        )
        assert p.s_atm == pytest.approx(
            spherical_albedo(550.0, s.aod550, continental), rel=1e-12
        )
        assert p.e_s == pytest.approx(
            downwelling_irradiance(550.0, g.sza, s.aod550, continental, e0_550), rel=1e-12
        )

    def test_transparent_atmosphere_identity(
        self, default_geometry, continental, rayleigh_tau
    ):
        rayleigh_tau(0.0)
        grid = SpectralGrid(500, 600, 2.5)
        e0 = np.full(grid.n_points, 1.7)
        state = AtmosphericState(aod550=0.0, tcwv=0.0, tco3=0.0, source="override")
        band = BandDefinition(0, 550.0, 6.5)
        srf = gaussian_srf(band, grid)
        provider = AnalyticProvider(grid, default_geometry, state, continental, e0)
        p = provider.band_params(band, srf)
        assert p.l_path == 0.0
        assert p.t_g_o3 == 1.0
        assert p.t_g_total == 1.0
        assert p.t_up == 1.0
        assert p.s_atm == 0.0
        assert p.e_s == pytest.approx(1.7 * default_geometry.mu_s, rel=1e-12)

    def test_band_values_bounded_by_fine_grid(
        self, default_geometry, default_state, continental
    ):
        from hsac.atmosphere import FINE_FIELD_NAMES

        grid = SpectralGrid(500, 700, 2.5)
        e0 = np.linspace(1.5, 1.9, grid.n_points)
        fields = compute_fine_fields(
            grid, default_geometry, default_state, continental, e0
        )
        band = BandDefinition(0, 600.0, 8.0)
        srf = gaussian_srf(band, grid)
        provider = AnalyticProvider(
            grid, default_geometry, default_state, continental, e0
        )
        p = provider.band_params(band, srf)
        for name in FINE_FIELD_NAMES:
            value = getattr(p, name)
            assert fields[name].min() - 1e-12 <= value <= fields[name].max() + 1e-12

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
            for name in ("t_g_o3", "t_g_total", "t_up"):
                assert np.all(fields[name] > 0) and np.all(fields[name] <= 1.0)
            assert np.all(fields["s_atm"] >= 0) and np.all(fields["s_atm"] <= 0.99)
            assert np.all(fields["l_path"] >= 0)
            assert np.all(fields["e_s"] >= 0)


class TestParamsTable:
    HEADER = "band_index,l_path,t_g_o3,t_g_total,t_up,s_atm,e_s\n"

    def test_identity_ingest(self):
        text = (
            self.HEADER
            + "0,0.1,0.9,0.8,0.95,0.05,1.5\n"
            + "1,0.2,0.91,0.81,0.96,0.06,1.6\n"
            + "2,0.3,0.92,0.82,0.97,0.07,1.7\n"
        )
        params = load_params_table(text)
        assert len(params) == 3
        assert params[1].l_path == 0.2
        assert params[2].e_s == 1.7

    def test_invariant_violation_names_band_and_field(self):
        text = self.HEADER + "0,0.1,0.9,0.8,1.2,0.05,1.5\n"
        with pytest.raises(InvariantViolation, match="band 0.*t_up"):
            load_params_table(text)

    def test_duplicate_band(self):
        text = self.HEADER + "0,0.1,0.9,0.8,0.9,0.05,1.5\n0,0.1,0.9,0.8,0.9,0.05,1.5\n"
        with pytest.raises(DuplicateBand):
            load_params_table(text)

    def test_missing_band(self):
        text = self.HEADER + "0,0.1,0.9,0.8,0.9,0.05,1.5\n2,0.1,0.9,0.8,0.9,0.05,1.5\n"
        with pytest.raises(MissingBand):
            load_params_table(text)

    def test_schema_violation(self):
        with pytest.raises(SchemaViolation):
            load_params_table("wrong,header\n")

    def test_serialization_round_trip_exact(self):
        rng = np.random.default_rng(23)
        params = [random_params(rng, i) for i in range(10)]
        back = load_params_table(serialize_params_table(params))
        for a, b in zip(params, back):
            assert a == b  # %.17g keeps float64 exact


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
        sza=30.0, saa=0.0, vza=0.0, vaa=0.0,
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
        with pytest.raises(MissingEntry, match="TOMS/MERGED"):
            cat.lookup(OZONE_DATASET, "2024-07-24", BBOX)
        with pytest.raises(MissingEntry, match="tco3"):
            resolve_atmospheric_state(
                scene_metadata(tco3=None), policy="catalogue_first",
                catalogue=cat, bbox=BBOX,
            )

    def test_date_must_match_exactly(self):
        cat = AuxCatalogue(CATALOGUE)
        for dataset in DATASETS:
            with pytest.raises(MissingEntry):
                cat.lookup(dataset, "2024-07-25", BBOX)

    def test_bbox_containment_required(self):
        cat = AuxCatalogue(CATALOGUE)
        for dataset in DATASETS:
            with pytest.raises(MissingEntry):
                cat.lookup(dataset, "2024-07-24", [-5.0, 39.0, -0.9, 39.1])


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

    def test_missing_everywhere_raises(self):
        with pytest.raises(MissingEntry, match="aod550"):
            resolve_atmospheric_state(scene_metadata(aod=None), policy="metadata_first")

    def test_override_policy(self):
        override = AtmosphericState(aod550=0.5, tcwv=3.0, tco3=280.0, source="override")
        state = resolve_atmospheric_state(
            scene_metadata(), policy="override", override=override
        )
        assert state == override

    def test_unknown_aerosol_model(self):
        with pytest.raises(OutOfRange, match="Lunar"):
            aerosol_model("Lunar")
