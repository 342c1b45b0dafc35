import datetime

import numpy as np
import pytest

from hsac.errors import HsacError
from hsac.scene import (
    BandDefinition,
    Geometry,
    SceneMetadata,
    compute_julian_day,
    earth_sun_distance,
    parse_scene_metadata,
)

FIXTURE_XML = """<scene>
  <sceneId>TEST-0001</sceneId>
  <acquisitionDate>2024-07-24</acquisitionDate>
  <acquisitionTime>11:01:54</acquisitionTime>
  <sunZenith>35.2</sunZenith>
  <sunAzimuth>145.0</sunAzimuth>
  <viewZenith>5.0</viewZenith>
  <viewAzimuth>100.0</viewAzimuth>
  <aod550>0.12</aod550>
  <tcwv>1.8</tcwv>
  <tco3>310</tco3>
  <bandCharacterisation>
    <band index="0"><centerWavelength>550.0</centerWavelength><fwhm>6.5</fwhm></band>
    <band index="1"><centerWavelength>650.0</centerWavelength><fwhm>6.5</fwhm>
      <srf>645.0 0.1 650.0 1.0 655.0 0.1</srf>
    </band>
  </bandCharacterisation>
</scene>
"""


class TestParseSceneMetadata:
    def test_fixture_fields_echoed(self):
        meta = parse_scene_metadata(FIXTURE_XML)
        assert meta.scene_id == "TEST-0001"
        assert meta.acquisition_date == datetime.date(2024, 7, 24)
        assert meta.acquisition_time == 11 * 3600 + 60 + 54
        assert meta.geometry.sza == 35.2
        assert meta.geometry.saa == 145.0
        assert meta.geometry.vza == 5.0
        assert meta.geometry.vaa == 100.0
        assert meta.aod550 == 0.12
        assert meta.tcwv == 1.8
        assert meta.tco3 == 310
        assert len(meta.bands) == 2
        assert meta.bands[0].center_wavelength == 550.0
        assert meta.bands[1].srf.tolist() == [[645.0, 0.1], [650.0, 1.0], [655.0, 0.1]]

    @pytest.mark.parametrize("text,seconds", [
        ("00:00:00", 0.0), ("23:59:59", 86399.0), ("11:01:54.5", 39714.5),
        ("11:01:54.000250", 39714.00025), ("11:01:54.123456", 39714.123456),
    ])
    def test_time_of_day_with_fraction(self, text, seconds):
        doc = FIXTURE_XML.replace("11:01:54", text)
        assert parse_scene_metadata(doc).acquisition_time == seconds

    @pytest.mark.parametrize("text", [
        "11:01", "11", "11:01:54.", "11:01:54.1234567", "11:01:54Z", "11:1:54",
        "23:59:60", "24:00:00", "١١:01:54",
    ])
    def test_other_time_forms_refused(self, text):
        doc = FIXTURE_XML.replace("11:01:54", text)
        with pytest.raises(HsacError, match=r"^<acquisitionTime> .* is not a time of day"):
            parse_scene_metadata(doc)

    def test_sun_elevation_converted_to_zenith(self):
        doc = FIXTURE_XML.replace(
            "<sunZenith>35.2</sunZenith>", "<sunElevation>60.0</sunElevation>"
        )
        assert parse_scene_metadata(doc).geometry.sza == 30.0

    def test_inconsistent_elevation_and_zenith(self):
        doc = FIXTURE_XML.replace(
            "<sunZenith>35.2</sunZenith>",
            "<sunZenith>35.2</sunZenith><sunElevation>60.0</sunElevation>",
        )
        with pytest.raises(HsacError,
                           match=r"^sunZenith 35\.2 inconsistent with sunElevation 60\.0$"):
            parse_scene_metadata(doc)

    def test_consistent_elevation_and_zenith(self):
        doc = FIXTURE_XML.replace(
            "<sunZenith>35.2</sunZenith>",
            "<sunZenith>35.2</sunZenith><sunElevation>54.8</sunElevation>",
        )
        assert parse_scene_metadata(doc).geometry.sza == 35.2

    def test_missing_view_zenith_names_element(self):
        doc = FIXTURE_XML.replace("<viewZenith>5.0</viewZenith>", "")
        with pytest.raises(HsacError, match="^missing element <viewZenith>$"):
            parse_scene_metadata(doc)

    @pytest.mark.parametrize("old,new,message", [
        ("<viewZenith>5.0", "<viewZenith> ", "missing element <viewZenith>"),
        ("<viewZenith>5.0", "<viewZenith> steep\n",
         "element <viewZenith> is not a number: 'steep'"),
        ("<tcwv>1.8", "<tcwv>\n damp ", "element <tcwv> is not a number: 'damp'"),
        ("<fwhm>6.5</fwhm></band>", "<fwhm>wide</fwhm></band>",
         "band 0: element <fwhm> is not a number: 'wide'"),
    ], ids=["blank_mandatory", "mandatory_word", "optional_word", "band_word"])
    def test_number_elements_read_alike(self, old, new, message):
        # mandatory and optional numbers are one reader: a blank mandatory one
        # is missing, a word in either is named without its white space
        with pytest.raises(HsacError, match=f"^{message}$"):
            parse_scene_metadata(FIXTURE_XML.replace(old, new))

    def test_malformed_document(self):
        with pytest.raises(HsacError, match="^not well-formed XML: "):
            parse_scene_metadata("<scene><unclosed>")

    def test_optional_atmospheric_fields_absent(self):
        doc = FIXTURE_XML.replace("<aod550>0.12</aod550>", "")
        assert parse_scene_metadata(doc).aod550 is None

    def test_angle_out_of_range(self):
        doc = FIXTURE_XML.replace("<sunZenith>35.2</sunZenith>", "<sunZenith>95</sunZenith>")
        with pytest.raises(HsacError, match=r"^sza 95\.0 outside \[0, 90\)$"):
            parse_scene_metadata(doc)

    @pytest.mark.parametrize("old,new", [
        ("<fwhm>6.5</fwhm>", "<fwhm>nan</fwhm>"),
        ("650.0 1.0", "650.0 nan"),
        ("655.0 0.1", "inf 0.1"),
        ("<aod550>0.12</aod550>", "<aod550>nan</aod550>"),
        ("<tcwv>1.8</tcwv>", "<tcwv>inf</tcwv>"),
    ])
    def test_non_finite_value_rejected(self, old, new):
        with pytest.raises(HsacError, match="finite"):
            parse_scene_metadata(FIXTURE_XML.replace(old, new, 1))

    def test_srf_token_not_a_number(self):
        with pytest.raises(HsacError, match=r"band 1: <srf> token is not a number.*'x'"):
            parse_scene_metadata(FIXTURE_XML.replace("650.0 1.0", "650.0 x", 1))

    def test_srf_odd_token_count(self):
        with pytest.raises(HsacError, match=r"band 1: srf needs wavelength/response pairs"):
            parse_scene_metadata(FIXTURE_XML.replace("655.0 0.1", "655.0", 1))

    def test_srf_samples_are_read_only(self):
        srf = parse_scene_metadata(FIXTURE_XML).bands[1].srf
        assert srf.dtype == np.float64 and srf.shape == (3, 2)
        with pytest.raises(ValueError):
            srf[0, 1] = 2.0

    @pytest.mark.parametrize("srf0,srf2,message", [
        ("500 0.1 505 -0.1", "745 0 750 1", "band 0: negative SRF response"),
        ("505 0.1 500 -0.1", "745 0 750 1", "band 0: SRF wavelengths not strictly increasing"),
        ("500 0.1 505 0.5", "750 0 745 1", "band 2: SRF wavelengths not strictly increasing"),
        ("500 0.1 505 0.5", "745 0 750 0", "band 2: SRF has no positive response"),
        ("500 0.1 505 0.5", "", "band 2: SRF has no positive response"),
        ("500 nan 505 -0.5", "745 0 750 0", "band 0: SRF values must be finite"),
    ], ids=["negative", "both_rules_increasing_first", "later_band", "all_zero", "empty",
            "nan"])
    def test_first_band_breaking_the_srf_rule_is_named(self, srf0, srf2, message):
        bands = "".join(
            f'<band index="{i}"><centerWavelength>{c}</centerWavelength><fwhm>6.5</fwhm>'
            f"{srf}</band>"
            for i, c, srf in ((0, 502.0, f"<srf>{srf0}</srf>"), (1, 600.0, ""),
                              (2, 748.0, f"<srf>{srf2}</srf>"),
                              (3, 800.0, "<srf>795 0.5 800 1 805 -1</srf>")))
        start, rest = FIXTURE_XML.split("<bandCharacterisation>")
        end = rest.split("</bandCharacterisation>")[1]
        doc = f"{start}<bandCharacterisation>{bands}</bandCharacterisation>{end}"
        with pytest.raises(HsacError, match=f"^{message}$"):
            parse_scene_metadata(doc)

    def test_band_index_not_an_integer(self):
        with pytest.raises(HsacError, match=r"band/@index is not an integer: 'two'"):
            parse_scene_metadata(FIXTURE_XML.replace('index="1"', 'index="two"'))


class TestInvariants:
    def test_fwhm_positive(self):
        with pytest.raises(HsacError, match="^band 0: fwhm must be finite and > 0, got 0.0$"):
            BandDefinition(index=0, center_wavelength=550.0, fwhm=0.0)

    def test_center_wavelength_range(self):
        with pytest.raises(HsacError,
                           match=r"^band 0: center wavelength 3000.0 nm outside \[350, 2600\]$"):
            BandDefinition(index=0, center_wavelength=3000.0, fwhm=6.5)

    def test_band_centers_strictly_increasing(self):
        bands = (
            BandDefinition(0, 650.0, 6.5),
            BandDefinition(1, 550.0, 6.5),
        )
        with pytest.raises(HsacError, match="^band center wavelengths must be strictly increasing$"):
            SceneMetadata(
                acquisition_date=datetime.date(2024, 1, 1),
                acquisition_time=0.0,
                geometry=Geometry(sza=30.0, saa=0.0, vza=0.0, vaa=0.0),
                aod550=0.1,
                tcwv=1.0,
                tco3=300.0,
                bands=bands,
            )


class TestJulianDay:
    def test_year_start(self):
        assert compute_julian_day(datetime.date(2024, 1, 1)) == 1

    def test_leap_year_midsummer(self):
        # oracle: days since Jan 1 plus one
        d = datetime.date(2024, 7, 24)
        assert (d - datetime.date(2024, 1, 1)).days + 1 == 206
        assert compute_julian_day(d) == 206

    def test_non_leap_year_end(self):
        assert compute_julian_day(datetime.date(2023, 12, 31)) == 365

    def test_leap_year_end(self):
        assert compute_julian_day(datetime.date(2024, 12, 31)) == 366

    def test_invalid_input(self):
        with pytest.raises(HsacError, match="^not a calendar date: '2024-01-01'$"):
            compute_julian_day("2024-01-01")


class TestEarthSunDistance:
    def test_perihelion_minimum(self):
        # cross-checked against ephemeris tables: early-January minimum
        assert earth_sun_distance(4).d_au == pytest.approx(0.98328, abs=5e-4)

    def test_aphelion_maximum(self):
        assert earth_sun_distance(186).d_au == pytest.approx(1.01671, abs=5e-4)

    def test_range_bound_all_days(self):
        for j in range(1, 367):
            f = earth_sun_distance(j)
            assert 0.983 <= f.d_au <= 1.017
            assert f.d_squared == f.d_au**2

    def test_out_of_range(self):
        for j in (0, 367):
            with pytest.raises(HsacError, match=rf"^julian day {j} outside \[1, 366\]$"):
                earth_sun_distance(j)
