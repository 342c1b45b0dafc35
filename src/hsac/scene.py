"""Scene metadata parsing and solar geometry factors.

Metadata arrives as a small XML document (schema documented in the README);
angles are kept in degrees end-to-end and only converted to radians inside
trigonometric evaluation.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import HsacError
from .raster import to_numbers

STATE_KEYS = ("aod550", "tcwv", "tco3")
# the spectral support, in nm, of every band centre and of the bundled tables
WAVELENGTH_MIN = 350.0
WAVELENGTH_MAX = 2600.0
# <acquisitionTime> is HH:MM:SS and an optional fraction of 1 to 6 digits on every
# Python, unlike time.fromisoformat; [0-9], as \d takes any Unicode digit
_TIME_OF_DAY = re.compile(r"([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])(?:\.([0-9]{1,6}))?")


def check_state_value(name: str, value: float) -> None:
    """The one range rule for an atmospheric-state value: finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise HsacError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True, eq=False)
class BandDefinition:
    """One sensor channel: center wavelength and FWHM in nm, optional measured SRF.

    `srf` is an (n, 2) float64 array of (wavelength nm, response) rows;
    `check_measured_srfs` holds the rule for it, and SceneMetadata applies
    it to all the bands of a scene at once.
    """

    index: int
    center_wavelength: float
    fwhm: float
    srf: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.fwhm < math.inf:
            raise HsacError(f"band {self.index}: fwhm must be finite and > 0, got {self.fwhm}")
        if not WAVELENGTH_MIN <= self.center_wavelength <= WAVELENGTH_MAX:
            raise HsacError(
                f"band {self.index}: center wavelength {self.center_wavelength} nm "
                f"outside [{WAVELENGTH_MIN:g}, {WAVELENGTH_MAX:g}]"
            )


SRF_RULE_MESSAGES = (
    "SRF values must be finite",
    "SRF wavelengths not strictly increasing",
    "negative SRF response",
    "SRF has no positive response",
)


def check_measured_srfs(bands) -> None:
    """The one rule for measured SRF samples, run over all bands at once:
    finite, wavelengths strictly increasing (np.interp needs them so), no
    negative response and a positive maximum. The error names the first
    band, in the given order, that breaks it."""
    measured = [b for b in bands if b.srf is not None]
    if not measured:
        return
    counts = np.array([len(b.srf) for b in measured])
    samples = np.concatenate([b.srf for b in measured])
    owner = np.repeat(np.arange(len(measured)), counts)  # band of each sample
    wl, resp = samples[:, 0], samples[:, 1]
    finite = np.isfinite(samples).all(axis=1)
    with np.errstate(invalid="ignore"):
        not_increasing = np.diff(wl) <= 0
    not_increasing &= owner[1:] == owner[:-1]  # pairs within one band
    # the bands breaking each part of the rule, in the order it is checked
    fails = np.zeros((4, len(measured)), dtype=bool)
    fails[0, owner[~finite]] = True
    fails[1, owner[1:][not_increasing]] = True
    fails[2, owner[resp < 0]] = True
    fails[3] = np.bincount(owner[resp > 0], minlength=len(measured)) == 0
    if fails.any():
        first = int(np.flatnonzero(fails.any(axis=0))[0])
        message = SRF_RULE_MESSAGES[int(np.argmax(fails[:, first]))]
        raise HsacError(f"band {measured[first].index}: {message}")


def check_band_indices(indices: list[int], n: int, context: str) -> None:
    """The one band-index rule: `indices`, in any order, are exactly 0..n-1.
    The error is `context`, then the missing, unexpected and duplicated ones."""
    if sorted(indices) != list(range(n)):
        given, expected = set(indices), set(range(n))
        problems = {"missing": expected - given, "unexpected": given - expected,
                    "duplicated": {i for i, count in Counter(indices).items() if count > 1}}
        raise HsacError(f"{context}; band indices must be 0..{n - 1}: "
                        + ", ".join(f"{k} {sorted(v)}" for k, v in problems.items() if v))


@dataclass(frozen=True)
class Geometry:
    """Scene-average acquisition geometry, in degrees: zeniths in [0, 90),
    azimuths in [0, 360), the one range rule for acquisition angles."""

    sza: float
    saa: float
    vza: float
    vaa: float

    def __post_init__(self):
        for name, top in (("sza", 90), ("vza", 90), ("saa", 360), ("vaa", 360)):
            value = getattr(self, name)
            if not 0.0 <= value < top:
                raise HsacError(f"{name} {value} outside [0, {top})")

    @property
    def mu_s(self) -> float:
        return math.cos(math.radians(self.sza))

    @property
    def mu_v(self) -> float:
        return math.cos(math.radians(self.vza))

    @property
    def relative_azimuth(self) -> float:
        """|saa - vaa| folded into [0, 180] degrees."""
        phi = abs(self.saa - self.vaa) % 360.0
        return 360.0 - phi if phi > 180.0 else phi

    @property
    def cos_scattering(self) -> float:
        ts, tv = math.radians(self.sza), math.radians(self.vza)
        phi = math.radians(self.relative_azimuth)
        return -math.cos(ts) * math.cos(tv) - math.sin(ts) * math.sin(tv) * math.cos(phi)

    @classmethod
    def from_metadata(cls, meta: SceneMetadata) -> Geometry:
        # the benchmark's scene generator (perfbench/scenes.py) calls it
        return meta.geometry


@dataclass(frozen=True)
class SceneMetadata:
    """Scene-average acquisition geometry, timestamp and atmospheric state.

    aod550 / tcwv / tco3 are None when the document omits them; the
    atmospheric provider fills them according to the state policy.
    """

    acquisition_date: _dt.date
    acquisition_time: float  # seconds of day, UTC
    geometry: Geometry
    aod550: float | None
    tcwv: float | None
    tco3: float | None
    bands: tuple[BandDefinition, ...] = field(default_factory=tuple)
    scene_id: str = ""

    def __post_init__(self):
        for name in STATE_KEYS:
            value = getattr(self, name)
            if value is not None:
                check_state_value(name, value)
        centers = [b.center_wavelength for b in self.bands]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise HsacError("band center wavelengths must be strictly increasing")
        check_measured_srfs(self.bands)


@dataclass(frozen=True)
class SolarDistanceFactor:
    """Earth-Sun distance for a day of year, in AU, and its square."""

    d_au: float
    d_squared: float


def compute_julian_day(date: _dt.date) -> int:
    """Day of year in [1, 366], leap years included."""
    if not isinstance(date, _dt.date):
        raise HsacError(f"not a calendar date: {date!r}")
    return date.timetuple().tm_yday


def earth_sun_distance(julian_day: int) -> SolarDistanceFactor:
    """Earth-Sun distance from day of year.

    d = 1 - 0.01672 * cos(0.9856 deg * (J - 4)); accurate to <0.1% against
    ephemeris tables, minimum near perihelion (J=4).
    """
    if not 1 <= julian_day <= 366:
        raise HsacError(f"julian day {julian_day} outside [1, 366]")
    d_au = 1.0 - 0.01672 * math.cos(math.radians(0.9856 * (julian_day - 4)))
    return SolarDistanceFactor(d_au=d_au, d_squared=d_au * d_au)


def iso_date(text) -> _dt.date | None:
    """The date that `text` writes as YYYY-MM-DD, else None: the one date
    rule of the scene metadata and the catalogue. date.fromisoformat alone
    also takes 20240724 and 2024-W30-3, but only on Python 3.11 and later."""
    try:
        date = _dt.date.fromisoformat(text)
    except (TypeError, ValueError):
        return None
    return date if date.isoformat() == text else None


def _text_of(root: ET.Element, tag: str) -> str:
    node = root.find(tag)
    if node is None or node.text is None or not node.text.strip():
        raise HsacError(f"missing element <{tag}>")
    return node.text.strip()


def _float_of(root: ET.Element, tag: str, where: str = "") -> float:
    value = _optional_float(root, tag, where)
    if value is None:
        raise HsacError(f"{where}missing element <{tag}>")
    return value


def _optional_float(root: ET.Element, tag: str, where: str = "") -> float | None:
    """The number in element <tag>, None when it is absent or blank; `where`
    prefixes an error's message, as "band 3: " does for a band's elements."""
    node = root.find(tag)
    text = node.text.strip() if node is not None and node.text else ""
    if not text:
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise HsacError(f"{where}element <{tag}> is not a number: {text!r}") from exc


def _parse_srfs(indices: list[int], nodes: list[ET.Element | None]) -> list[np.ndarray | None]:
    """Each band's <srf> samples, None where it has none, as read-only
    (n, 2) views into one array made by one float conversion of all tokens."""
    tokens = [None if node is None else (node.text or "").split() for node in nodes]
    for index, band_tokens in zip(indices, tokens):
        if band_tokens is not None and len(band_tokens) % 2 != 0:
            raise HsacError(f"band {index}: srf needs wavelength/response pairs")
    values = to_numbers([t or [] for t in tokens], np.float64, lambda k, exc: HsacError(
        f"band {indices[k]}: <srf> token is not a number ({exc})"))
    values.flags.writeable = False
    pairs = values.reshape(-1, 2)
    ends = itertools.accumulate(len(t or ()) // 2 for t in tokens)
    return [None if t is None else pairs[end - len(t) // 2:end] for t, end in zip(tokens, ends)]


def _solar_zenith(root: ET.Element) -> float:
    """sza from <sunZenith> or complementary <sunElevation>; both must agree."""
    zen = _optional_float(root, "sunZenith")
    elev = _optional_float(root, "sunElevation")
    if zen is None and elev is None:
        raise HsacError("missing element <sunZenith> (or <sunElevation>)")
    if elev is not None:
        from_elev = 90.0 - elev
        if zen is not None and abs(zen - from_elev) > 0.01:
            raise HsacError(f"sunZenith {zen} inconsistent with sunElevation {elev}")
        if zen is None:
            return from_elev
    return zen  # type: ignore[return-value]


def parse_scene_metadata(xml_document: str) -> SceneMetadata:
    """Parse a scene XML document into a SceneMetadata.

    The error says what is wrong: a document that is not well-formed XML,
    a mandatory element that is missing, or a value that is malformed or
    out of its range.
    """
    try:
        root = ET.fromstring(xml_document)
    except ET.ParseError as exc:
        raise HsacError(f"not well-formed XML: {exc}") from exc

    date_text = _text_of(root, "acquisitionDate")
    acq_date = iso_date(date_text)
    if acq_date is None:
        raise HsacError(f"<acquisitionDate> {date_text!r} is not a YYYY-MM-DD date")

    time_text = _text_of(root, "acquisitionTime")
    hms = _TIME_OF_DAY.fullmatch(time_text)
    if not hms:
        raise HsacError(f"<acquisitionTime> {time_text!r} is not a time of day (HH:MM:SS)")
    seconds = (int(hms[1]) * 3600 + int(hms[2]) * 60 + int(hms[3])
               + int((hms[4] or "").ljust(6, "0")) / 1e6)

    sza = _solar_zenith(root)
    saa = _float_of(root, "sunAzimuth")
    vza = _float_of(root, "viewZenith")
    vaa = _float_of(root, "viewAzimuth")

    band_parent = root.find("bandCharacterisation")
    band_nodes = band_parent.findall("band") if band_parent is not None else []
    index_texts = [node.get("index") for node in band_nodes]
    if None in index_texts:
        raise HsacError("a <band> element has no index attribute")
    indices = to_numbers([[t] for t in index_texts], np.int64, lambda k, exc: HsacError(
        f"band/@index is not an integer: {index_texts[k]!r}")).tolist()
    srfs = _parse_srfs(indices, [node.find("srf") for node in band_nodes])
    bands = sorted(
        (
            BandDefinition(
                index=index,
                center_wavelength=_float_of(node, "centerWavelength", f"band {index}: "),
                fwhm=_float_of(node, "fwhm", f"band {index}: "),
                srf=srf,
            )
            for index, node, srf in zip(indices, band_nodes, srfs)
        ),
        key=lambda b: b.index,
    )

    scene_id_node = root.find("sceneId")
    scene_id = (scene_id_node.text or "").strip() if scene_id_node is not None else ""

    return SceneMetadata(
        acquisition_date=acq_date,
        acquisition_time=seconds,
        aod550=_optional_float(root, "aod550"),
        tcwv=_optional_float(root, "tcwv"),
        tco3=_optional_float(root, "tco3"),
        # after the state's elements, whose parse errors come first
        geometry=Geometry(sza=sza, saa=saa, vza=vza, vaa=vaa),
        bands=tuple(bands),
        scene_id=scene_id,
    )
