"""Per-band atmospheric parameters for the inversion.

Three sources feed the inversion:
  * a built-in analytic provider (single-scattering path reflectance,
    Gordon-style diffuse transmittance, band-model gas absorption from
    bundled coefficient tables);
  * a table provider ingesting externally computed parameter CSVs;
  * a local auxiliary-data catalogue for atmospheric state variables.

All provider outputs are normalized to 1 AU; the d^2 factor is applied
only inside the inversion.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DuplicateBand,
    InvariantViolation,
    LengthMismatch,
    MissingBand,
    MissingEntry,
    OutOfRange,
    SchemaViolation,
)
from .scene import (
    STATE_KEYS,
    WAVELENGTH_MAX,
    WAVELENGTH_MIN,
    BandDefinition,
    SceneMetadata,
    check_state_value,
)
from .spectral import SRF, SpectralGrid, convolve_to_band

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")  # the bundled data assets
TRANSMITTANCES = ("t_g_o3", "t_g_total", "t_up")  # the BandAtmParams fields in (0, 1]


@dataclass(frozen=True)
class BandAtmParams:
    """The per-band quantities the inversion consumes (at 1 AU), in table column order."""

    band_index: int
    l_path: float
    t_g_o3: float
    t_g_total: float
    t_up: float
    s_atm: float
    e_s: float

    def __post_init__(self):
        for name in TRANSMITTANCES:
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvariantViolation(
                    f"band {self.band_index}: {name} = {v} outside (0, 1]"
                )
        if not 0.0 <= self.s_atm < 1.0:
            raise InvariantViolation(
                f"band {self.band_index}: s_atm = {self.s_atm} outside [0, 1)"
            )
        for name in ("l_path", "e_s"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"band {self.band_index}: {name} < 0")

    @property
    def kernel_terms(self) -> tuple[float, float, float, float]:
        """(T_g_O3, L_path, c = E_s * T_up / pi, S_atm), the kernel's terms."""
        return self.t_g_o3, self.l_path, self.e_s * self.t_up / math.pi, self.s_atm


PARAMS_TABLE_HEADER = [f.name for f in dataclasses.fields(BandAtmParams)]
FINE_FIELD_NAMES = tuple(PARAMS_TABLE_HEADER[1:])  # all but band_index


@dataclass(frozen=True)
class AerosolModel:
    name: str
    angstrom_exponent: float
    single_scatter_albedo: float
    asymmetry: float


@dataclass(frozen=True)
class AtmosphericState:
    aod550: float
    tcwv: float
    tco3: float
    source: str  # metadata | catalogue | override

    def __post_init__(self):
        for name in STATE_KEYS:
            check_state_value(name, getattr(self, name))


@dataclass(frozen=True)
class Geometry:
    """Scene-average acquisition geometry, degrees."""

    sza: float
    saa: float
    vza: float
    vaa: float

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
    def from_metadata(cls, meta: SceneMetadata) -> "Geometry":
        return cls(sza=meta.sza, saa=meta.saa, vza=meta.vza, vaa=meta.vaa)


# --- bundled tables -------------------------------------------------------

@lru_cache(maxsize=None)
def _load_table(filename: str) -> np.ndarray:
    path = os.path.join(DATA_DIR, filename)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    table.flags.writeable = False  # shared by every caller of the cache
    return table


@lru_cache(maxsize=None)
def aerosol_models() -> dict[str, AerosolModel]:
    path = os.path.join(DATA_DIR, "aerosol_models.csv")
    models = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            models[row["name"]] = AerosolModel(
                name=row["name"],
                angstrom_exponent=float(row["angstrom"]),
                single_scatter_albedo=float(row["ssa"]),
                asymmetry=float(row["asymmetry"]),
            )
    return models


def aerosol_model(name: str) -> AerosolModel:
    models = aerosol_models()
    if name not in models:
        raise OutOfRange(f"unknown aerosol model {name!r}; choose from {sorted(models)}")
    return models[name]


def load_solar_irradiance() -> np.ndarray:
    """The bundled exo-atmospheric irradiance, a read-only (n, 2) array of
    (wavelength nm, irradiance) rows at 1 AU."""
    return _load_table("solar_irradiance.csv")


def _checked_wavelengths(wavelength) -> np.ndarray:
    wl = np.asarray(wavelength, dtype=np.float64)
    if np.any(wl < WAVELENGTH_MIN) or np.any(wl > WAVELENGTH_MAX):
        raise OutOfRange(f"wavelength outside [{WAVELENGTH_MIN}, {WAVELENGTH_MAX}] nm")
    return wl


def _table_interp(wavelength, filename: str, column: int) -> np.ndarray:
    table = _load_table(filename)
    return np.interp(_checked_wavelengths(wavelength), table[:, 0], table[:, column])


def ozone_coefficient(wavelength) -> np.ndarray:
    """Ozone absorption coefficient k_O3 (atm-cm^-1) from the bundled table."""
    return _table_interp(wavelength, "gas_o3.csv", 1)


def water_vapour_coefficients(wavelength) -> tuple[np.ndarray, np.ndarray]:
    return (
        _table_interp(wavelength, "gas_h2o.csv", 1),
        _table_interp(wavelength, "gas_h2o.csv", 2),
    )


def oxygen_coefficient(wavelength) -> np.ndarray:
    return _table_interp(wavelength, "gas_o2.csv", 1)


# --- scalar atmospheric functions (vectorized over wavelength) ------------

def rayleigh_optical_depth(wavelength):
    """Rayleigh optical depth at standard pressure (Hansen-Travis closed form)."""
    um = _checked_wavelengths(wavelength) / 1000.0
    return 0.008569 * um**-4 * (1.0 + 0.0113 * um**-2 + 0.00013 * um**-4)


def aerosol_optical_depth(wavelength, aod550: float, model: AerosolModel):
    """Angstrom power-law extrapolation of the 550 nm aerosol optical depth."""
    if aod550 < 0:
        raise OutOfRange(f"aod550 must be >= 0, got {aod550}")
    wl = np.asarray(wavelength, dtype=np.float64)
    return aod550 * (wl / 550.0) ** (-model.angstrom_exponent)


def _air_mass(sza: float, vza: float) -> float:
    if not (0 <= sza < 90 and 0 <= vza < 90):
        raise OutOfRange(f"angles must be in [0, 90): sza={sza}, vza={vza}")
    return 1.0 / math.cos(math.radians(sza)) + 1.0 / math.cos(math.radians(vza))


def ozone_transmittance(wavelength, tco3: float, sza: float, vza: float):
    """Two-way ozone transmittance; tco3 in Dobson Units."""
    if tco3 < 0:
        raise OutOfRange("tco3 must be >= 0")
    m = _air_mass(sza, vza)
    u = tco3 / 1000.0  # DU -> atm-cm
    return np.exp(-ozone_coefficient(wavelength) * u * m)


def water_vapour_transmittance(wavelength, tcwv: float, sza: float, vza: float):
    """Band-model water vapour transmittance; tcwv in g cm^-2."""
    if tcwv < 0:
        raise OutOfRange("tcwv must be >= 0")
    m = _air_mass(sza, vza)
    a, b = water_vapour_coefficients(wavelength)
    return np.exp(-a * np.power(tcwv * m, b))


def oxygen_transmittance(wavelength, sza: float, vza: float):
    m = _air_mass(sza, vza)
    return np.exp(-oxygen_coefficient(wavelength) * math.sqrt(m))


def gas_transmittance_total(wavelength, tcwv: float, tco3: float, sza: float, vza: float):
    """Total two-way gaseous transmittance: ozone * water vapour * oxygen."""
    t = (
        ozone_transmittance(wavelength, tco3, sza, vza)
        * water_vapour_transmittance(wavelength, tcwv, sza, vza)
        * oxygen_transmittance(wavelength, sza, vza)
    )
    return t


def rayleigh_phase(cos_theta: float) -> float:
    return 0.75 * (1.0 + cos_theta * cos_theta)


def henyey_greenstein_phase(cos_theta: float, g: float) -> float:
    return (1.0 - g * g) / (1.0 + g * g - 2.0 * g * cos_theta) ** 1.5


def path_radiance(
    wavelength,
    geometry: Geometry,
    aod550: float,
    model: AerosolModel,
    e0_at_band,
):
    """Single-scattering path radiance at 1 AU.

    rho_path = [tau_R * P_R + ssa * tau_a * P_HG] / (4 mu_s mu_v),
    L_path = rho_path * E0 * mu_s / pi.
    """
    e0 = np.asarray(e0_at_band, dtype=np.float64)
    if np.any(e0 < 0):
        raise OutOfRange("e0 must be >= 0")
    tau_r = rayleigh_optical_depth(wavelength)
    tau_a = aerosol_optical_depth(wavelength, aod550, model)
    cos_theta = geometry.cos_scattering
    rho = (
        tau_r * rayleigh_phase(cos_theta)
        + model.single_scatter_albedo
        * tau_a
        * henyey_greenstein_phase(cos_theta, model.asymmetry)
    ) / (4.0 * geometry.mu_s * geometry.mu_v)
    return rho * e0 * geometry.mu_s / math.pi


def _diffuse_transmittance(wavelength, mu: float, aod550, model):
    """Gordon-style total (direct+diffuse) transmittance along a slant path."""
    tau_r = rayleigh_optical_depth(wavelength)
    tau_a = aerosol_optical_depth(wavelength, aod550, model)
    forward_fraction = (1.0 + model.asymmetry) / 2.0
    effective = tau_r / 2.0 + (1.0 - model.single_scatter_albedo * forward_fraction) * tau_a
    return np.exp(-effective / mu)


def transmittance_up(wavelength, vza: float, aod550: float, model: AerosolModel):
    """Upward (surface-to-sensor) total transmittance, direct + diffuse."""
    if not 0 <= vza < 90:
        raise OutOfRange(f"vza {vza} outside [0, 90)")
    return _diffuse_transmittance(wavelength, math.cos(math.radians(vza)), aod550, model)


def downwelling_irradiance(
    wavelength,
    sza: float,
    aod550: float,
    model: AerosolModel,
    e0_at_band,
):
    """Total downwelling surface irradiance at 1 AU: E0 * mu_s * T_down."""
    if not 0 <= sza < 90:
        raise OutOfRange(f"sza {sza} outside [0, 90)")
    mu_s = math.cos(math.radians(sza))
    t_down = _diffuse_transmittance(wavelength, mu_s, aod550, model)
    return np.asarray(e0_at_band, dtype=np.float64) * mu_s * t_down


def spherical_albedo(wavelength, aod550: float, model: AerosolModel):
    """First-order atmospheric spherical albedo, clamped to [0, 0.99]."""
    tau_r = rayleigh_optical_depth(wavelength)
    tau_a = aerosol_optical_depth(wavelength, aod550, model)
    return np.minimum(
        0.92 * tau_r
        + (1.0 - model.asymmetry) * model.single_scatter_albedo * tau_a / 3.0,
        0.99,
    )


# --- analytic provider ----------------------------------------------------

def compute_fine_fields(
    grid: SpectralGrid,
    geometry: Geometry,
    state: AtmosphericState,
    model: AerosolModel,
    e0_grid: np.ndarray,
) -> dict[str, np.ndarray]:
    """Evaluate every per-wavelength quantity on the full simulation grid."""
    wl = grid.wavelengths
    return {
        "l_path": path_radiance(wl, geometry, state.aod550, model, e0_grid),
        "t_g_o3": ozone_transmittance(wl, state.tco3, geometry.sza, geometry.vza),
        "t_g_total": gas_transmittance_total(
            wl, state.tcwv, state.tco3, geometry.sza, geometry.vza
        ),
        "t_up": transmittance_up(wl, geometry.vza, state.aod550, model),
        "s_atm": spherical_albedo(wl, state.aod550, model),
        "e_s": downwelling_irradiance(wl, geometry.sza, state.aod550, model, e0_grid),
    }


class AnalyticProvider:
    """Computes band parameters from the built-in analytic model.

    Fine-grid fields are evaluated once per scene; `band_params` convolves
    them to one band.
    """

    provenance = "analytic"

    def __init__(
        self,
        grid: SpectralGrid,
        geometry: Geometry,
        state: AtmosphericState,
        model: AerosolModel,
        e0_grid: np.ndarray,
    ):
        self.fields = compute_fine_fields(grid, geometry, state, model, e0_grid)

    def band_params(self, band: BandDefinition, srf: SRF) -> BandAtmParams:
        """Convolve each fine-grid quantity to the band through its SRF."""
        spectra = [self.fields[name] for name in FINE_FIELD_NAMES]
        values = dict(zip(FINE_FIELD_NAMES, convolve_to_band(spectra, srf)))
        # The weighted mean of in-range samples can exceed the range by one ulp.
        for name in TRANSMITTANCES:
            values[name] = min(values[name], 1.0)
        values["s_atm"] = min(max(values["s_atm"], 0.0), 0.99)
        values["l_path"] = max(values["l_path"], 0.0)
        values["e_s"] = max(values["e_s"], 0.0)
        return BandAtmParams(band_index=band.index, **values)


# --- table provider -------------------------------------------------------


def load_params_table(text: str) -> list[BandAtmParams]:
    """Parse a parameter CSV; band indices must be complete and unique."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaViolation("empty parameter table") from None
    if [h.strip() for h in header] != PARAMS_TABLE_HEADER:
        raise SchemaViolation(
            f"header {header} != expected {PARAMS_TABLE_HEADER}"
        )
    params: dict[int, BandAtmParams] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(PARAMS_TABLE_HEADER):
            raise SchemaViolation(
                f"row has {len(row)} fields, expected {len(PARAMS_TABLE_HEADER)}: {row}"
            )
        try:
            idx = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise SchemaViolation(f"non-numeric row: {row}") from exc
        if idx in params:
            raise DuplicateBand(f"band {idx} appears more than once")
        params[idx] = BandAtmParams(idx, *values)
    # the n indices are unique, so none missing from 0..n-1 means exactly 0..n-1
    missing = sorted(set(range(len(params))) - set(params))
    if missing:
        raise MissingBand(f"band indices not contiguous from 0; problem: {missing}")
    return [params[i] for i in sorted(params)]


def serialize_params_table(params: list[BandAtmParams]) -> str:
    """Inverse of load_params_table; %.17g keeps float64 round-trip exact."""
    row = "%d" + ",%.17g" * len(FINE_FIELD_NAMES) + "\n"
    values = operator.attrgetter(*PARAMS_TABLE_HEADER)
    return ",".join(PARAMS_TABLE_HEADER) + "\n" + "".join(row % values(p) for p in params)


class TableProvider:
    """Serves pre-computed parameters, one per band in band order."""

    provenance = "table"

    def __init__(self, params: list[BandAtmParams]):
        self.params = params

    @classmethod
    def from_csv(cls, text: str, n_bands: int) -> "TableProvider":
        """The table of an n_bands scene; a table of another size is refused."""
        params = load_params_table(text)
        if len(params) != n_bands:
            raise LengthMismatch(f"parameter table has {len(params)} bands, the scene has {n_bands}")
        return cls(params)

    def band_params(self, band: BandDefinition, srf: SRF) -> BandAtmParams:
        return self.params[band.index]


# --- auxiliary catalogue --------------------------------------------------

AOD_DATASET = "MODIS/061/MCD19A2_GRANULES"
OZONE_DATASET = "TOMS/MERGED"
WV_DATASET = "NCEP_RE/surface_wv"
CATALOGUE_DATASETS = {"aod550": AOD_DATASET, "tcwv": WV_DATASET, "tco3": OZONE_DATASET}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_catalogue_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("dataset"), str)
        and isinstance(entry.get("date"), str)
        and isinstance(entry.get("bbox"), list)
        and len(entry["bbox"]) == 4
        and all(map(_is_number, entry["bbox"]))
        and _is_number(entry.get("value"))
    )


class AuxCatalogue:
    """Local JSON catalogue of atmospheric state scalars.

    Entries: {"dataset": ..., "date": "YYYY-MM-DD", "bbox": [w, s, e, n],
    "value": float}; `from_json` refuses an entry of any other shape.
    Lookup matches the date exactly and requires the query bbox to be
    contained in the entry bbox; no interpolation.
    """

    def __init__(self, entries: list[dict]):
        self.entries = entries

    @classmethod
    def from_json(cls, text: str) -> "AuxCatalogue":
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise SchemaViolation("catalogue JSON must be an array of objects")
        for i, entry in enumerate(entries):
            if not _is_catalogue_entry(entry):
                raise SchemaViolation(
                    f"catalogue entry {i}: {entry!r} is not an object with a string "
                    "dataset and date, a four-number bbox and a numeric value"
                )
        return cls(entries)

    def lookup(self, dataset: str, date: str, bbox) -> float:
        w, s, e, n = bbox
        for entry in self.entries:
            if entry["dataset"] != dataset or entry["date"] != date:
                continue
            ew, es_, ee, en = entry["bbox"]
            if ew <= w and es_ <= s and ee >= e and en >= n:
                return float(entry["value"])
        raise MissingEntry(f"{dataset} has no entry for date={date}, bbox={list(bbox)}")


STATE_POLICIES = ("metadata_first", "catalogue_first", "override")


def resolve_atmospheric_state(
    metadata: SceneMetadata,
    policy: str = "metadata_first",
    catalogue: AuxCatalogue | None = None,
    bbox=None,
    override: AtmosphericState | None = None,
) -> AtmosphericState:
    """Pick aod550/tcwv/tco3 per the configured precedence policy.

    Each value comes from the first of metadata and catalogue, in policy
    order, that has it. A source is asked for a value only when the sources
    before it lack it, so under metadata_first complete metadata costs no
    catalogue lookup. The source is the one used, or "mixed" for both.
    """
    if policy not in STATE_POLICIES:
        raise OutOfRange(f"unknown state policy {policy!r}")
    if policy == "override":
        if override is None:
            raise MissingEntry("state policy 'override' requires explicit values")
        return override
    order = ("metadata", "catalogue") if policy == "metadata_first" else ("catalogue", "metadata")

    date = metadata.acquisition_date.isoformat()
    box = bbox if bbox is not None else [-180.0, -90.0, 180.0, 90.0]

    def from_catalogue(key):
        if catalogue is None:
            return None
        with contextlib.suppress(MissingEntry):
            return catalogue.lookup(CATALOGUE_DATASETS[key], date, box)
        return None

    sources = {"metadata": lambda key: getattr(metadata, key), "catalogue": from_catalogue}
    values, used = {}, set()
    for key in STATE_KEYS:
        for source in order:
            values[key] = sources[source](key)
            if values[key] is not None:
                used.add(source)
                break
        else:
            raise MissingEntry(f"no value for {key} from metadata or catalogue")
    return AtmosphericState(source=used.pop() if len(used) == 1 else "mixed", **values)
