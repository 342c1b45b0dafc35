"""Per-band atmospheric parameters for the inversion.

Three sources feed the inversion:
  * a built-in analytic provider (single-scattering path reflectance,
    Gordon-style diffuse transmittance, band-model gas absorption from
    bundled coefficient tables);
  * a table provider ingesting externally computed parameter CSVs;
  * a local auxiliary-data catalogue for atmospheric state variables.

Both providers yield a band table: a (bands, 6) float64 array, one row per
band and one column per FINE_FIELD_NAMES entry, which the inversion and
the export read as it is; BandAtmParams is one row of it. All provider
outputs are normalized to 1 AU; the d^2 factor is applied only by
`kernel_terms`, for the inversion and the forward model.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HsacError
from .scene import (
    STATE_KEYS,
    WAVELENGTH_MAX,
    WAVELENGTH_MIN,
    BandDefinition,
    Geometry,
    SceneMetadata,
    check_state_value,
    iso_date,
)
from .spectral import SpectralGrid, SRFTable, convolve

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")  # the bundled data assets
# the columns of a band table, one row per band, at 1 AU
FINE_FIELD_NAMES = ("l_path", "t_g_o3", "t_g_total", "t_up", "s_atm", "e_s")
L_PATH, T_G_O3, T_G_TOTAL, T_UP, S_ATM, E_S = range(len(FINE_FIELD_NAMES))
TRANSMITTANCES = slice(T_G_O3, T_UP + 1)
PARAMS_TABLE_HEADER = ["band_index", *FINE_FIELD_NAMES]
# the range rule of a band table: each column's interval, in the order checked
RANGE_RULE = (
    (T_G_O3, "(0, 1]"),
    (T_G_TOTAL, "(0, 1]"),
    (T_UP, "(0, 1]"),
    (S_ATM, "[0, 1)"),
    (L_PATH, "[0, inf)"),
    (E_S, "[0, inf)"),
)
IN_INTERVAL = {
    "(0, 1]": lambda v: (0.0 < v) & (v <= 1.0),
    "[0, 1)": lambda v: (0.0 <= v) & (v < 1.0),
    "[0, inf)": lambda v: (0.0 <= v) & (v < math.inf),
}


def check_band_table(table: np.ndarray, first_band: int = 0) -> None:
    """The one range rule of band parameters. The error names the first
    band (row k is band first_band + k) that breaks it, and that band's
    first field in rule order."""
    fails = np.array([~IN_INTERVAL[interval](table[:, col]) for col, interval in RANGE_RULE])
    if fails.any():
        band = int(np.flatnonzero(fails.any(axis=0))[0])
        col, interval = RANGE_RULE[int(np.argmax(fails[:, band]))]
        raise HsacError(
            f"band {first_band + band}: {FINE_FIELD_NAMES[col]} = "
            f"{float(table[band, col])} outside {interval}"
        )


def kernel_terms(table: np.ndarray, d_squared: float) -> np.ndarray:
    """(bands, 3) kernel terms of a band table at squared Earth-Sun distance
    `d_squared`, the 6S coefficients (Vermote et al., 1997) xa = d^2 /
    (T_g_O3 * c), xb = L_path / c and xc = S_atm, with c = E_s * T_up / pi.
    A band with E_s = 0 gets infinite or NaN xa and xb. d^2 enters the
    inversion and the forward model here only, and here a d^2 that is not
    finite and > 0 is refused."""
    if not 0.0 < d_squared < math.inf:  # NaN too
        raise HsacError(f"d_squared must be finite and > 0, got {d_squared}")
    c = table[:, E_S] * table[:, T_UP] / math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([d_squared / (table[:, T_G_O3] * c), table[:, L_PATH] / c,
                         table[:, S_ATM]], axis=1)


@dataclass(frozen=True)
class BandAtmParams:
    """The parameters of one band, a band table row with its band index."""

    band_index: int
    l_path: float
    t_g_o3: float
    t_g_total: float
    t_up: float
    s_atm: float
    e_s: float

    def __post_init__(self):
        check_band_table(np.array([self.row]), self.band_index)

    @property
    def row(self) -> tuple[float, ...]:
        return operator.attrgetter(*FINE_FIELD_NAMES)(self)

    def kernel_terms(self, d_squared: float) -> tuple[float, float, float]:
        """(xa, xb, xc), the kernel's terms at `d_squared` (see `kernel_terms`)."""
        return tuple(kernel_terms(np.array([self.row]), d_squared)[0].tolist())


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


# --- bundled tables -------------------------------------------------------

@lru_cache(maxsize=None)
def _load_table(filename: str) -> np.ndarray:
    path = os.path.join(DATA_DIR, filename)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
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
        raise HsacError(f"unknown aerosol model {name!r}; choose from {sorted(models)}")
    return models[name]


def load_solar_irradiance() -> np.ndarray:
    """The bundled exo-atmospheric irradiance, a read-only (n, 2) array of
    (wavelength nm, irradiance) rows at 1 AU."""
    return _load_table("solar_irradiance.csv")


def _table_interp(wavelength, filename: str, column: int) -> np.ndarray:
    table = _load_table(filename)
    return np.interp(wavelength, table[:, 0], table[:, column])


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
# Each takes its inputs as already checked: the angles by Geometry, the
# state by AtmosphericState, and the wavelengths by rayleigh_optical_depth,
# which compute_fine_fields calls first.

def rayleigh_optical_depth(wavelength):
    """Rayleigh optical depth at standard pressure (Hansen-Travis closed form)."""
    wl = np.asarray(wavelength, dtype=np.float64)
    if np.any(wl < WAVELENGTH_MIN) or np.any(wl > WAVELENGTH_MAX):
        raise HsacError(f"wavelength outside [{WAVELENGTH_MIN}, {WAVELENGTH_MAX}] nm")
    um = wl / 1000.0
    return 0.008569 * um**-4 * (1.0 + 0.0113 * um**-2 + 0.00013 * um**-4)


def aerosol_optical_depth(wavelength, aod550: float, model: AerosolModel):
    """Angstrom power-law extrapolation of the 550 nm aerosol optical depth."""
    wl = np.asarray(wavelength, dtype=np.float64)
    return aod550 * (wl / 550.0) ** (-model.angstrom_exponent)


def gas_transmittance(wavelength, tcwv: float, tco3: float, geometry: Geometry):
    """Two-way gaseous transmittances (T_O3, T_O3 * T_H2O * T_O2); tcwv in
    g cm^-2, tco3 in Dobson Units, along the sun-surface-sensor air mass."""
    m = 1.0 / geometry.mu_s + 1.0 / geometry.mu_v
    t_o3 = np.exp(-ozone_coefficient(wavelength) * (tco3 / 1000.0) * m)  # DU -> atm-cm
    a, b = water_vapour_coefficients(wavelength)
    t_h2o = np.exp(-a * np.power(tcwv * m, b))
    t_o2 = np.exp(-oxygen_coefficient(wavelength) * math.sqrt(m))
    return t_o3, t_o3 * t_h2o * t_o2


def rayleigh_phase(cos_theta: float) -> float:
    return 0.75 * (1.0 + cos_theta * cos_theta)


def henyey_greenstein_phase(cos_theta: float, g: float) -> float:
    return (1.0 - g * g) / (1.0 + g * g - 2.0 * g * cos_theta) ** 1.5


def path_radiance(tau_r, tau_a, geometry: Geometry, model: AerosolModel, e0):
    """Single-scattering path radiance at 1 AU.

    rho_path = [tau_R * P_R + ssa * tau_a * P_HG] / (4 mu_s mu_v),
    L_path = rho_path * E0 * mu_s / pi.
    """
    cos_theta = geometry.cos_scattering
    rho = (
        tau_r * rayleigh_phase(cos_theta)
        + model.single_scatter_albedo
        * tau_a
        * henyey_greenstein_phase(cos_theta, model.asymmetry)
    ) / (4.0 * geometry.mu_s * geometry.mu_v)
    return rho * e0 * geometry.mu_s / math.pi


def diffuse_transmittance(tau_r, tau_a, mu: float, model: AerosolModel):
    """Gordon-style total (direct + diffuse) transmittance along a slant
    path of cosine mu: T_up at mu_v, T_down at mu_s."""
    forward_fraction = (1.0 + model.asymmetry) / 2.0
    effective = tau_r / 2.0 + (1.0 - model.single_scatter_albedo * forward_fraction) * tau_a
    return np.exp(-effective / mu)


def spherical_albedo(tau_r, tau_a, model: AerosolModel):
    """First-order atmospheric spherical albedo, clamped to [0, 0.99]."""
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
) -> np.ndarray:
    """Every per-wavelength quantity on the full simulation grid: a
    (grid points, 6) array, one column per FINE_FIELD_NAMES entry. The
    optical depths and gas terms are evaluated once and passed down;
    E_s = E0 mu_s T_down."""
    wl = grid.wavelengths
    tau_r = rayleigh_optical_depth(wl)
    tau_a = aerosol_optical_depth(wl, state.aod550, model)
    t_o3, t_total = gas_transmittance(wl, state.tcwv, state.tco3, geometry)
    return np.stack([
        path_radiance(tau_r, tau_a, geometry, model, e0_grid),
        t_o3,
        t_total,
        diffuse_transmittance(tau_r, tau_a, geometry.mu_v, model),
        spherical_albedo(tau_r, tau_a, model),
        e0_grid * geometry.mu_s * diffuse_transmittance(tau_r, tau_a, geometry.mu_s, model),
    ], axis=1)


class AnalyticProvider:
    """Computes band parameters from the built-in analytic model.

    Fine-grid fields are evaluated once per scene, as `compute_fine_fields`'
    array; `band_table` convolves them to every band.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        geometry: Geometry,
        state: AtmosphericState,
        model: AerosolModel,
        e0_grid: np.ndarray,
    ):
        self.fields = compute_fine_fields(grid, geometry, state, model, e0_grid)

    def _convolved(self, srfs: SRFTable) -> np.ndarray:
        table = convolve(self.fields, srfs)
        # the weighted mean of in-range samples can leave the range by one ulp
        np.minimum(table[:, TRANSMITTANCES], 1.0, out=table[:, TRANSMITTANCES])
        np.clip(table[:, S_ATM], 0.0, 0.99, out=table[:, S_ATM])
        table[:, [L_PATH, E_S]] = np.maximum(table[:, [L_PATH, E_S]], 0.0)
        return table

    def band_table(self, srfs: SRFTable) -> np.ndarray:
        """The (bands, 6) parameters of every band of an SRF table."""
        table = self._convolved(srfs)
        check_band_table(table)
        return table

    def band_params(self, band: BandDefinition, srfs: SRFTable) -> BandAtmParams:
        """One band's parameters from its one-row SRF table: its row of any
        `band_table`, to the bit."""
        return BandAtmParams(band.index, *self._convolved(srfs)[0].tolist())


# --- table provider -------------------------------------------------------


def load_params_table(text: str) -> np.ndarray:
    """Parse a parameter CSV into a (bands, 6) band table in band order;
    band indices must be complete and unique."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise HsacError("empty parameter table") from None
    if [h.strip() for h in header] != PARAMS_TABLE_HEADER:
        raise HsacError(f"header {header} != expected {PARAMS_TABLE_HEADER}")
    rows: dict[int, list[float]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(PARAMS_TABLE_HEADER):
            raise HsacError(
                f"row has {len(row)} fields, expected {len(PARAMS_TABLE_HEADER)}: {row}"
            )
        try:
            idx = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise HsacError(f"non-numeric row: {row}") from exc
        if idx in rows:
            raise HsacError(f"band {idx} appears more than once")
        rows[idx] = values
    # the n indices are unique, so none missing from 0..n-1 means exactly 0..n-1
    missing = sorted(set(range(len(rows))) - set(rows))
    if missing:
        raise HsacError(f"band indices not contiguous from 0; problem: {missing}")
    table = np.array([rows[i] for i in range(len(rows))], dtype=np.float64)
    table = table.reshape(len(rows), len(FINE_FIELD_NAMES))
    check_band_table(table)
    return table


def serialize_params_table(table: np.ndarray) -> str:
    """Inverse of load_params_table; %.17g keeps float64 round-trip exact."""
    row = "%d" + ",%.17g" * len(FINE_FIELD_NAMES) + "\n"
    return ",".join(PARAMS_TABLE_HEADER) + "\n" + "".join(
        row % (i, *values) for i, values in enumerate(table.tolist()))


class TableProvider:
    """Serves a pre-computed band table, one row per band in band order."""

    def __init__(self, table: np.ndarray):
        self.table = table

    @classmethod
    def from_csv(cls, text: str, n_bands: int) -> "TableProvider":
        """The table of an n_bands scene; a table of another size is refused."""
        table = load_params_table(text)
        if len(table) != n_bands:
            raise HsacError(f"parameter table has {len(table)} bands, the scene has {n_bands}")
        return cls(table)

    def band_params(self, band: BandDefinition, srfs: SRFTable) -> BandAtmParams:
        return BandAtmParams(band.index, *self.table[band.index].tolist())


# --- auxiliary catalogue --------------------------------------------------

AOD_DATASET = "MODIS/061/MCD19A2_GRANULES"
OZONE_DATASET = "TOMS/MERGED"
WV_DATASET = "NCEP_RE/surface_wv"
CATALOGUE_DATASETS = {"aod550": AOD_DATASET, "tcwv": WV_DATASET, "tco3": OZONE_DATASET}


def _is_finite_number(value) -> bool:
    # json.loads reads NaN and Infinity as floats, and integers of any size
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _is_catalogue_entry(entry) -> bool:
    """An object that `lookup` can match, holding a value that an atmospheric
    state may take: a string dataset, a YYYY-MM-DD date, a bbox [w, s, e, n]
    of finite numbers with w <= e and s <= n, and a finite value >= 0."""
    try:
        w, s, e, n = entry["bbox"]
        return (isinstance(entry["dataset"], str) and isinstance(entry["bbox"], list)
                and iso_date(entry["date"]) is not None
                and all(map(_is_finite_number, entry["bbox"])) and w <= e and s <= n
                and _is_finite_number(entry["value"]) and entry["value"] >= 0)
    except (KeyError, TypeError, ValueError):  # not an object, a field missing or malformed
        return False


class AuxCatalogue:
    """Local JSON catalogue of atmospheric state scalars.

    Entries: {"dataset": ..., "date": "YYYY-MM-DD", "bbox": [w, s, e, n],
    "value": float}, every number finite, w <= e, s <= n and value >= 0;
    `from_json` refuses an entry of any other shape.
    `lookup` matches the date exactly and requires the query bbox to be
    contained in the entry bbox, with no interpolation; a miss is None.
    """

    def __init__(self, entries: list[dict]):
        self.entries = entries

    @classmethod
    def from_json(cls, text: str) -> "AuxCatalogue":
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HsacError(f"catalogue is not JSON: {exc}") from None
        if not isinstance(entries, list):
            raise HsacError("catalogue JSON must be an array of objects")
        for i, entry in enumerate(entries):
            if not _is_catalogue_entry(entry):
                raise HsacError(
                    f"catalogue entry {i}: {entry!r} is not an object with a string "
                    "dataset, a YYYY-MM-DD date, a bbox [w, s, e, n] of four finite "
                    "numbers with w <= e and s <= n and a finite value >= 0"
                )
        return cls(entries)

    def lookup(self, dataset: str, date: str, bbox) -> float | None:
        """The value of the first entry of `dataset` on `date` whose bbox
        contains `bbox`, or None if there is none."""
        w, s, e, n = bbox
        for entry in self.entries:
            if entry["dataset"] != dataset or entry["date"] != date:
                continue
            ew, es_, ee, en = entry["bbox"]
            if ew <= w and es_ <= s and ee >= e and en >= n:
                return float(entry["value"])
        return None


STATE_POLICIES = ("metadata_first", "catalogue_first")


def resolve_atmospheric_state(
    metadata: SceneMetadata,
    policy: str = "metadata_first",
    catalogue: AuxCatalogue | None = None,
    bbox=None,
) -> AtmosphericState:
    """Pick aod550/tcwv/tco3 per the configured precedence policy.

    Each value comes from the first of metadata and catalogue, in policy
    order, that has it. A source is asked for a value only when the sources
    before it lack it, so under metadata_first complete metadata costs no
    catalogue lookup. The source is the one used, or "mixed" for both. A
    value that neither source holds is an error naming its key.
    """
    if policy not in STATE_POLICIES:
        raise HsacError(f"unknown state policy {policy!r}; "
                        f"choose from {', '.join(STATE_POLICIES)}")
    order = ("metadata", "catalogue") if policy == "metadata_first" else ("catalogue", "metadata")

    date = metadata.acquisition_date.isoformat()
    box = bbox if bbox is not None else [-180.0, -90.0, 180.0, 90.0]

    sources = {
        "metadata": lambda key: getattr(metadata, key),
        "catalogue": lambda key: (None if catalogue is None
                                  else catalogue.lookup(CATALOGUE_DATASETS[key], date, box)),
    }
    values, used = {}, set()
    for key in STATE_KEYS:
        for source in order:
            values[key] = sources[source](key)
            if values[key] is not None:
                used.add(source)
                break
        else:
            raise HsacError(f"no value for {key} from metadata or catalogue")
    return AtmosphericState(source=used.pop() if len(used) == 1 else "mixed", **values)
