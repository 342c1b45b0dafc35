"""The shared reader of user tables (`raster.read_numeric_csv` through
`raster.parse_file`) and the one band-index rule (`scene.check_band_indices`),
checked against oracles that apply the per-row rules of parameter tables and
reference CSVs one line at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_params
from hsac.atmosphere import PARAMS_TABLE_HEADER, load_params_table
from hsac.errors import HsacError
from hsac.metrics import load_reference_spectrum
from hsac.raster import parse_file, read_numeric_csv
from hsac.scene import check_band_indices

# (low, high, low included, high included) of each band-table column
PARAM_RANGES = {
    "l_path": (0.0, math.inf, True, False),
    "t_g_o3": (0.0, 1.0, False, True),
    "t_g_total": (0.0, 1.0, False, True),
    "t_up": (0.0, 1.0, False, True),
    "s_atm": (0.0, 1.0, True, False),
    "e_s": (0.0, math.inf, True, False),
}
PARAM_CORRUPTIONS = ("none", "not_a_number", "field_count", "index_float", "index_negative",
                     "index_duplicated", "index_missing", "nan_value")
REFERENCE_CORRUPTIONS = ("none", "not_a_number", "field_count", "nan_wavelength",
                         "inf_value", "not_increasing")


def in_range(value: float, low: float, high: float, low_in: bool, high_in: bool) -> bool:
    above = low <= value if low_in else low < value
    return above and (value <= high if high_in else value < high)


def params_oracle(text: str, n_bands: int):
    """("table", rows in band order), ("line", number) or ("indices", (missing,
    unexpected, duplicated)), by the rules applied one row at a time: a row is
    seven comma-separated fields, an int() index and six float() values."""
    rows = {}
    for number, line in enumerate(text.splitlines()[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(PARAMS_TABLE_HEADER):
            return "line", number
        try:
            index, values = int(fields[0]), [float(f) for f in fields[1:]]
        except ValueError:
            return "line", number
        rows.setdefault(index, []).append((number, values))
    missing = sorted(set(range(n_bands)) - set(rows))
    unexpected = sorted(set(rows) - set(range(n_bands)))
    duplicated = sorted(i for i, found in rows.items() if len(found) > 1)
    if missing or unexpected or duplicated:
        return "indices", (missing, unexpected, duplicated)
    for index in range(n_bands):
        number, values = rows[index][0]
        if not all(in_range(v, *PARAM_RANGES[name]) for v, name in zip(values, PARAM_RANGES)):
            return "line", number
    return "table", [rows[i][0][1] for i in range(n_bands)]


def reference_oracle(text: str):
    """("spectrum", (wavelengths, values, label)), ("line", number) or
    ("empty", None), one line at a time."""
    label, wavelengths, values = "", [], []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].strip().lower().startswith("label:"):
                label = line.split(":", 1)[1].strip()
            continue
        if line.lower().startswith("wavelength"):
            continue
        try:
            w, v = map(float, line.split(","))
        except ValueError:
            return "line", number
        if not (math.isfinite(w) and math.isfinite(v)) or (wavelengths and w <= wavelengths[-1]):
            return "line", number
        wavelengths.append(w)
        values.append(v)
    if not wavelengths:
        return "empty", None
    return "spectrum", (wavelengths, values, label)


def number_text(rng: np.random.Generator, value: float) -> str:
    return repr(value) if rng.random() < 0.5 else "%.17g" % value


def with_blank_lines(rng: np.random.Generator, lines: list[str]) -> list[str]:
    out = []
    for line in lines:
        out += [""] * int(rng.integers(0, 2) * rng.integers(1, 3)) + [line]
    return out


def random_params_table(rng: np.random.Generator):
    """(text, n_bands): a table of 1-8 bands in shuffled order, with blank
    lines and at most one corrupted row."""
    n_bands = int(rng.integers(1, 9))
    rows = [[str(i)] + [number_text(rng, v) for v in random_params(rng, i).row]
            for i in range(n_bands)]
    corruption = PARAM_CORRUPTIONS[int(rng.integers(len(PARAM_CORRUPTIONS)))]
    k = int(rng.integers(n_bands))
    field = int(rng.integers(1, 7))
    if corruption == "not_a_number":
        rows[k][field] = rng.choice(["abc", "0.1.2", "1e", "--1", ""])
    elif corruption == "field_count":
        rows[k] = rows[k][:-1] if rng.random() < 0.5 else rows[k] + ["0.5"]
    elif corruption == "index_float":
        rows[k][0] = f"{k}.0"
    elif corruption == "index_negative":
        rows[k][0] = str(-int(rng.integers(1, 4)))
    elif corruption == "index_duplicated" and n_bands > 1:
        rows[k][0] = str((k + 1) % n_bands)
    elif corruption == "index_missing":
        del rows[k]
    elif corruption == "nan_value":
        rows[k][field] = "nan"
    order = rng.permutation(len(rows))
    lines = with_blank_lines(rng, [",".join(rows[i]) for i in order])
    return ",".join(PARAMS_TABLE_HEADER) + "\n" + "\n".join(lines) + "\n", n_bands


def random_reference(rng: np.random.Generator) -> str:
    """A reference CSV of 0-8 rows in increasing wavelength, with a header,
    0-2 label lines and blank lines, and at most one corrupted row."""
    n_rows = int(rng.integers(0, 9))
    wavelengths = 400.0 + np.cumsum(rng.uniform(0.5, 40.0, n_rows))
    rows = [[number_text(rng, float(w)), number_text(rng, float(rng.uniform(-0.01, 0.05)))]
            for w in wavelengths]
    corruption = REFERENCE_CORRUPTIONS[int(rng.integers(len(REFERENCE_CORRUPTIONS)))]
    if rows:
        k = int(rng.integers(n_rows))
        if corruption == "not_a_number":
            rows[k][int(rng.integers(2))] = "abc"
        elif corruption == "field_count":
            rows[k] = rows[k][:1] if rng.random() < 0.5 else rows[k] + ["7"]
        elif corruption == "nan_wavelength":
            rows[k][0] = "nan"
        elif corruption == "inf_value":
            rows[k][1] = rng.choice(["inf", "-inf"])
        elif corruption == "not_increasing" and k > 0:
            rows[k][0] = rows[k - 1][0] if rng.random() < 0.5 else "399.5"
    lines = [",".join(row) for row in rows]
    if rng.random() < 0.5:
        lines.insert(0, rng.choice(["wavelength_nm,value", "Wavelength (nm), R_rs"]))
    for _ in range(int(rng.integers(0, 3))):  # the last label names it
        label = f"{rng.choice(['label', 'Label'])}: station-{rng.integers(9)}"
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["#", "# "]) + label)
    return "\n".join(with_blank_lines(rng, lines)) + "\n"


def index_problems(missing, unexpected, duplicated) -> str:
    named = {"missing": missing, "unexpected": unexpected, "duplicated": duplicated}
    return ", ".join(f"{k} {v}" for k, v in named.items() if v)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_params_table_agrees_with_the_row_by_row_oracle(table_dir, seed):
    text, n_bands = random_params_table(np.random.default_rng(seed))
    path = table_dir / "table.csv"
    path.write_text(text, encoding="utf-8")
    kind, expected = params_oracle(text, n_bands)
    if kind == "table":
        table = parse_file(str(path), lambda t: load_params_table(t, n_bands))
        assert table.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        return
    with pytest.raises(HsacError) as exc:
        parse_file(str(path), lambda t: load_params_table(t, n_bands))
    message = str(exc.value)
    if kind == "line":
        assert message.startswith(f"{path}:{expected}: ")
    else:
        assert message.startswith(f"{path}: ")
        assert message.endswith(f"; band indices must be 0..{n_bands - 1}: "
                                + index_problems(*expected))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_reference_csv_agrees_with_the_row_by_row_oracle(table_dir, seed):
    text = random_reference(np.random.default_rng(seed))
    path = table_dir / "reference.csv"
    path.write_text(text, encoding="utf-8")
    kind, expected = reference_oracle(text)
    if kind == "spectrum":
        spectrum = load_reference_spectrum(str(path))
        wavelengths, values, label = expected
        assert spectrum.wavelengths.tolist() == wavelengths
        assert spectrum.values.tolist() == values
        assert spectrum.label == label
        return
    with pytest.raises(HsacError) as exc:
        load_reference_spectrum(str(path))
    if kind == "line":
        assert str(exc.value).startswith(f"{path}:{expected}: ")
    else:
        assert str(exc.value) == f"{path}: no data rows"


@pytest.mark.parametrize("indices,n,message", [
    ([-1, 0, 1], 3, "missing [2], unexpected [-1]"),
    ([0, 2], 2, "missing [1], unexpected [2]"),
    ([1, 0, 1], 3, "missing [2], duplicated [1]"),
    ([], 3, "missing [0, 1, 2]"),
], ids=["negative", "gap", "duplicate", "none"])
def test_band_indices_name_missing_unexpected_and_duplicated(indices, n, message):
    with pytest.raises(HsacError) as exc:
        check_band_indices(indices, n, "the table")
    assert str(exc.value) == f"the table; band indices must be 0..{n - 1}: {message}"


def test_band_indices_in_any_order_pass():
    check_band_indices([2, 0, 1], 3, "the table")
    check_band_indices([], 0, "no bands")


def test_quoted_fields_are_not_numbers():
    # quoting is not read: a quoted field is refused on its line
    with pytest.raises(HsacError, match="^non-numeric row: ") as exc:
        read_numeric_csv('# two fields\n\n"400",0.01\n', 2)
    assert exc.value.line == 3
