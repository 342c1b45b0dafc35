"""The bundled data assets are exactly what their generator writes."""

import os
import shutil
import subprocess
import sys

from hsac.atmosphere import DATA_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ASSETS = ("aerosol_models.csv", "bands_228.csv", "gas_h2o.csv", "gas_o2.csv",
          "gas_o3.csv", "solar_irradiance.csv")


def test_bundled_assets_match_generator(tmp_path):
    # the tool writes to ../src/hsac/data relative to itself
    (tmp_path / "tools").mkdir()
    tool = shutil.copy(os.path.join(ROOT, "tools", "make_data_assets.py"), tmp_path / "tools")
    subprocess.run([sys.executable, str(tool)], check=True, capture_output=True, timeout=120)
    generated = tmp_path / "src" / "hsac" / "data"
    assert sorted(os.listdir(generated)) == list(ASSETS)
    for name in ASSETS:
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            assert (generated / name).read_bytes() == fh.read(), name
