"""One benchmark child: a fresh interpreter that runs a batch of scene units
through the `hsac` CLI entry point and writes what it saw to a JSON file.

    python3 perfbench/child.py PLAN.json RESULT.json

PLAN.json holds {"src": ..., "trace": bool, "units": [{"scene", "run",
"compare"}, ...]} where "run" and "compare" are `hsac` argument lists.
Set-up ends once `hsac` is imported and its bundled tables are loaded
through their public loaders, so the first scene does not pay lazy loads.
Each unit is `hsac run` followed by `hsac compare` on its product.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import hsac.cli
    from hsac.atmosphere import (
        aerosol_models,
        load_solar_irradiance,
        oxygen_coefficient,
        ozone_coefficient,
        water_vapour_coefficients,
    )

    load_solar_irradiance()
    aerosol_models()
    ozone_coefficient(550.0)
    water_vapour_coefficients(550.0)
    oxygen_coefficient(550.0)
    t_ready = time.perf_counter()

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    units = []
    for unit in plan["units"]:
        if tracer is not None:
            tracer.scene = unit["scene"]
        record = {"scene": unit["scene"], "run_rc": None, "compare_rc": None,
                  "compare": None, "error": None}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record["run_rc"] = hsac.cli.main(unit["run"])
            if record["run_rc"] == 0:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    record["compare_rc"] = hsac.cli.main(unit["compare"])
                if record["compare_rc"] == 0:
                    record["compare"] = json.loads(out.getvalue())
        except Exception:  # a failed unit is counted by the parent; go on
            record["error"] = traceback.format_exc()
        record["t0"], record["t1"] = t0, time.perf_counter()
        units.append(record)

    result = {"t_ready": t_ready, "units": units}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["wrapped"] = sorted(tracer.wrapped)
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
