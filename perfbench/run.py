"""hsac benchmark: end-to-end and per-layer metrics of `hsac run`.

    python3 perfbench/run.py --workload cube512 --seed 1 --seconds 45 --trace 0

Run from the repository root. The benchmark generates seeded scenes under
`.perfbench_work/`, then starts fresh child interpreters
(`perfbench/child.py`) that run the workload through `hsac.cli.main` at
`--workers 2`, one batch of scene units per child, cycling through the
workload's batches. Untimed children run first, for WARMUP_S and at least
once per batch; the first products of each unit become its reference and
are checked against the generator's truth. Before each child starts, a
helper process touches as much memory as that batch last needed (see
`pretouch`). Timed children follow until `--seconds` have passed and at
least MIN_CHILDREN have run; after each, outside its timed interval, every
product is checked for byte identity with the reference and deleted.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: medians over
the children of set-up time, batch wall time and peak RSS, and the median
per-unit latency. `--trace 1` runs rounds of one untraced child, one traced
child and one traced child at `--workers 1`, and reports the per-layer
metrics of the traced children. Every metric is printed with its unit; the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, SRC)

import hsac  # noqa: E402

if not os.path.abspath(hsac.__file__).startswith(SRC + os.sep):
    sys.exit(f"hsac imported from {hsac.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    COMPARE_WINDOW,
    check_compare,
    check_product,
    differing,
    product_digests,
)
from scenes import generate_scene  # noqa: E402
from spans import layer_metrics  # noqa: E402

WORKERS = 2
MIN_CHILDREN = 5
WARMUP_S = 5.0
# No child starts later than DEADLINE_S into a run and none runs longer than
# CHILD_TIMEOUT_S (a cube512 child at one worker takes ~4 s), so a run on a
# slow program still ends within 180 s.
DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 45.0
TAIL_MIN_BEYOND = 10  # a percentile is reported only with this many samples above it
STAGES = ("ingest", "configure", "rtm", "inversion", "export")
# Peak RSS of the last child of each batch (keyed by its first scene), which
# is how much memory the next child of that batch is given warm.
PEAK_MB: dict[str, float] = {}
PRETOUCH_MIN_MB = 256.0  # below this, faults cost less than starting the helper
PRETOUCH_CAP_MB = 0.6 * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20

# name -> (id mixed into the seed, scenes per child, scenes as (name, rows,
# cols, measured SRFs, table-provider replay)). matchup_batch
# gives each child 8 windows: a child running all 32 ends at a peak RSS of
# either ~66 or ~74 MB depending on how the allocator's arenas happened to
# grow, while 8 windows end within 2 % of 55 MB.
WORKLOADS = {
    "cube512": (1, 1, [("cube512", 512, 512, False, False)]),
    "matchup_batch": (3, 8, [(f"w{i:02d}", 32, 32, i % 2 == 0, i % 4 == 3)
                             for i in range(32)]),
}


def generate(workload: str, seed: int) -> list[list]:
    """The workload's scenes, written under WORK, grouped into child batches."""
    ident, per_child, specs = WORKLOADS[workload]
    rng = np.random.default_rng([seed, ident])
    scenes = [generate_scene(os.path.join(WORK, "in", name), name, rng, rows, cols,
                             measured, replay)
              for name, rows, cols, measured, replay in specs]
    return [scenes[i:i + per_child] for i in range(0, len(scenes), per_child)]


def plan_units(scenes: list, out_root: str, workers: int) -> list[dict]:
    units = []
    for scene in scenes:
        r, c = scene.station
        out = os.path.join(out_root, scene.name)
        run = ["run", "--input", scene.directory, "--output", out,
               "--aerosol", scene.aerosol, "--workers", str(workers)]
        runs = [(scene.name, run, out)]
        if scene.replay:
            table = run[:4] + [out + "-table", "--aerosol", scene.aerosol,
                               "--workers", str(workers), "--provider", "table",
                               "--params-table", os.path.join(out, "band_params.csv")]
            runs.append((scene.name + "-table", table, out + "-table"))
        for unit_id, argv, product in runs:
            units.append({
                "scene": unit_id, "product": product, "of": scene.name,
                "run": argv,
                "compare": ["compare", "--product", product, "--reference",
                            scene.reference_csv, "--pixel", f"{r},{c}",
                            "--window", "{:g}:{:g}".format(*COMPARE_WINDOW)],
            })
    return units


class Child:
    """One finished child: its timings, peak RSS and checked units."""

    def __init__(self, result: dict | None, t_spawn: float, rss_mb: float, units: list):
        self.result = result or {}
        self.rss_mb = rss_mb
        self.records = self.result.get("units", [])
        self.ok = bool(self.records) and len(self.records) == len(units)
        self.setup_s = self.result["t_ready"] - t_spawn if self.ok else math.nan
        self.wall_s = self.records[-1]["t1"] - self.records[0]["t0"] if self.ok else math.nan
        self.latencies_ms = [1000.0 * (u["t1"] - u["t0"]) for u in self.records]
        self.stage_s = {s: 0.0 for s in STAGES}


def pretouch(mb: float) -> None:
    """Write `mb` MB of fresh memory and free it again.

    On a virtual machine, memory the guest freed a few seconds ago may have
    been handed back to the host, and touching it again costs a host fault
    on top of the guest's own: a child allocating 2 GB took 0.5 s right
    after another, but 1.2-1.6 s after an 8 s pause, depending on the host.
    Touching as much memory as the child will use just before it starts
    gives every child the same, warm start, whatever the gap before it.
    """
    if mb < PRETOUCH_MIN_MB:
        return
    # In a process of its own: a child spawned from this process reports this
    # process's peak RSS as its own if that is higher.
    subprocess.run([sys.executable, "-c", "import numpy, sys; numpy.ones(int(sys.argv[1]) // 8)",
                    str(int(min(mb, PRETOUCH_CAP_MB) * 2**20))], check=True)


def spawn(units: list, tag: str, trace: bool) -> tuple[dict | None, float, float, str]:
    """Run one child to completion; (result, spawn time, peak RSS MB, stderr tail)."""
    plan_path = os.path.join(WORK, f"{tag}.plan.json")
    result_path = os.path.join(WORK, f"{tag}.result.json")
    log_path = os.path.join(WORK, f"{tag}.stderr")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "trace": trace,
                   "units": [{k: u[k] for k in ("scene", "run", "compare")} for u in units]},
                  fh)
    with open(log_path, "wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 plan_path, result_path],
                                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    result = None
    if proc.returncode == 0:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    return result, t_spawn, usage.ru_maxrss / 1024.0, tail


class Checker:
    """Counts attempted and failed runs and compares.

    The first product of each unit in a benchmark run is checked against the
    generator's truth and its digests are kept; the same unit's products in
    later children (other repetitions, traced runs, other worker counts)
    must then be byte-identical to it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.nonfinite = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def count(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def product(self, scene, unit: dict) -> list[str]:
        try:
            digests = product_digests(unit["product"])
            ref = self.reference.get(unit["scene"])
            if ref is not None:
                return differing(ref, digests, "not identical to the first child's product")
            problems, nonfinite = check_product(scene, unit["product"])
            self.nonfinite += nonfinite
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed product files
            return [f"unreadable product: {exc!r}"]
        if unit["scene"] != scene.name:
            analytic = self.reference.get(scene.name)
            problems += (differing(analytic, digests, "table replay") if analytic
                         else ["its analytic run failed, nothing to replay"])
        if not problems:
            self.reference[unit["scene"]] = digests
        return problems


def run_child(scenes: list, checker: Checker, tag: str, trace: bool = False,
              workers: int = WORKERS) -> Child:
    """Spawn a child on every scene, check its products and delete them."""
    by_name = {s.name: s for s in scenes}
    out_root = os.path.join(WORK, "out", tag)
    units = plan_units(scenes, out_root, workers)
    pretouch(PEAK_MB.get(scenes[0].name, 0.0))
    result, t_spawn, rss_mb, tail = spawn(units, tag, trace)
    PEAK_MB[scenes[0].name] = rss_mb
    child = Child(result, t_spawn, rss_mb, units)
    if not child.ok:
        checker.problems.append(f"{tag}: child failed\n{tail}")
    records = {r["scene"]: r for r in child.records}
    for unit in units:
        scene = by_name[unit["of"]]
        rec = records.get(unit["scene"])
        what = f"{tag}/{unit['scene']}"
        if rec is None or rec["run_rc"] != 0:  # exit code, or None when it raised
            detail = (rec or {}).get("error") or f"exit {(rec or {}).get('run_rc')}"
            checker.count(f"{what} run", [detail])
            checker.count(f"{what} compare", ["not run"])
            continue
        checker.count(f"{what} run", checker.product(scene, unit))
        checker.count(f"{what} compare",
                      [rec["error"] or f"exit {rec['compare_rc']}"] if rec["compare_rc"] != 0
                      else check_compare(scene, rec["compare"]))
        if trace:
            with open(os.path.join(unit["product"], "report.json"), encoding="utf-8") as fh:
                timings = json.load(fh)["timings_ms"]
            for stage in STAGES:
                child.stage_s[stage] += timings[stage] / 1000.0
    shutil.rmtree(out_root, ignore_errors=True)
    os.sync()  # flush what is left dirty now, not during the next child's timed interval
    return child


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(q, value) for the highest of p90/p75/p50 with TAIL_MIN_BEYOND samples above it."""
    for q in (90, 75, 50):
        if len(samples) * (100 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q, float(np.percentile(samples, q))
    return None


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def measure(batches, seconds: float, checker: Checker,
            deadline: float) -> tuple[dict, dict]:
    children = []
    t_end = time.perf_counter() + seconds
    while ((time.perf_counter() < t_end or len(children) < MIN_CHILDREN)
           and time.perf_counter() < deadline):
        children.append(run_child(next(batches), checker, f"c{len(children)}"))
    latencies = [x for c in children for x in c.latencies_ms]
    metrics = {
        "wall_s": median(c.wall_s for c in children),
        "setup_s": median(c.setup_s for c in children),
        "peak_rss_mb": median(c.rss_mb for c in children),
        "scene_ms.p50": median(latencies),
    }
    tail = tail_percentile(latencies)
    extra = {"children": len(children), "scene_ms.samples": len(latencies)}
    if tail is not None:
        extra[f"scene_ms.p{tail[0]}"] = tail[1]
    return metrics, extra


def measure_traced(batches, seconds: float, checker: Checker,
                   deadline: float) -> tuple[dict, dict]:
    plain, traced, single = [], [], []
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or not plain) and time.perf_counter() < deadline:
        n = len(plain)
        scenes = next(batches)
        plain.append(run_child(scenes, checker, f"u{n}"))
        traced.append(run_child(scenes, checker, f"t{n}", trace=True))
        single.append(run_child(scenes, checker, f"s{n}", trace=True, workers=1))

    def layers(child: Child, workers: int) -> dict:
        if not child.ok:
            return {}
        res = child.result
        out = layer_metrics(res["spans"], set(res["wrapped"]), len(child.records), workers)
        for stage, value in child.stage_s.items():
            out[f"pipeline.{stage}_s"] = value
        return out

    per_child = [layers(c, WORKERS) for c in traced]
    metrics = {}
    for name in sorted({k for d in per_child for k in d}):
        metrics[name] = median(d.get(name, math.nan) for d in per_child)
    if "inversion.wall_s" in metrics:
        w1 = median(layers(c, 1).get("inversion.wall_s", math.nan) for c in single)
        metrics["inversion.speedup_w2"] = w1 / metrics["inversion.wall_s"]
    metrics["trace.overhead_frac"] = (median(c.wall_s for c in traced)
                                      / median(c.wall_s for c in plain) - 1.0)
    missing = sorted({m for c in traced for m in c.result.get("missing", [])})
    return metrics, {"rounds": len(plain), "missing_names": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.perf_counter() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        t0 = time.perf_counter()
        batches = generate(args.workload, args.seed)
        os.sync()
        print(f"generated {sum(map(len, batches))} scene(s) in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        checker = Checker()
        # Each batch's first products are checked against the truth and become
        # the reference. Untimed children run for WARMUP_S: the first ones of
        # a run are slower (set-up included) while the machine adapts to the
        # memory load, by up to 1.7x on a 2-core, 8 GB machine.
        cycle = itertools.cycle(batches)
        t_warm = time.perf_counter() + WARMUP_S
        for n in itertools.count(1):
            run_child(next(cycle), checker, f"w{n}")
            if n >= len(batches) and time.perf_counter() >= t_warm:
                break
        measure_fn = measure_traced if args.trace else measure
        metrics, extra = measure_fn(cycle, args.seconds, checker, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise RuntimeError(f"measured metrics not declared in BENCHMARK.json: {undeclared}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in extra.items() if not k.startswith("scene_ms.p")))
    for name, unit in declared.items():
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<28} {shown}")
    for name, value in extra.items():
        if name.startswith("scene_ms.p"):
            print(f"  {name:<28} {value:.6g} ms  (of {extra['scene_ms.samples']} samples)")
    print(f"  {'failed_frac':<28} {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed}/{checker.attempted}; {checker.nonfinite} non-finite pixels)")
    for problem in checker.problems[:20]:
        print(f"  FAIL {problem}", file=sys.stderr)

    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                    if name in metrics and math.isfinite(metrics[name])},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
