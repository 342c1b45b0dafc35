"""Command-line interface.

Exit codes: 0 success, 2 CLI misuse, 3 ingest failure,
4 provider failure, 5 inversion failure, 6 export failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .atmosphere import STATE_POLICIES, AtmosphericState, aerosol_models
from .errors import HsacError
from .pipeline import (
    STAGE_CONFIGURE,
    STAGE_EXPORT,
    STAGE_INGEST,
    STAGE_INVERSION,
    STAGE_RTM,
    PROVIDERS,
    SELF_TEST_TOLERANCE,
    RunConfig,
    StageError,
    compare_against_reference,
    run_pipeline,
    run_self_test,
)
from .scene import STATE_KEYS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAGE = {
    STAGE_INGEST: 3,
    STAGE_CONFIGURE: 4,
    STAGE_RTM: 4,
    STAGE_INVERSION: 5,
    STAGE_EXPORT: 6,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsac",
        description="Hyperspectral atmospheric correction: TOA radiance to "
        "water-leaving reflectance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option of run and self-test has a RunConfig field as its dest (the
    # metavar keeps the flag's name in --help), and one left out is absent
    # from the namespace, so RunConfig's default applies
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--aerosol", choices=sorted(aerosol_models()), help="aerosol model")
    shared.add_argument("--workers", dest="worker_count", metavar="WORKERS", type=int,
                        help="worker count, 0 = the CPUs this process may run on")

    run = sub.add_parser("run", parents=[shared], argument_default=argparse.SUPPRESS,
                         help="process a scene directory")
    run.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                     help="input folder with scene XML and raster")
    run.add_argument("--output", dest="output_path", metavar="OUTPUT", required=True,
                     help="output directory")
    run.add_argument("--tg-threshold", type=float,
                     help="mask bands with total gas transmittance below this, in (0, 1]")
    run.add_argument("--provider", choices=PROVIDERS)
    run.add_argument("--params-table", dest="params_table_path", metavar="PARAMS_TABLE",
                     help="parameter CSV for --provider table")
    run.add_argument("--aux-catalogue", dest="aux_catalogue_path", metavar="AUX_CATALOGUE",
                     help="local auxiliary catalogue JSON")
    run.add_argument("--state-policy", choices=STATE_POLICIES)
    # the three together replace the atmospheric state of the metadata and catalogue
    run.add_argument("--aod550", type=float, help="override AOD at 550 nm")
    run.add_argument("--tcwv", type=float, help="override TCWV (g cm^-2)")
    run.add_argument("--tco3", type=float, help="override ozone (DU)")
    run.add_argument("--clip-negative", action="store_true",
                     help="clip negative reflectance to zero (off by default)")
    run.add_argument("--divide-total-gas", action="store_true",
                     help="divide the TOA term by total gas transmittance instead of ozone only")

    sub.add_parser("self-test", parents=[shared], help="hermetic synthetic round-trip test")

    cmp_ = sub.add_parser("compare", help="compare a product against reference spectra")
    cmp_.add_argument("--product", required=True, help="product directory from `hsac run`")
    cmp_.add_argument("--reference", required=True, nargs="+", help="reference CSV file(s)")
    cmp_.add_argument("--window", default="400:900", help="wavelength window START:STOP nm")
    cmp_.add_argument("--pixel", required=True, help="pixel coordinates ROW,COL")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of `hsac run`'s or `hsac self-test`'s options, whose
    dests are its fields; RunConfig refuses the combinations that leave an
    option unread."""
    fields = {name: value for name, value in vars(args).items() if name != "command"}
    state = {name: fields.pop(name) for name in STATE_KEYS if name in fields}
    if state and len(state) < len(STATE_KEYS):
        raise HsacError("--aod550, --tcwv and --tco3 are given together or not at all")
    override = AtmosphericState(**state, source="override") if state else None
    return RunConfig(**fields, override_state=override)


def _cmd_run(config: RunConfig) -> int:
    try:
        report = run_pipeline(config)
    except StageError as exc:
        print(f"hsac run failed: {exc}", file=sys.stderr)
        return EXIT_STAGE[exc.stage]
    masked = len(report.masked_bands)
    print(
        f"done: scene={report.scene_id!r} masked_bands={masked} "
        f"negativity_rate={report.negativity_rate:.4f} "
        f"output={config.output_path}"
    )
    return EXIT_OK


def _cmd_self_test(config: RunConfig) -> int:
    try:
        passed, max_rel = run_self_test(config)
    except HsacError as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        return 5
    status = "PASS" if passed else "FAIL"
    print(f"self-test {status}: max relative error {max_rel:.3e} "
          f"(tolerance {SELF_TEST_TOLERANCE:g})")
    return EXIT_OK if passed else 5


def _cmd_compare(args) -> int:
    try:
        lo, hi = (float(v) for v in args.window.split(":"))
        row, col = (int(v) for v in args.pixel.split(","))
    except ValueError:
        print("hsac compare: --window needs START:STOP, --pixel needs ROW,COL",
              file=sys.stderr)
        return EXIT_USAGE
    if not lo < hi:  # NaN too
        print(f"hsac compare: --window start {lo} must be < stop {hi}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = compare_against_reference(args.product, args.reference, (lo, hi), (row, col))
    except (HsacError, OSError) as exc:
        print(f"hsac compare failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, indent=2))
    agg = result["aggregate"]
    print(
        f"aggregate over {len(result['references'])} reference(s): "
        f"SAM={agg['sam_deg']:.3f} deg RMSE={agg['rmse']:.5g} "
        f"Bias={agg['bias']:.5g} Std={agg['std']:.5g}",
        file=sys.stderr,
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    try:
        config = config_from_args(args)
    except HsacError as exc:
        print(f"hsac {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _cmd_run(config) if args.command == "run" else _cmd_self_test(config)


if __name__ == "__main__":
    sys.exit(main())
