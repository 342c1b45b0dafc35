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
from .errors import HsacError, MissingField
from .inversion import MaskPolicy
from .pipeline import (
    STAGE_CONFIGURE,
    STAGE_EXPORT,
    STAGE_INGEST,
    STAGE_INVERSION,
    STAGE_RTM,
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

    # every default is read from RunConfig or MaskPolicy, the one place it is set
    run = sub.add_parser("run", help="process a scene directory")
    run.add_argument("--input", required=True, help="input folder with scene XML and raster")
    run.add_argument("--output", required=True, help="output directory")
    run.add_argument("--aerosol", default=RunConfig.aerosol, choices=sorted(aerosol_models()),
                     help="aerosol model")
    run.add_argument("--tg-threshold", type=float, default=MaskPolicy.tg_threshold,
                     help="mask bands with total gas transmittance below this")
    run.add_argument("--provider", choices=["analytic", "table"], default=RunConfig.provider)
    run.add_argument("--params-table", help="parameter CSV for --provider table")
    run.add_argument("--aux-catalogue", help="local auxiliary catalogue JSON")
    run.add_argument("--state-policy", choices=STATE_POLICIES, default=RunConfig.state_policy)
    # the three together replace the atmospheric state of the metadata and catalogue
    run.add_argument("--aod550", type=float, help="override AOD at 550 nm")
    run.add_argument("--tcwv", type=float, help="override TCWV (g cm^-2)")
    run.add_argument("--tco3", type=float, help="override ozone (DU)")
    run.add_argument("--workers", type=int, default=RunConfig.worker_count,
                     help="worker count, 0 = all cores")
    run.add_argument("--clip-negative", action="store_true",
                     help="clip negative reflectance to zero (off by default)")
    run.add_argument("--divide-total-gas", action="store_true",
                     help="divide the TOA term by total gas transmittance instead of ozone only")

    st = sub.add_parser("self-test", help="hermetic synthetic round-trip test")
    st.add_argument("--workers", type=int, default=RunConfig.worker_count)
    st.add_argument("--aerosol", default=RunConfig.aerosol, choices=sorted(aerosol_models()))

    cmp_ = sub.add_parser("compare", help="compare a product against reference spectra")
    cmp_.add_argument("--product", required=True, help="product directory from `hsac run`")
    cmp_.add_argument("--reference", required=True, nargs="+", help="reference CSV file(s)")
    cmp_.add_argument("--window", default="400:900", help="wavelength window START:STOP nm")
    cmp_.add_argument("--pixel", required=True, help="pixel coordinates ROW,COL")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of `hsac run`'s options; RunConfig refuses the
    combinations that leave an option unread."""
    values = [getattr(args, name) for name in STATE_KEYS]
    if values.count(None) not in (0, len(values)):
        raise MissingField("--aod550, --tcwv and --tco3 are given together or not at all")
    override = None if None in values else AtmosphericState(*values, source="override")
    return RunConfig(
        input_path=args.input,
        output_path=args.output,
        aerosol=args.aerosol,
        mask=MaskPolicy(tg_threshold=args.tg_threshold, clip_negative=args.clip_negative),
        provider=args.provider,
        params_table_path=args.params_table,
        aux_catalogue_path=args.aux_catalogue,
        state_policy=args.state_policy,
        override_state=override,
        worker_count=args.workers,
        divide_total_gas=args.divide_total_gas,
    )


def _cmd_run(args) -> int:
    try:
        config = config_from_args(args)
    except HsacError as exc:
        print(f"hsac run: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def _cmd_self_test(args) -> int:
    config = RunConfig(aerosol=args.aerosol, worker_count=args.workers)
    try:
        passed, max_rel = run_self_test(config)
    except HsacError as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        return 5
    status = "PASS" if passed else "FAIL"
    print(f"self-test {status}: max relative error {max_rel:.3e} (tolerance 1e-10)")
    return EXIT_OK if passed else 5


def _cmd_compare(args) -> int:
    try:
        lo, hi = (float(v) for v in args.window.split(":"))
        row, col = (int(v) for v in args.pixel.split(","))
    except ValueError:
        print("hsac compare: --window needs START:STOP, --pixel needs ROW,COL",
              file=sys.stderr)
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
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "self-test":
        return _cmd_self_test(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
