"""Command-line entry point.

Subcommands:
  figure2   closed-form error-probability curves with the reference defaults
  analytic  closed-form curves with caller-chosen parameters
  simulate  Monte Carlo estimate vs closed form over an SNR grid; every point
            is importance sampled (one Gamma(l) draw per trial) and reported
            with its weighted-CLT 95% interval, so any p is reachable
  validate  run every invariant suite and report pass/fail

figure2 and analytic also write a gnuplot script <out>.gp next to a CSV --out.

Exit codes: 0 success, 1 validation failure, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import sys

from .config import SETTINGS, build_experiment_config, merge_settings
from .exceptions import ConfigError
from .experiments import run_analytic_table, run_monte_carlo, write_gnuplot_script
from .validation import run_validation

_COMMON_DEFAULTS = {
    "trials": 100000,
    "seed": 0,
    "model": "rayleigh",
    "event": "threshold",
    "rate_bits": None,
    "workers": 1,
    "out": None,
    "format": "csv",
}

_FIGURE2_DEFAULTS = dict(
    _COMMON_DEFAULTS,
    l=[5, 10], zeta=0.6, snr_db_min=0.0, snr_db_max=40.0, snr_db_step=1.0, trials=1,
)
_ANALYTIC_DEFAULTS = dict(
    _COMMON_DEFAULTS,
    l=[1], zeta=0.0, snr_db_min=0.0, snr_db_max=40.0, snr_db_step=1.0, trials=1,
)
_SIMULATE_DEFAULTS = dict(
    _COMMON_DEFAULTS,
    l=[1], zeta=0.0, snr_db_min=0.0, snr_db_max=20.0, snr_db_step=2.0,
)


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--l", type=int, action="append",
                    help="information-carrying sub-channels; repeatable")
    sp.add_argument("--zeta", type=float, help="degree-of-freedom ratio in [0, 1)")
    sp.add_argument("--snr-db-min", type=float, help="grid start in dB")
    sp.add_argument("--snr-db-max", type=float, help="grid end in dB (inclusive)")
    sp.add_argument("--snr-db-step", type=float, help="grid step in dB")
    sp.add_argument("--trials", type=int, help="Monte Carlo trials per grid point")
    sp.add_argument("--seed", type=int, help="base seed; grid point i uses seed + i")
    sp.add_argument("--model",
                    help="transmittance model: rayleigh | fixed=<c1,c2,...> | uniform-phase=<mag>")
    sp.add_argument("--event", choices=("rate", "threshold"), help="error event to sample")
    sp.add_argument("--rate-bits", type=float,
                    help="explicit rate target for the rate event "
                         "(default: zeta * log2(1 + snr))")
    sp.add_argument("--workers", type=int,
                    help="parallel Monte Carlo workers (1-64; one pool per run)")
    sp.add_argument("--out", help="output path; stdout when omitted")
    sp.add_argument("--format", choices=("csv", "json"), help="output format")
    sp.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amqd",
        description="Multicarrier CVQKD transmission-chain simulation and error analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("figure2", help="reference closed-form error-probability curves")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_figure2)

    sp = sub.add_parser("analytic", help="closed-form curves for chosen l and zeta")
    _add_common_flags(sp)
    sp.add_argument("--factorial", action="store_true",
                    help="apply the 1/l! small-outage prefactor")
    sp.set_defaults(func=_cmd_analytic)

    sp = sub.add_parser(
        "simulate", help="importance-sampled Monte Carlo estimate over an SNR grid",
        description="Importance-sampled Monte Carlo estimate of the error event at each "
                    "grid point, with its weighted-CLT 95%% interval and the analytic "
                    "value. The relative error stays bounded however small p is.",
    )
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("validate", help="run all invariant suites")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_validate)

    return parser


def _cli_overrides(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in SETTINGS}


def _emit(table, settings: dict, gnuplot: bool) -> None:
    out = settings.get("out")
    fmt = settings.get("format") or "csv"
    if out:
        table.write(out, fmt)
        if gnuplot and fmt == "csv":
            write_gnuplot_script(table, out, out + ".gp")
    else:
        sys.stdout.write(table.to_csv() if fmt == "csv" else table.to_json())


def _cmd_figure2(args: argparse.Namespace) -> int:
    settings = merge_settings(_FIGURE2_DEFAULTS, args.config, _cli_overrides(args))
    config = build_experiment_config(settings)
    _emit(run_analytic_table(config), settings, gnuplot=True)
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
    settings = merge_settings(_ANALYTIC_DEFAULTS, args.config, _cli_overrides(args))
    config = build_experiment_config(settings)
    table = run_analytic_table(config, include_factorial=bool(args.factorial))
    _emit(table, settings, gnuplot=True)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = merge_settings(_SIMULATE_DEFAULTS, args.config, _cli_overrides(args))
    config = build_experiment_config(settings)
    _emit(run_monte_carlo(config), settings, gnuplot=False)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    settings = merge_settings(_SIMULATE_DEFAULTS, args.config, _cli_overrides(args))
    config = build_experiment_config(settings)
    report = run_validation(config)
    for check in report.checks:
        print("%s %s: %s" % ("PASS" if check.passed else "FAIL", check.name, check.detail))
    for warning in report.warnings:
        print("WARN " + warning)
    n_fail = sum(1 for c in report.checks if not c.passed)
    print("%d checks, %d failed, %d warnings" % (len(report.checks), n_fail, len(report.warnings)))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
