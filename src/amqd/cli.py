"""Command-line entry point.

Subcommands:
  figure2   closed-form error-probability curves with the reference defaults
  analytic  closed-form curves with caller-chosen parameters
  simulate  Monte Carlo estimate vs closed form over an SNR grid; every point
            is importance sampled (a Gamma(l) draw per trial at l = 1; at
            l >= 2 the sum of the first l - 1 gains, the last gain integrated
            out) and reported with its 95% interval, so any p is reachable:
            the weighted-CLT one over iid draws at l = 1 and l >= 9, the
            Student-t one over 16 scrambled-Sobol replicates at 2 <= l <= 8.
            The threshold event takes any l, the rate event l = 1 only (any
            other l exits 2)
  slope     importance-sampled diversity slope scan of one l over an SNR grid:
            the fitted log-log slope against l(1-zeta), and each point's
            threshold, estimate, interval, hits and relative half-width
            ("hits N of M": N = M at 2 <= l <= 8, whose Sobol draws are all
            mapped into the event's region)
  validate  run every invariant suite and report pass/fail

Every setting is one field of config.ExperimentConfig, which declares its
default and its flag; a command may override a default (figure2's l and zeta,
the curve and slope grids).  main merges the defaults, a JSON --config file
and the flags, builds the one ExperimentConfig and runs the command on it.
Each command has a flag for each setting it reads, and nothing else; its
--config file may set those same settings, and flags override it:
  figure2, analytic  --l --zeta --snr-db-min --snr-db-max --snr-db-step --out
                     --format (analytic also --factorial)
  simulate           those, and --trials --seed --model --event --rate-bits
                     --workers
  slope              --l --zeta --snr-db-min --snr-db-max --snr-db-step --seed
                     --workers
  validate           --trials --seed --workers

figure2 and analytic also write a gnuplot script <out>.gp next to a CSV --out.

Exit codes: 0 success, 1 validation failure, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import SETTINGS, ExperimentConfig, merge_settings
from .error_analysis import diversity_slope_scan
from .exceptions import ConfigError, EstimationError
from .experiments import gnuplot_script, run_analytic_table, run_monte_carlo
from .validation import run_validation

# The settings each command reads: its flags, and the keys its config file may set.
_CURVE_SETTINGS = ("l", "zeta", "snr_db_min", "snr_db_max", "snr_db_step", "out", "format")
_SIMULATE_SETTINGS = tuple(SETTINGS)
_SLOPE_SETTINGS = ("l", "zeta", "snr_db_min", "snr_db_max", "snr_db_step", "seed", "workers")
_VALIDATE_SETTINGS = ("trials", "seed", "workers")


def _add_command(sub, name: str, settings: tuple, func, defaults: dict,
                 **parser_kwargs) -> argparse.ArgumentParser:
    """A subcommand with a flag for each of its settings; `defaults` are the
    command's own defaults, where they differ from ExperimentConfig's."""
    sp = sub.add_parser(name, **parser_kwargs)
    for key in settings:
        sp.add_argument("--" + key.replace("_", "-"), **SETTINGS[key].metadata)
    sp.add_argument("--config", help="JSON config file of these settings; flags override it")
    sp.set_defaults(func=func, settings=settings, defaults=defaults)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amqd",
        description="Multicarrier CVQKD transmission-chain simulation and error analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curves = dict(snr_db_max=40.0, snr_db_step=1.0)

    sp = _add_command(sub, "figure2", _CURVE_SETTINGS, _cmd_curves,
                      dict(curves, l=[5, 10], zeta=0.6),
                      help="reference closed-form error-probability curves")
    sp.set_defaults(factorial=False)

    sp = _add_command(sub, "analytic", _CURVE_SETTINGS, _cmd_curves, curves,
                      help="closed-form curves for chosen l and zeta")
    sp.add_argument("--factorial", action="store_true",
                    help="apply the 1/l! small-outage prefactor")

    _add_command(
        sub, "simulate", _SIMULATE_SETTINGS, _cmd_simulate, {},
        help="importance-sampled Monte Carlo estimate over an SNR grid",
        description="Importance-sampled Monte Carlo estimate of the error event at each "
                    "grid point, with its 95%% interval and the analytic "
                    "value. The relative error stays bounded however small p is.",
    )
    _add_command(
        sub, "slope", _SLOPE_SETTINGS, _cmd_slope,
        dict(snr_db_min=20.0, snr_db_max=40.0, snr_db_step=5.0),
        help="importance-sampled diversity slope scan",
        description="Fit the log-log slope of the aggregate Rayleigh outage probability "
                    "over the grid, with a threshold that falls as snr^-(1-zeta), and "
                    "compare it to the diversity order l(1-zeta).",
    )
    _add_command(sub, "validate", _VALIDATE_SETTINGS, _cmd_validate, {},
                 help="run all invariant suites")
    return parser


def _emit(table, config: ExperimentConfig, gnuplot: bool) -> None:
    """The table as config.format, on stdout or in config.out; a CSV curve
    table also gets its gnuplot script <out>.gp."""
    text = table.to_csv() if config.format == "csv" else table.to_json()
    if not config.out:
        sys.stdout.write(text)
        return
    files = {config.out: text}
    if gnuplot and config.format == "csv":
        files[config.out + ".gp"] = gnuplot_script(config.out, table.columns)
    for path, content in files.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)


def _cmd_curves(config: ExperimentConfig, args: argparse.Namespace) -> int:
    _emit(run_analytic_table(config, include_factorial=args.factorial), config, gnuplot=True)
    return 0


def _cmd_simulate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    _emit(run_monte_carlo(config), config, gnuplot=False)
    return 0


def _cmd_slope(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if len(config.l) != 1:
        raise ConfigError("the slope scan takes a single l")
    l, snr = config.l[0], config.snr_grid.linear_values()
    res = diversity_slope_scan(l, config.zeta, seed=config.seed, snr_min=snr[0],
                               snr_max=snr[-1], num_points=len(snr), workers=config.workers)
    print("l=%d: slope %.4f (diversity order %.2f)" % (l, res.slope, l * (1.0 - config.zeta)))
    for snr_i, thr, est in zip(res.snr, res.thresholds, res.estimates):
        # the relative half-width, which %.4g can no longer show in the ci
        rhw = (est.ci_high - est.ci_low) / (2.0 * est.p_hat) if est.p_hat > 0.0 else math.inf
        print("  snr %.4g thr %.4g p_hat %.4g ci [%.4g, %.4g] estimator %s hits %d of %d rhw %.2e"
              % (snr_i, thr, est.p_hat, est.ci_low, est.ci_high, est.estimator,
                 est.errors_observed, est.trials, rhw))
    return 0


def _cmd_validate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    report = run_validation(config)
    for check in report.checks:
        print("%s %s: %s" % ("PASS" if check.passed else "FAIL", check.name, check.detail))
    for warning in report.warnings:
        print("WARN " + warning)
    n_fail = sum(1 for c in report.checks if not c.passed)
    print("%d checks, %d failed, %d warnings" % (len(report.checks), n_fail, len(report.warnings)))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {key: getattr(args, key) for key in args.settings}
    try:
        config = ExperimentConfig(**merge_settings(args.defaults, args.config, flags))
        return args.func(config, args)
    except (ConfigError, EstimationError) as exc:  # a grid whose p underflows fits no slope
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
