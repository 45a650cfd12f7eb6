"""Experiment drivers: analytic curve tables and Monte Carlo sweeps.

Tables serialize to CSV with 17 significant digits so that reruns with the
same config and seed are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .config import ExperimentConfig
from .error_analysis import (
    MonteCarloConfig,
    analytic_event_probability,
    monte_carlo_points,
    p_err_amqd_analytic,
    p_err_single_analytic,
)
from .exceptions import ConfigError


@dataclass
class Table:
    columns: list
    rows: list

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join("%.17g" % float(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"columns": list(self.columns),
                   "rows": [[float(v) for v in row] for row in self.rows]}
        return json.dumps(payload, indent=2) + "\n"


def run_analytic_table(config: ExperimentConfig, include_factorial: bool = False) -> Table:
    """Closed-form single-carrier and multicarrier curves over the SNR grid."""
    columns = ["snr", "p_single"] + [f"p_amqd_l{l}" for l in config.l]
    rows = []
    for snr in config.snr_grid.linear_values():
        row = [float(snr), p_err_single_analytic(snr, config.zeta)]
        for l in config.l:
            row.append(p_err_amqd_analytic(snr, l, config.zeta, include_factorial))
        rows.append(tuple(row))
    return Table(columns, rows)


def _rate_bits_at(config: ExperimentConfig, snr: float) -> float:
    # default rate target scales with capacity: zeta * log2(1 + snr)
    if config.rate_bits is not None:
        return float(config.rate_bits)
    return float(config.zeta) * math.log2(1.0 + float(snr))


def run_monte_carlo(config: ExperimentConfig) -> Table:
    """Monte Carlo estimate vs the matching closed form, per grid point.

    Every point is importance sampled (estimator "is"), so p_hat and its
    95% interval keep a bounded relative error however small the
    analytic p is.  Batch b of grid point i draws from the substream
    (seed, spawn_key=(b, i)).  The threshold event uses
    threshold 1/snr; the rate event targets rate_bits (default
    zeta * log2(1 + snr)).  The points are estimated by
    error_analysis.monte_carlo_points, on one worker pool.
    """
    if len(config.l) != 1:
        raise ConfigError("the Monte Carlo sweep takes a single l")
    l = config.l[0]
    columns = ["snr", "p_hat", "ci_low", "ci_high", "analytic"]
    points = []
    for i, snr in enumerate(config.snr_grid.linear_values()):
        snr = float(snr)
        rate_bits = _rate_bits_at(config, snr) if config.event == "rate" else None
        points.append(MonteCarloConfig(
            l=l,
            trials=config.trials,
            seed=config.seed,
            event=config.event,
            snr=snr,
            rate_bits=rate_bits,
            estimator="is",
            point=i,
        ))
    rows = []
    for mc, est in zip(points, monte_carlo_points(points, config.model, config.workers)):
        oracle = analytic_event_probability(
            config.model, config.event, l, snr=mc.snr, rate_bits=mc.rate_bits
        )
        rows.append((mc.snr, est.p_hat, est.ci_low, est.ci_high, oracle))
    return Table(columns, rows)


def gnuplot_script(csv_path: str, columns: list) -> str:
    """Log-log plot script for a curve table written by this module."""
    lines = [
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'SNR'",
        "set ylabel 'error probability'",
        "set key bottom left",
        "set grid",
    ]
    plots = []
    for idx, name in enumerate(columns[1:], start=2):
        plots.append(f"'{csv_path}' skip 1 using 1:{idx} with lines title '{name}'")
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"
