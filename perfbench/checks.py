"""Correctness checks on workload outputs.

Each checker returns one verdict per operation: a grid point of a sweep, the
fitted slope of a scan, or one check line of ``amqd validate``.  The failed
verdicts feed ``failed`` and ``failed_ratio``.
"""

from __future__ import annotations

import math

SIGMAS = 4.5
SLOPE_BAND = (0.9, 1.1)


def binomial_ok(p_hat: float, reference: float, trials: int, sigmas: float = SIGMAS) -> bool:
    """p_hat within ``sigmas`` binomial standard deviations of the reference."""
    sd = math.sqrt(reference * (1.0 - reference) / trials)
    return abs(p_hat - reference) <= sigmas * sd


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def parse_sweep_csv(text: str) -> list:
    """Rows of a ``simulate`` CSV as dicts keyed by column name."""
    lines = text.strip().splitlines()
    columns = lines[0].split(",")
    return [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]]


def check_sweep(text: str, exit_code: int, snr_grid, reference, trials: int) -> list:
    """One verdict per expected grid point.

    A point passes when the run exited 0, its row holds the expected snr, its
    p_hat lies within 4.5 binomial sd of ``reference(snr)`` at ``trials``, and
    its analytic column equals ``reference(snr)``.
    """
    if exit_code != 0:
        return [False] * len(snr_grid)
    try:
        rows = parse_sweep_csv(text)
    except (IndexError, KeyError, ValueError):
        return [False] * len(snr_grid)
    verdicts = []
    for i, snr in enumerate(snr_grid):
        if i >= len(rows):
            verdicts.append(False)
            continue
        row, ref = rows[i], reference(snr)
        verdicts.append(
            _close(row["snr"], snr)
            and _close(row["analytic"], ref)
            and binomial_ok(row["p_hat"], ref, trials)
        )
    return verdicts + [False] * max(0, len(rows) - len(snr_grid))


def check_points(points) -> list:
    """One verdict per (p_hat, reference, trials) point."""
    return [binomial_ok(p, ref, n) for p, ref, n in points]


def check_slope(slope: float, l: int, band=SLOPE_BAND) -> bool:
    """The fitted diversity order lies within [0.9 l, 1.1 l]."""
    return band[0] * l <= slope <= band[1] * l


def check_validate(text: str, exit_code: int) -> list:
    """One verdict per PASS/FAIL line; a nonzero exit or no check lines fails too."""
    verdicts = [line.startswith("PASS ") for line in text.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    if exit_code != 0 and all(verdicts):
        verdicts.append(False)
    return verdicts or [False]
