"""The four workloads: inputs made from the seed, one pass through amqd's own
entry points (``amqd.cli.main``, ``diversity_slope_scan``), and the check of
every output the pass produced."""

from __future__ import annotations

import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from checks import check_points, check_slope, check_sweep, check_validate

# Pass seeds sit this far apart because a sweep or scan gives grid point i the
# seed + i; with fewer than 1000 points no two passes share a stream.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Sweep:
    """An ``amqd simulate`` run over an inclusive dB grid."""

    l: int
    event: str
    zeta: float
    db: tuple
    trials: int
    workers: int

    def argv(self, seed: int, workers: int | None = None) -> list:
        lo, hi, step = self.db
        return ["simulate", "--l", str(self.l), "--event", self.event, "--zeta", str(self.zeta),
                "--snr-db-min", str(lo), "--snr-db-max", str(hi), "--snr-db-step", str(step),
                "--trials", str(self.trials), "--workers", str(workers or self.workers),
                "--seed", str(seed)]

    def snr_grid(self) -> list:
        lo, hi, step = self.db
        return [10.0 ** ((lo + step * i) / 10.0) for i in range(int((hi - lo) / step) + 1)]

    def reference(self, snr: float) -> float:
        from amqd import TransmittanceModel, analytic_event_probability

        # the rate event's default target is zeta * log2(1 + snr)
        rate = self.zeta * math.log2(1.0 + snr) if self.event == "rate" else None
        return analytic_event_probability(
            TransmittanceModel.rayleigh(1.0), self.event, self.l, snr=snr, rate_bits=rate)


@dataclass(frozen=True)
class SlopeScan:
    """``diversity_slope_scan`` with the ACCEPTANCE 4 settings for one l."""

    l: int
    zeta: float
    anchor_probability: float
    target_errors: int
    points: int = 5

    def argv(self, seed: int):
        return None  # a library call, not a command line

    def kwargs(self, seed: int) -> dict:
        return dict(l=self.l, zeta=self.zeta, seed=seed,
                    anchor_probability=self.anchor_probability,
                    target_errors=self.target_errors, num_points=self.points, workers=1)


@dataclass(frozen=True)
class Validate:
    """``amqd validate`` with its defaults."""

    def argv(self, seed: int) -> list:
        return ["validate", "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # passes cycle through this many seeds, so s_to_rel10 averages that many
    # independent estimates; repeated seeds must reproduce the same output
    seeds_per_run: int
    job: Sweep | SlopeScan | Validate
    # a run measures for --seconds but never fewer passes than this
    min_passes: int = 3

    def pass_seed(self, seed: int, k: int) -> int:
        return self.default_seed + SEED_STRIDE * (self.seeds_per_run * seed + k % self.seeds_per_run)

    def cli_argv(self, seed: int):
        """The amqd command line of a pass, or None for the library scan."""
        return self.job.argv(seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_sweep", 0, 3, Sweep(3, "threshold", 0.0, (0, 10, 1), 2_000_000, 2)),
        Workload("grid_fanout", 0, 4, Sweep(1, "rate", 0.5, (0, 40, 1), 131_072, 2)),
        # five 7-9 s passes: the median of four moved 11-17% between runs
        Workload("rare_slope", 7002, 6, SlopeScan(2, 0.0, 0.05, 400), min_passes=5),
        Workload("validate", 0, 1, Validate()),
    )
}


@dataclass(frozen=True)
class McCall:
    config: object  # MonteCarloConfig
    model: object  # TransmittanceModel
    workers: int
    estimate: object  # ErrorEstimate


@dataclass
class PassResult:
    seed: int
    wall: float
    output: str
    exit_code: object = None  # None when the pass raised
    scan: object = None  # the SlopeScanResult of a scan pass
    calls: list = field(default_factory=list)  # McCall per monte_carlo_p_err call

    @property
    def trials(self) -> int:
        return sum(c.estimate.trials for c in self.calls)

    def max_rhw(self) -> float:
        """Largest relative 95% half-width over the Monte Carlo estimates of the pass."""
        widths = [(c.estimate.ci_high - c.estimate.ci_low) / (2.0 * c.estimate.p_hat)
                  for c in self.calls if c.estimate.p_hat > 0.0]
        return max(widths, default=1.0)  # only a failed pass has no hits


class Runner:
    """Runs passes and logs every ``monte_carlo_p_err`` call they make.

    The log is the only hook in an untraced run: a wrapper that keeps the
    returned estimate, with no timer.  A traced run also gives it a span.
    """

    def __init__(self, tracer, span_name: str | None = None):
        from amqd import error_analysis

        self._calls = []
        tracer.wrap(error_analysis.monte_carlo_p_err, span_name, after=self._record)

    def _record(self, args, kwargs, estimate) -> None:
        named = dict(zip(("config", "model", "noise", "workers"), args), **kwargs)
        self._calls.append(McCall(named["config"], named["model"], int(named.get("workers", 1)),
                                  estimate))

    def run(self, workload: Workload, seed: int, argv=None) -> PassResult:
        self._calls = []
        argv = argv or workload.cli_argv(seed)
        try:
            if argv is None:
                result = _scan_pass(workload.job, seed)
            else:
                result = _cli_pass(argv, seed)
        except Exception:  # a crashing pass is a failed operation, not a crashed benchmark
            traceback.print_exc()
            result = PassResult(seed, math.nan, "")
        result.calls = self._calls
        return result


def _cli_pass(argv: list, seed: int) -> PassResult:
    from amqd import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return PassResult(seed, time.perf_counter() - t0, out.getvalue(), code)


def _scan_pass(job: SlopeScan, seed: int) -> PassResult:
    from amqd import diversity_slope_scan

    t0 = time.perf_counter()
    res = diversity_slope_scan(**job.kwargs(seed))
    wall = time.perf_counter() - t0
    output = json.dumps({"slope": res.slope, "thresholds": res.thresholds,
                         "counts": [(e.errors_observed, e.trials) for e in res.estimates]})
    return PassResult(seed, wall, output, 0, res)


def verdicts(workload: Workload, result: PassResult) -> list:
    """One correctness verdict per operation of the pass."""
    job = workload.job
    if isinstance(job, Sweep):
        return check_sweep(result.output, result.exit_code, job.snr_grid(), job.reference,
                           job.trials)
    if isinstance(job, SlopeScan):
        if result.scan is None:
            return [False] * (job.points + 1)
        from amqd import TransmittanceModel, analytic_event_probability

        model = TransmittanceModel.rayleigh(1.0)
        res = result.scan
        points = [(e.p_hat, analytic_event_probability(model, "threshold", job.l, threshold=t),
                   e.trials) for t, e in zip(res.thresholds, res.estimates)]
        missing = [False] * (job.points - len(points))
        return check_points(points) + missing + [check_slope(res.slope, job.l)]
    return check_validate(result.output, result.exit_code)
