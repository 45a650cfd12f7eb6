"""Per-layer measurements, taken the same way in every traced run.

Layer names are amqd module names.  Each measurement calls amqd's public
functions (or its CLI) and times them from outside, with spans placed by
rebinding what amqd looks up: ``numpy.random`` constructors and draw methods
for the batch split, ``multiprocessing.pool.Pool`` for pool opens, module
functions for the rest.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

from catalog import VALIDATION_CHECKS
from spans import Tracer
from workloads import Runner

L_VALUES = (1, 2, 3, 10)
BATCH_TRIALS = 65536
KERNEL_REPS = 15
RATE_TRIALS = 2**20
RATE_REPS = 3
IMPORT_REPS = 3
IMPORTED = ("error_analysis", "validation", "channel", "sampling")
DRAW_METHODS = ("standard_normal", "normal", "standard_gamma", "gamma", "standard_exponential",
                "exponential", "random", "uniform", "chisquare")
NORMAL_METHODS = ("standard_normal", "normal")


def median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class _TracedGenerator:
    """Stands in for a numpy Generator: draw methods run inside a span and
    count the values and bytes they return."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if name not in DRAW_METHODS:
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            with tracer.span("sampling.gain_draw"):
                out = attr(*args, **kwargs)
            tracer.counts["values.normal" if name in NORMAL_METHODS else "values.other"] += np.size(out)
            tracer.counts["bytes_drawn"] += np.asarray(out).nbytes
            return out

        return draw


def _trace_numpy_streams(tracer: Tracer) -> None:
    rnd = np.random

    def timed(ctor, wrap=None):
        def make(*args, **kwargs):
            with tracer.span("sampling.stream_setup"):
                obj = ctor(*args, **kwargs)
            return obj if wrap is None else wrap(tracer, obj)
        return make

    tracer.patch(rnd, "SeedSequence", timed(rnd.SeedSequence))
    tracer.patch(rnd, "Philox", timed(rnd.Philox))
    tracer.patch(rnd, "Generator", timed(rnd.Generator, _TracedGenerator))


def kernel_split(seed: int) -> dict:
    """One 65536-trial batch per l, split into stream setup, gain draws and
    the remainder (reduce-and-count), plus draw sizes per trial."""
    from amqd import MonteCarloConfig, TransmittanceModel, monte_carlo_p_err

    model = TransmittanceModel.rayleigh(1.0)
    metrics = {}
    setup_us = []
    for l in L_VALUES:
        with Tracer() as tracer:
            _trace_numpy_streams(tracer)
            for rep in range(KERNEL_REPS):
                config = MonteCarloConfig(l=l, trials=BATCH_TRIALS, seed=seed + rep,
                                          event="threshold", threshold=0.1)
                with tracer.span("error_analysis.batch"):
                    monte_carlo_p_err(config, model, workers=1)
        rows = tracer.child_totals("error_analysis.batch")
        batch = [r["total"] for r in rows]
        setup = [r.get("sampling.stream_setup", 0.0) for r in rows]
        draw = [r.get("sampling.gain_draw", 0.0) for r in rows]
        trials = KERNEL_REPS * BATCH_TRIALS
        metrics[f"error_analysis.batch_ms.l{l}"] = 1e3 * statistics.median(batch)
        metrics[f"sampling.gain_draw_ms.l{l}"] = 1e3 * statistics.median(draw)
        metrics[f"error_analysis.reduce_ms.l{l}"] = 1e3 * statistics.median(
            b - s - d for b, s, d in zip(batch, setup, draw))
        metrics[f"error_analysis.normals_per_trial.l{l}"] = tracer.counts["values.normal"] / trials
        metrics[f"error_analysis.bytes_drawn_per_trial.l{l}"] = tracer.counts["bytes_drawn"] / trials
        setup_us += [1e6 * s for s in setup]
    metrics["sampling.stream_setup_us"] = statistics.median(setup_us)
    return metrics


def trial_rates(seed: int) -> dict:
    """Untraced Monte Carlo throughput per l at 1 and 2 workers."""
    from amqd import MonteCarloConfig, TransmittanceModel, monte_carlo_p_err

    model = TransmittanceModel.rayleigh(1.0)
    metrics = {}
    for l in L_VALUES:
        config = MonteCarloConfig(l=l, trials=RATE_TRIALS, seed=seed, event="threshold",
                                  threshold=0.1)
        for w in (1, 2):
            wall = median_seconds(lambda: monte_carlo_p_err(config, model, workers=w), RATE_REPS)
            metrics[f"error_analysis.mtrials_per_s.l{l}.w{w}"] = RATE_TRIALS / wall / 1e6
    metrics["error_analysis.speedup_w2.l3"] = (metrics["error_analysis.mtrials_per_s.l3.w2"]
                                               / metrics["error_analysis.mtrials_per_s.l3.w1"])
    return metrics


def import_times(root) -> dict:
    """Cumulative import time of amqd modules, from ``python -X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import amqd.cli"
    samples = {name: [] for name in IMPORTED}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("amqd."):
                module = parts[2].strip()[len("amqd."):]
                if module in samples:
                    samples[module].append(int(parts[1]) / 1e3)
    return {f"{m}.import_ms": statistics.median(v) for m, v in samples.items()}


class _ConfigBuilt(Exception):
    pass


def _stop_at_run(*args, **kwargs):
    raise _ConfigBuilt


def parse_time(argv: list) -> dict:
    """``amqd.cli.main`` up to the point it starts the run: argument parsing,
    ``merge_settings`` and ``build_experiment_config``."""
    from amqd import cli

    def parse():
        try:
            cli.main(argv)
        except _ConfigBuilt:
            return
        raise RuntimeError("cli.main returned before running the experiment")

    with Tracer() as tracer:
        tracer.patch(cli, "run_monte_carlo", _stop_at_run)
        tracer.patch(cli, "run_validation", _stop_at_run)
        return {"cli.parse_ms": 1e3 * median_seconds(parse, 50)}


def component_times() -> dict:
    """Single calls into the modules only ``validate`` exercises."""
    from amqd import (Constellation, ModulatedVector, RngStream, SubchannelSet,
                      build_permutation_constellation, end_to_end_roundtrip, sample_modulation_block,
                      unitary_dft)
    from amqd.sampling import ComplexGaussianSpec

    spec = ComplexGaussianSpec.iid(1, 2.0)
    block = sample_modulation_block(ComplexGaussianSpec.iid(1000, 2.0), RngStream(5, 0), 100)
    g = RngStream(13, 0).generator()
    z = ModulatedVector(g.standard_normal(64) + 1j * g.standard_normal(64))
    channel = SubchannelSet.all_pass(64)
    base = Constellation.square_grid(6.0)
    return {
        "sampling.complex_block_ms": 1e3 * median_seconds(
            lambda: sample_modulation_block(spec, RngStream(11, 1), 10**6), 5),
        "transform.dft_ms": 1e3 * median_seconds(lambda: unitary_dft(block), 20),
        "channel.roundtrip_ms": 1e3 * median_seconds(
            lambda: end_to_end_roundtrip(z, channel, RngStream(13, 1)), 200),
        "diversity.constellation_ms": 1e3 * median_seconds(
            lambda: build_permutation_constellation(base, 8, RngStream(23, 0)), 20),
    }


def validation_check_times(workload, seed: int, reps: int = 3):
    """Per-check time of ``amqd validate``: each ``_check_*`` function of the
    validation module runs in a span named after the check it reports."""
    from amqd import validation

    samples = {name: [] for name in VALIDATION_CHECKS}
    passes = []
    with Tracer() as tracer:
        runner = Runner(tracer)
        for attr, func in list(vars(validation).items()):
            if attr.startswith("_check_") and callable(func):
                tracer.rebind(func, _labelled_check(tracer, func))
        for _ in range(reps):
            tracer.spans.clear()
            passes.append(runner.run(workload, seed))
            for name, _parent, start, end in tracer.spans:
                if name in samples:
                    samples[name].append(end - start)
    return {f"validation.{n}_ms": 1e3 * statistics.median(v) for n, v in samples.items()}, passes


def _labelled_check(tracer: Tracer, func):
    def check(report, *args, **kwargs):
        with tracer.span("validation.check") as record:
            result = func(report, *args, **kwargs)
        record[0] = report.checks[-1].name if report.checks else func.__name__
        return result
    return check


def trace_pass(workload, seed: int, argv=None):
    """One pass with spans at the Monte Carlo, closed-form, experiment, pool
    and output boundaries; returns the pass and its tracer."""
    import multiprocessing.pool

    from amqd import cli, error_analysis, experiments

    with Tracer() as tracer:
        base_pool = multiprocessing.pool.Pool

        class TracedPool(base_pool):
            def __init__(self, *args, **kwargs):
                with tracer.span("error_analysis.pool_open"):
                    super().__init__(*args, **kwargs)
                tracer.counts["pool_opens"] += 1

            def terminate(self):
                with tracer.span("error_analysis.pool_close"):
                    super().terminate()

        tracer.patch(multiprocessing.pool, "Pool", TracedPool)
        tracer.wrap(error_analysis.analytic_event_probability, "error_analysis.analytic")
        tracer.wrap(experiments.run_monte_carlo, "experiments.run_monte_carlo")
        tracer.wrap(cli._emit, "experiments.emit")
        result = Runner(tracer, "error_analysis.monte_carlo").run(workload, seed, argv)
    return result, tracer


def fanout_times(result, tracer: Tracer) -> dict:
    """Per-open pool cost, per-call closed-form cost, per-point self time of
    the sweep loop and output time, from a traced ``simulate`` pass."""
    opens = tracer.counts["pool_opens"]
    pool = sum(tracer.durations("error_analysis.pool_open")
               + tracer.durations("error_analysis.pool_close"))
    return {
        "error_analysis.pool_ms": 1e3 * pool / max(opens, 1),
        "error_analysis.analytic_us": 1e6 * statistics.median(
            tracer.durations("error_analysis.analytic")),
        "experiments.point_ms": 1e3 * tracer.self_time("experiments.run_monte_carlo")
        / max(len(result.calls), 1),
        "experiments.emit_ms": 1e3 * sum(tracer.durations("experiments.emit")),
    }


def pass_counts(result, tracer: Tracer, measured: dict) -> dict:
    """Counts of the traced workload pass.  Batches and pool opens are also
    computed from the logged trial counts and the batch size."""
    from amqd import error_analysis

    batch = error_analysis._BATCH
    trials = result.trials
    errors = sum(c.estimate.errors_observed for c in result.calls)
    sampled = [c for c in result.calls if c.model is not None and c.model.kind == "rayleigh"]
    batches = [math.ceil(c.estimate.trials / batch) for c in sampled]
    workers = max([1] + [c.workers for c in sampled])
    batch_work = sum(c.estimate.trials / BATCH_TRIALS
                     * measured.get(f"error_analysis.batch_ms.l{c.config.l}", math.nan)
                     for c in sampled) / 1e3
    return {
        "error_analysis.mc_calls": len(result.calls),
        "error_analysis.trials": trials,
        "error_analysis.errors": errors,
        "error_analysis.batches": sum(batches),
        "error_analysis.pool_opens": tracer.counts["pool_opens"],
        "error_analysis.pool_opens_per_pass": sum(
            1 for c, b in zip(sampled, batches) if c.workers > 1 and b > 1),
        "error_analysis.hit_ratio": errors / trials,
        "error_analysis.trials_to_rel10": trials * (result.max_rhw() / 0.10) ** 2,
        "error_analysis.batch_share": batch_work / (workers * result.wall),
    }
