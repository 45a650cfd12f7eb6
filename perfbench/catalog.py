"""Metric and workload catalogue: the single source of BENCHMARK.json.

Every per-layer metric carries the end-to-end metric and workload it is expected to
move, which BENCHMARK.json's fixed schema has no field for.  Metrics marked
``computed`` are derived from array sizes or trial counts rather than timed.

    python3 perfbench/catalog.py          print the BENCHMARK.json this defines
    python3 perfbench/catalog.py --write  rewrite BENCHMARK.json from it
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

RUN_SECONDS = 30
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    note: str  # per-layer: the end-to-end metric and workload it should move
    bound: float | None = None
    computed: bool = False


WORKLOAD_WHY = {
    "mc_sweep": "crude Monte Carlo throughput, l=3, 11 points x 2e6 trials, 2 workers; "
                "normal draws and reduce-and-count dominate, so gain-draw changes show here",
    "grid_fanout": "41 points x 2 batches of the l=1 rate event with 2 workers; a pool opened "
                   "per point dominates, so pool-per-run changes show and the draw kernel barely does",
    "rare_slope": "serial l=2 diversity slope scan, 7.07e7 trials mostly at p~6.5e-6; "
                  "estimator changes (importance sampling) show in s_to_rel10, pool changes do not",
    "validate": "amqd validate: 15 invariant checks over the complex-Gaussian sampling, "
                "transform, channel and diversity modules no other workload touches; import cost weighs most",
}

# Workloads that --workload and --workload all run but BENCHMARK.json leaves
# out.  validate's 0.3 s pass is bound by memory bandwidth (two 32 MB sample
# blocks); on a shared 2-core host neighbours slow it by 10-30% for stretches
# of several seconds, so the medians of ten 12-20 s runs spread 14-29%, more
# than the 0.24 bound.  Its layers are still timed in every traced run.
UNGATED = ("validate",)

# Bounds: on a shared 2-core host, 30 s runs of the three gated workloads gave
# ten-seed spreads (IQR / median) of 4-16% for the time metrics, rare_slope
# widest, and the median of one ten-run set moved up to 10% against another, so
# they get 0.24; set-up spreads 14-42% within a set and moved up to 10%, and
# gets the largest bound, 0.25.  Peak RSS repeats within 0.5%.
END_TO_END = (
    Metric("setup_s", "s", "lower", "fresh process: import amqd and build the workload config", 0.25),
    Metric("wall_s", "s", "lower", "median wall time of one pass after set-up", 0.24),
    Metric("mtrials_per_s", "Mtrials/s", "higher", "Monte Carlo trials per wall second", 0.24),
    Metric("s_to_rel10", "s", "lower",
           "wall_s x (rhw / 0.10)^2, rhw the largest relative 95% half-width of the pass", 0.24),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the process plus its workers", 0.05),
)

_SETUP = "setup_s on every workload, validate most"
_KERNEL = "mtrials_per_s and wall_s on mc_sweep and rare_slope"
_FANOUT = "wall_s on grid_fanout"
_VALIDATE = "wall_s on validate"
_L_VALUES = (1, 2, 3, 10)

VALIDATION_CHECKS = (
    "transform_unitarity", "transform_distribution", "transform_linearity",
    "source_moments", "noise_moments", "determinism", "channel_identity",
    "channel_second_moment", "rate_allocation", "worst_case_set", "constellation",
    "closed_form_consistency", "outage_oracle", "outage_approx", "mc_calibration",
)

PER_LAYER = (
    Metric("cli.parse_ms", "ms", "lower", _SETUP),
    Metric("error_analysis.import_ms", "ms", "lower", _SETUP),
    Metric("validation.import_ms", "ms", "lower", _SETUP),
    Metric("channel.import_ms", "ms", "lower", _SETUP),
    Metric("sampling.import_ms", "ms", "lower", _SETUP),
    *(Metric(f"sampling.gain_draw_ms.l{l}", "ms", "lower", _KERNEL) for l in _L_VALUES),
    *(Metric(f"error_analysis.reduce_ms.l{l}", "ms", "lower", _KERNEL) for l in _L_VALUES),
    *(Metric(f"error_analysis.batch_ms.l{l}", "ms", "lower", _KERNEL) for l in _L_VALUES),
    Metric("sampling.stream_setup_us", "us", "lower", "nothing (predicted)"),
    *(Metric(f"error_analysis.mtrials_per_s.l{l}.w{w}", "Mtrials/s", "higher",
             "mtrials_per_s on mc_sweep") for l in _L_VALUES for w in (1, 2)),
    Metric("error_analysis.speedup_w2.l3", "x", "higher", "mtrials_per_s on mc_sweep"),
    Metric("error_analysis.batch_share", "ratio", "higher", "wall_s on mc_sweep"),
    Metric("error_analysis.pool_opens", "count", "lower", _FANOUT),
    Metric("error_analysis.pool_ms", "ms", "lower", _FANOUT),
    Metric("error_analysis.analytic_us", "us", "lower", _FANOUT),
    Metric("experiments.point_ms", "ms", "lower", _FANOUT),
    Metric("experiments.emit_ms", "ms", "lower", _FANOUT),
    Metric("error_analysis.hit_ratio", "ratio", "higher", "s_to_rel10 on rare_slope"),
    Metric("error_analysis.trials_to_rel10", "count", "lower", "s_to_rel10 on rare_slope"),
    Metric("error_analysis.mc_calls", "count", "lower", _FANOUT),
    Metric("error_analysis.batches", "count", "lower", "wall_s on mc_sweep", computed=True),
    Metric("error_analysis.trials", "count", "lower", "mtrials_per_s on every workload"),
    Metric("error_analysis.errors", "count", "higher", "s_to_rel10 on rare_slope"),
    Metric("error_analysis.pool_opens_per_pass", "count", "lower", _FANOUT, computed=True),
    *(Metric(f"error_analysis.normals_per_trial.l{l}", "count", "lower", _KERNEL, computed=True)
      for l in _L_VALUES),
    *(Metric(f"error_analysis.bytes_drawn_per_trial.l{l}", "B", "lower", _KERNEL, computed=True)
      for l in _L_VALUES),
    Metric("sampling.complex_block_ms", "ms", "lower", _VALIDATE),
    Metric("transform.dft_ms", "ms", "lower", _VALIDATE),
    Metric("channel.roundtrip_ms", "ms", "lower", _VALIDATE),
    Metric("diversity.constellation_ms", "ms", "lower", _VALIDATE),
    *(Metric(f"validation.{check}_ms", "ms", "lower", _VALIDATE) for check in VALIDATION_CHECKS),
    Metric("trace.overhead_ms", "ms", "lower", "nothing: traced minus untraced wall of one pass"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()
                      if n not in UNGATED],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(render())
    else:
        sys.stdout.write(render())
