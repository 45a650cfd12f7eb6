"""amqd benchmark: four workloads run through amqd's own entry points.

    python3 perfbench/run.py --workload mc_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1 --out results.json

An untraced run (--trace 0) repeats passes of one workload for --seconds and
reports the end-to-end metrics; a traced run (--trace 1) reports the
per-layer metrics.  Every output is checked.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when any check failed, 2 when amqd's sources are
not in src/ next to this directory.  ``--workload all`` runs each workload in
its own process (untraced, and also traced with --trace 1), prints one table
and exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS
from spans import Tracer
from workloads import WORKLOADS, Runner, verdicts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 9
REL_TARGET = 0.10
OVERHEAD_SECONDS = 5.0
COMPUTED = {m.name for m in PER_LAYER if m.computed}
NOTES = {m.name: m.note for m in PER_LAYER}


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results) -> None:
        self.attempted += len(results)
        self.failed += sum(1 for ok in results if not ok)


def untraced_run(workload, seed: int, seconds: float):
    tally = Tally()
    first_output, rhw2 = {}, {}
    walls, rates = [], []
    max_workers = 1
    with Tracer() as hooks:
        runner = Runner(hooks)
        start = time.perf_counter()
        k = 0
        while k < workload.min_passes or time.perf_counter() - start < seconds:
            pass_seed = workload.pass_seed(seed, k)
            res = runner.run(workload, pass_seed)
            tally.add(verdicts(workload, res))
            if pass_seed in first_output:
                tally.add([res.output == first_output[pass_seed]])  # same seed, same output
            else:
                first_output[pass_seed] = res.output
                rhw2[pass_seed] = res.max_rhw() ** 2
            if math.isfinite(res.wall):  # a pass that raised has no wall time
                walls.append(res.wall)
                rates.append(res.trials / res.wall / 1e6)
            max_workers = max([max_workers] + [c.workers for c in res.calls])
            k += 1
    if not walls:
        return {}, tally, {"passes": k}
    rss_mb = peak_rss_mb(max_workers)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": setup_seconds(workload, seed),
        "wall_s": wall,
        "mtrials_per_s": statistics.median(rates),
        "s_to_rel10": wall * statistics.fmean(rhw2.values()) / REL_TARGET**2,
        "peak_rss_mb": rss_mb,
    }
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (wall, wall, wall)
    return metrics, tally, {"passes": k, "wall_min": min(walls), "wall_q1": q1, "wall_q3": q3,
                            "wall_max": max(walls)}


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus that of ``workers`` pool workers at the
    largest peak any worker reached (0 when no worker ran)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers if workers > 1 else 0) * child) / 1024.0


def setup_seconds(workload, seed: int) -> float:
    """Median wall time of a fresh process that imports amqd and builds the
    workload config; one unmeasured start first compiles the bytecode."""
    argv = workload.cli_argv(workload.pass_seed(seed, 0)) or ["scan"]
    cmd = [sys.executable, str(HERE / "setup_child.py"), *argv]
    times = [_timed_child(cmd) for _ in range(SETUP_REPS + 1)]
    return statistics.median(times[1:])


def _timed_child(cmd: list) -> float:
    """Wall time from start to reaped exit of one child.  The wait blocks: a
    wait with a timeout polls in sleeps of up to 50 ms, which would round every
    time up to that grid, so a timer kills a child that hangs instead."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def traced_run(workload, seed: int):
    """Per-layer metrics.  The layer measurements run first, so the untraced
    and traced passes compared for the tracing overhead both start warm."""
    import layers

    tally = Tally()
    pass_seed = workload.pass_seed(seed, 0)
    metrics = {}
    metrics.update(layers.import_times(ROOT))
    metrics.update(layers.parse_time(WORKLOADS["mc_sweep"].cli_argv(pass_seed)))
    metrics.update(layers.kernel_split(pass_seed))
    metrics.update(layers.trial_rates(pass_seed))
    metrics.update(layers.component_times())
    validate = WORKLOADS["validate"]
    check_ms, validate_passes = layers.validation_check_times(validate, validate.pass_seed(seed, 0))
    metrics.update(check_ms)
    for res in validate_passes:
        tally.add(verdicts(validate, res))

    # untraced and traced passes alternate for OVERHEAD_SECONDS (at least one
    # pair); the tracing overhead is the difference of their median walls
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while not plain_walls or time.perf_counter() - start < OVERHEAD_SECONDS:
        with Tracer() as hooks:
            plain = Runner(hooks).run(workload, pass_seed)
        traced, tracer = layers.trace_pass(workload, pass_seed)
        tally.add(verdicts(workload, plain))
        tally.add(verdicts(workload, traced))
        tally.add([traced.output == plain.output])
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
    if workload.name == "mc_sweep":
        with Tracer() as hooks:
            serial = Runner(hooks).run(workload, pass_seed, workload.job.argv(pass_seed, workers=1))
        tally.add(verdicts(workload, serial))
        tally.add([serial.output == plain.output])  # byte-identical at workers 1 and 2

    if workload.name == "grid_fanout":
        probe, probe_tracer = traced, tracer
    else:
        fanout = WORKLOADS["grid_fanout"]
        probe, probe_tracer = layers.trace_pass(fanout, fanout.pass_seed(seed, 0))
        tally.add(verdicts(fanout, probe))
    metrics.update(layers.fanout_times(probe, probe_tracer))
    metrics.update(layers.pass_counts(traced, tracer, metrics))
    untraced_wall = statistics.median(plain_walls)
    traced_wall = statistics.median(traced_walls)
    metrics["trace.overhead_ms"] = 1e3 * (traced_wall - untraced_wall)

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"trace-{workload.name}-seed{seed}.json")
    return metrics, tally, {"pairs": len(plain_walls), "wall_s_untraced": untraced_wall,
                            "wall_s_traced": traced_wall}


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the repository this checkout is, or 'unknown' outside one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "amqd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def report(name: str, seed: int, trace: int, metrics: dict, tally: Tally, info: dict,
           env: dict) -> dict:
    """Print the human-readable table, the environment, and the result line."""
    print(f"# amqd benchmark  workload={name}  seed={seed}  trace={trace}  "
          + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in info.items()))
    for metric, value in metrics.items():
        label = "computed; " if metric in COMPUTED else ""
        note = f"  ({label}moves {NOTES[metric]})" if metric in NOTES else ""
        print(f"{metric:<44} {value:>16.6g}  {UNITS[metric]}{note}")
    print(f"{'failed_ratio':<44} {tally.failed / max(tally.attempted, 1):>16.6g}  "
          f"ratio  ({tally.failed} of {tally.attempted} operations failed)")
    print("env " + json.dumps(env))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v if math.isfinite(v) else None, "unit": UNITS[m]}
                    for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import amqd

    if Path(amqd.__file__).resolve().parent != SRC / "amqd":
        print(f"error: imported amqd from {amqd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, tally, info = traced_run(workload, args.seed)
        expected = [m.name for m in PER_LAYER]
    else:
        metrics, tally, info = untraced_run(workload, args.seed, args.seconds)
        expected = [m.name for m in END_TO_END]
    missing = [m for m in expected if m not in metrics or not math.isfinite(metrics[m])]
    if missing:
        tally.add([False] * len(missing))
        print("error: metrics not measured: " + ", ".join(missing), file=sys.stderr)
    metrics = {m: metrics.get(m, math.nan) for m in expected}
    env["loadavg_end"] = list(os.getloadavg())
    result = report(args.workload, args.seed, args.trace, metrics, tally, info, env)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    results, failures = {}, 0
    for name in WORKLOADS:
        results[name] = {}
        for trace in range(args.trace + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                failures += 1
                continue
            result = json.loads(lines[-1])
            result["env"] = json.loads(lines[-2][len("env "):])
            failures += proc.returncode
            results[name]["per_layer" if trace else "end_to_end"] = result
    print("# end-to-end summary, seed %d" % args.seed)
    header = ["workload"] + [f"{m.name} [{m.unit}]" for m in END_TO_END] + ["failed_ratio"]
    print("  ".join(f"{h:>22}" for h in header))
    for name, by_kind in results.items():
        res = by_kind.get("end_to_end")
        if res is None:
            print(f"{name:>22}  (no result)")
            continue
        cells = [res["metrics"][m.name]["value"] for m in END_TO_END]
        cells.append(res["failed"] / res["attempted"])
        print(f"{name:>22}  " + "  ".join(f"{c:>22.6g}" for c in cells))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "results": results}, fh,
                      indent=1)
            fh.write("\n")
    return 1 if failures else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every result as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amqd" / "__init__.py").is_file():
        print(f"error: no amqd sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
