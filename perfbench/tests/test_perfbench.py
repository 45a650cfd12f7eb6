"""Self-tests of the benchmark: catalogue, emitted metrics and checkers.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
from checks import binomial_ok, check_points, check_slope, check_sweep, check_validate  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS, Sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_METRICS = SPEC["end_to_end"] + SPEC["per_layer"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_is_generated_from_the_catalogue():
    assert SPEC == catalog.benchmark_json()
    assert (ROOT / "BENCHMARK.json").read_text() == catalog.render()


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in ALL_METRICS] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.fullmatch(name), name
    for metric in ALL_METRICS:
        assert catalog.UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        n for n in WORKLOADS if n not in catalog.UNGATED]
    assert set(catalog.WORKLOAD_WHY) == set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128


def _assert_result(stdout: str, expected: list):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])


def test_untraced_run_emits_every_end_to_end_metric():
    proc = run_bench("--workload", "grid_fanout", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    _assert_result(proc.stdout, SPEC["end_to_end"])


def test_traced_run_emits_every_per_layer_metric():
    proc = run_bench("--workload", "validate", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    _assert_result(proc.stdout, SPEC["per_layer"])


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mc_sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_seeds_start_at_the_default_and_never_share_a_stride():
    for w in WORKLOADS.values():
        assert w.pass_seed(0, 0) == w.default_seed
        seeds = {w.pass_seed(s, k) for s in range(5) for k in range(w.seeds_per_run)}
        assert len(seeds) == 5 * w.seeds_per_run
        assert all((a - w.default_seed) % SEED_STRIDE == 0 for a in seeds)


@pytest.fixture(scope="module")
def small_sweep():
    """A real three-point ``simulate`` output and its sweep description."""
    import io
    from contextlib import redirect_stdout

    from amqd import cli

    sweep = Sweep(1, "rate", 0.5, (0, 20, 10), 131_072, 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(sweep.argv(3))
    return sweep, out.getvalue(), code


def test_sweep_checker_accepts_the_true_reference(small_sweep):
    sweep, text, code = small_sweep
    assert check_sweep(text, code, sweep.snr_grid(), sweep.reference, sweep.trials) == [True] * 3


def test_sweep_checker_rejects_a_doubled_reference(small_sweep):
    sweep, text, code = small_sweep
    verdicts = check_sweep(text, code, sweep.snr_grid(), lambda s: 2 * sweep.reference(s),
                           sweep.trials)
    assert verdicts == [False] * 3


def test_sweep_checker_rejects_nonzero_exit_and_missing_rows(small_sweep):
    sweep, text, _ = small_sweep
    grid = sweep.snr_grid()
    assert check_sweep(text, 2, grid, sweep.reference, sweep.trials) == [False] * 3
    truncated = "\n".join(text.splitlines()[:2]) + "\n"
    assert check_sweep(truncated, 0, grid, sweep.reference, sweep.trials) == [True, False, False]


def test_point_checker_rejects_a_doubled_reference():
    p, n = 6.5e-6, 63_500_616
    hit = (round(p * n) / n, p, n)
    assert check_points([hit]) == [True]
    assert check_points([(hit[0], 2 * p, n)]) == [False]
    assert binomial_ok(0.5, 0.5, 100) and not binomial_ok(0.0, 0.5, 100)


def test_slope_checker_rejects_the_wrong_diversity_order():
    assert check_slope(1.94, 2)
    assert not check_slope(1.94, 3)
    assert not check_slope(1.75, 2) and not check_slope(2.25, 2)


def test_validate_checker_counts_each_check_and_rejects_fail_lines():
    text = "PASS a: ok\nPASS b: ok\nWARN w\n2 checks, 0 failed, 1 warnings\n"
    assert check_validate(text, 0) == [True, True]
    assert check_validate(text.replace("PASS b", "FAIL b"), 1) == [True, False]
    assert check_validate(text, 1) == [True, True, False]
    assert check_validate("", 0) == [False]
