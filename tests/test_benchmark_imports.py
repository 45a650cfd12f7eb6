"""The benchmark under perfbench/ imports names from amqd, rebinds some of
amqd's module attributes and runs amqd command lines and scan keywords.
These tests read the perfbench sources (and change nothing there) and check
that each of those names still exists and each workload's command line or
keywords are still taken, so a deletion or rename in amqd cannot silently
break the benchmark.  One pass of each workload is also run and judged by
the benchmark's own checks, so an output the benchmark would count as
incorrect fails here first."""

import ast
import hashlib
import importlib
import inspect
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# module attributes perfbench rebinds (spies, stops) or reads by attribute access
REBOUND = [
    ("amqd.cli", "_emit"),
    ("amqd.cli", "run_monte_carlo"),
    ("amqd.cli", "run_validation"),
    ("amqd.experiments", "run_monte_carlo"),
    ("amqd.error_analysis", "analytic_event_probability"),
    ("amqd.error_analysis", "monte_carlo_p_err"),
    ("amqd.error_analysis", "_BATCH"),
]


def _is_amqd(module):
    return module == "amqd" or module.startswith("amqd.")


def _imported_names():
    """(file, module, name) for every `from amqd[.<module>] import name` and
    (file, module, None) for every `import amqd[.<module>]` in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_amqd(node.module or ""):
                found.update((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, alias.name, None) for alias in node.names
                             if _is_amqd(alias.name))
    return sorted(found, key=lambda t: (t[0], t[1], t[2] or ""))


IMPORTED = _imported_names()


def _perfbench_module(name):
    """perfbench/<name>.py, imported as perfbench/run.py imports it (its
    directory on sys.path, for its sibling modules); nothing there changes."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


WORKLOADS = _perfbench_module("workloads").WORKLOADS


class _RunReached(Exception):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_parses_or_binds(name, monkeypatch):
    # a renamed flag or scan keyword would fail the workload's every pass
    # (run_failed) while amqd's own tests stayed green.  perfbench/setup_child.py
    # times setup_s as cli.main up to its call of the module-global
    # run_monte_carlo or run_validation, so a command line must reach one
    from amqd import cli, diversity_slope_scan

    workload = WORKLOADS[name]
    seed = workload.pass_seed(0, 0)
    argv = workload.cli_argv(seed)
    if argv is None:
        inspect.signature(diversity_slope_scan).bind(**workload.job.kwargs(seed))
        return

    def reached(*args, **kwargs):
        raise _RunReached

    monkeypatch.setattr(cli, "run_monte_carlo", reached)
    monkeypatch.setattr(cli, "run_validation", reached)
    with pytest.raises(_RunReached):
        cli.main(argv)


SWEEPS = sorted(name for name, w in WORKLOADS.items() if hasattr(w.job, "reference"))


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_reference_is_a_probability(name):
    # perfbench/checks.py check_sweep compares every simulate point with the
    # workload's reference(snr), an analytic_event_probability call; an input
    # check that rejected it would fail the workload's every pass (run_failed)
    job = WORKLOADS[name].job
    for snr in job.snr_grid():
        p = job.reference(snr)
        assert math.isfinite(p) and 0.0 <= p <= 1.0, (snr, p)


def test_validate_reports_the_checks_the_benchmark_times():
    # perfbench/layers.py validation_check_times takes a median per name in
    # catalog.VALIDATION_CHECKS and fails on a name no check reports; the
    # pinned `amqd validate --seed 0` output holds every check's name in order
    from test_cli import VALIDATE_SEED_0

    names = tuple(line.split()[1].rstrip(":") for line in VALIDATE_SEED_0
                  if line.startswith(("PASS", "FAIL")))
    assert names == _perfbench_module("catalog").VALIDATION_CHECKS


def test_the_walk_finds_the_benchmark_imports():
    names = {name for _, _, name in IMPORTED}
    assert {"monte_carlo_p_err", "diversity_slope_scan", "cli"} <= names


@pytest.mark.parametrize("path, module, name", IMPORTED,
                         ids=["%s:%s.%s" % t for t in IMPORTED])
def test_perfbench_import_resolves(path, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        # `from package import submodule` imports the submodule
        importlib.import_module("%s.%s" % (module, name))


@pytest.mark.parametrize("module, attr", REBOUND, ids=["%s.%s" % t for t in REBOUND])
def test_rebound_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.fixture
def mc_calls(monkeypatch):
    """The configs of every monte_carlo_p_err call, seen the way the benchmark
    sees them: every name bound to the function in a loaded amqd module is
    pointed at a logging wrapper (perfbench/spans.py, Tracer.rebind)."""
    from amqd import error_analysis

    inner = error_analysis.monte_carlo_p_err
    calls = []

    def logged(config, *args, **kwargs):
        calls.append(config)
        return inner(config, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "amqd" or name.startswith("amqd.")):
            for attr, value in list(vars(mod).items()):
                if value is inner:
                    monkeypatch.setattr(mod, attr, logged)
    return calls


def test_each_grid_point_is_one_rebindable_call(mc_calls):
    # the benchmark counts trials, and so mtrials_per_s and s_to_rel10, from
    # these calls: a grid path that bypassed the module global would count none
    from amqd import ExperimentConfig, diversity_slope_scan, run_monte_carlo

    run_monte_carlo(ExperimentConfig(l=(2,), zeta=0.0, snr_db_max=4.0, trials=70000, seed=1,
                                     workers=2))
    assert [c.point for c in mc_calls] == [0, 1, 2]
    del mc_calls[:]
    diversity_slope_scan(1, 0.0, seed=1, num_points=3, target_errors=1, workers=2)
    assert [c.point for c in mc_calls] == [0, 1, 2]


# sha256 prefix of each workload's first-pass output (the CSV, validate's
# report, or the scan's slope, thresholds and counts): a change meant to keep
# every output's bytes must keep these
FIRST_PASS_SHA256 = {
    "mc_sweep": "748e0cd766052594",
    "grid_fanout": "121678a8feb6f272",
    "rare_slope": "c15f922e99eeb8db",
    "validate": "48d32054b58fbf34",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pass_is_correct(name):
    # one pass at the workload's default seed, run and judged as
    # perfbench/run.py runs and judges it: a verdict that fails here would
    # count every pass of the workload as a failed operation
    spans, workloads = _perfbench_module("spans"), _perfbench_module("workloads")
    workload = WORKLOADS[name]
    with spans.Tracer() as tracer:
        result = workloads.Runner(tracer).run(workload, workload.pass_seed(0, 0))
    verdicts = workloads.verdicts(workload, result)
    assert verdicts and all(verdicts), verdicts
    assert hashlib.sha256(result.output.encode()).hexdigest()[:16] == FIRST_PASS_SHA256[name]
