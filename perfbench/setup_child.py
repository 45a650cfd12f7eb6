"""Set-up of one workload in a fresh process, timed from outside by run.py.

    python3 perfbench/setup_child.py simulate --l 3 ...   (an amqd command line)
    python3 perfbench/setup_child.py scan                 (the library slope scan)

Imports amqd from src/ and builds the workload's configuration: for a command
line, ``amqd.cli.main`` runs until it would start the experiment.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class ConfigBuilt(Exception):
    pass


def stop(*args, **kwargs):
    raise ConfigBuilt


def main(argv) -> int:
    if argv == ["scan"]:
        from amqd import TransmittanceModel, diversity_slope_scan  # noqa: F401

        TransmittanceModel.rayleigh(1.0)
        return 0
    from amqd import cli

    cli.run_monte_carlo = stop
    cli.run_validation = stop
    try:
        cli.main(argv)
    except ConfigBuilt:
        return 0
    return 3  # main returned without reaching the experiment


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
