"""Experiment configuration: SNR grids, every setting with its default and
flag, JSON config files.

Precedence is CLI flag > JSON config file > built-in defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .error_analysis import MAX_GRID_POINTS, MAX_TRIALS, check_workers
from .exceptions import ConfigError
from .sampling import TransmittanceModel


MAX_ABS_DB = 3000.0  # 10^(dB/10) stays a normal, nonzero float


@dataclass(frozen=True)
class SnrGrid:
    """Inclusive dB grid of at most MAX_GRID_POINTS points within
    +-MAX_ABS_DB; formulas consume the linear values 10^(dB/10)."""

    min_db: float
    max_db: float
    step_db: float

    def __post_init__(self):
        lo, hi, step = float(self.min_db), float(self.max_db), float(self.step_db)
        if not all(-MAX_ABS_DB <= v <= MAX_ABS_DB for v in (lo, hi)):
            raise ConfigError(f"snr grid bounds must be finite and within +-{MAX_ABS_DB:g} dB")
        if not (0.0 < step < math.inf):
            raise ConfigError("snr-db-step must be positive and finite")
        if hi < lo:
            raise ConfigError("snr-db-max must be >= snr-db-min")
        # the count db_values makes; a span that overflows to inf fails too
        if not ((hi - lo) / step + 1e-9 < MAX_GRID_POINTS):
            raise ConfigError(f"snr grid has more than {MAX_GRID_POINTS} points")

    def db_values(self) -> np.ndarray:
        lo, hi, step = float(self.min_db), float(self.max_db), float(self.step_db)
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(count)

    def linear_values(self) -> np.ndarray:
        return 10.0 ** (self.db_values() / 10.0)

    def __len__(self) -> int:
        return len(self.db_values())


def parse_model_spec(text: str) -> TransmittanceModel:
    """Parse a model flag: 'rayleigh', 'fixed=<c1,c2,...>', 'uniform-phase=<mag>'."""
    spec = str(text).strip()
    if spec == "rayleigh":
        return TransmittanceModel.rayleigh(1.0)
    if spec.startswith("fixed="):
        body = spec[len("fixed="):]
        try:
            values = tuple(complex(tok.strip()) for tok in body.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"cannot parse fixed transmittance values: {body!r}") from exc
        if not values:
            raise ConfigError("fixed model needs at least one value")
        return TransmittanceModel.fixed(values)
    if spec.startswith("uniform-phase="):
        body = spec[len("uniform-phase="):]
        try:
            mag = float(body)
        except ValueError as exc:
            raise ConfigError(f"cannot parse uniform-phase magnitude: {body!r}") from exc
        return TransmittanceModel.uniform_phase(mag)
    raise ConfigError(
        f"unknown model spec {spec!r}; expected rayleigh, fixed=<list>, or uniform-phase=<mag>"
    )


def _setting(default, **flag):
    """An ExperimentConfig field: its default, and its flag's argparse keywords."""
    return field(default=default, metadata=flag)


@dataclass
class ExperimentConfig:
    """Everything a command reads; validated on construction.

    Each field but snr_grid is one setting, declared here alone: its default
    and, in its metadata, the argparse keywords of its flag --<name> (``_``
    written ``-``).  A config file's type for the setting follows from that
    flag (see SETTINGS).  snr_grid is built from the three snr_db fields.
    """

    l: tuple = _setting((1,), type=int, action="append",
                        help="information-carrying sub-channels; repeatable")
    zeta: float = _setting(0.0, type=float,
                           help="degree-of-freedom ratio in [0, 1); simulate reads it only "
                                "for the rate event's default target (at --l 1), and its "
                                "threshold event ignores it; slope's thresholds fall as "
                                "snr^-(1-zeta)")
    snr_db_min: float = _setting(0.0, type=float, help="grid start in dB")
    snr_db_max: float = _setting(20.0, type=float, help="grid end in dB (inclusive)")
    snr_db_step: float = _setting(2.0, type=float, help="grid step in dB")
    trials: int = _setting(100000, type=int, help="Monte Carlo trials per estimate (1 to 2e9)")
    seed: int = _setting(0, type=int,
                         help="seed; batch b of grid point i of simulate or slope draws "
                              "from the stream keyed (seed, b, i)")
    model: TransmittanceModel = _setting(
        "rayleigh",
        help="transmittance model: rayleigh | fixed=<c1,c2,...> | uniform-phase=<mag>")
    event: str = _setting("threshold", choices=("rate", "threshold"),
                          help="error event to sample; the rate event takes --l 1 only "
                               "(exit 2 otherwise)")
    rate_bits: float | None = _setting(None, type=float,
                                       help="rate target of the rate event, at --l 1 "
                                            "(default: zeta * log2(1 + snr)); the threshold "
                                            "event ignores it")
    workers: int = _setting(1, type=int,
                            help="parallel Monte Carlo workers (1-64; one pool per run)")
    out: str | None = _setting(None, help="output path; stdout when omitted")
    format: str = _setting("csv", choices=("csv", "json"), help="output format")
    snr_grid: SnrGrid = field(init=False)

    def __post_init__(self):
        self.snr_grid = SnrGrid(self.snr_db_min, self.snr_db_max, self.snr_db_step)
        # a scalar l is one value, as in a config file
        ls = tuple(int(v) for v in (self.l if np.ndim(self.l) else (self.l,)))
        if len(ls) == 0 or any(v < 1 for v in ls):
            raise ConfigError("every l must be >= 1")
        self.l = ls
        if not (0.0 <= float(self.zeta) < 1.0):
            raise ConfigError("zeta must lie in [0, 1)")
        if not (1 <= int(self.trials) <= MAX_TRIALS):
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}]")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if isinstance(self.model, str):
            self.model = parse_model_spec(self.model)
        for key in ("event", "format"):
            if getattr(self, key) not in SETTINGS[key].metadata["choices"]:
                raise ConfigError(f"{key} must be {_expected(SETTINGS[key])}")
        if self.rate_bits is not None and not (0.0 <= float(self.rate_bits) < math.inf):
            raise ConfigError("rate-bits must be finite and nonnegative")
        self.workers = check_workers(self.workers)
        if len(self.snr_grid) == 0:
            raise ConfigError("snr grid is empty")


# Every setting, by name: its ExperimentConfig field.  Each command has a flag
# (its dest is the name) for the settings it reads, and a config file given to
# that command may set those keys alone.
SETTINGS = {f.name: f for f in fields(ExperimentConfig) if f.init}

_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _expected(setting) -> str:
    """What a config file may give for a setting: a value its flag takes, a
    list of them if the flag repeats, or null if the setting defaults to None."""
    flag = setting.metadata
    choices = flag.get("choices")
    text = " or ".join(map(repr, choices)) if choices else _KINDS[flag.get("type", str)]
    if flag.get("action") == "append":
        text += " or a list of %ss" % text.split()[-1]
    return text + " or null" * (setting.default is None)


def _scalar(flag, value):
    if "choices" in flag:
        if value not in flag["choices"]:
            raise ValueError(value)
        return value
    kind = flag.get("type", str)
    # JSON has one number type, so 1e6 is as good an integer as 1000000
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(value)
    return kind(value)


def _convert(setting, value):
    """A config file's value as the setting's flag would give it; TypeError,
    ValueError or OverflowError when it is not what _expected says."""
    if value is None and setting.default is None:
        return None
    flag = setting.metadata
    if flag.get("action") == "append":
        return [_scalar(flag, v) for v in (value if isinstance(value, list) else [value])]
    return _scalar(flag, value)


def _read_config_file(path: str, keys) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; "
                          f"this command takes {sorted(keys)}")
    settings = {}
    for key, value in raw.items():
        try:
            settings[key] = _convert(SETTINGS[key], value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {key!r} must be {_expected(SETTINGS[key])}, "
                              f"got {value!r}") from None
    return settings


def merge_settings(defaults: dict, config_path: str | None, cli: dict) -> dict:
    """Layer the three sources; CLI values of None mean 'flag not given'.
    The config file may set only the keys `cli` has, the command's flags."""
    merged = dict(defaults)
    if config_path:
        merged.update(_read_config_file(config_path, cli))
    for key, value in cli.items():
        if value is not None:
            merged[key] = value
    return merged
