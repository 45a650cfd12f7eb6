"""Experiment configuration: SNR grids, defaults, JSON config files.

Precedence is CLI flag > JSON config file > built-in defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs; validated on construction."""

    l_values: tuple
    zeta: float
    snr_grid: SnrGrid
    trials: int = 100000
    seed: int = 0
    model: TransmittanceModel = field(default_factory=lambda: TransmittanceModel.rayleigh(1.0))
    event: str = "threshold"
    rate_bits: float | None = None
    workers: int = 1

    def __post_init__(self):
        ls = tuple(int(v) for v in self.l_values)
        if len(ls) == 0 or any(v < 1 for v in ls):
            raise ConfigError("every l must be >= 1")
        self.l_values = ls
        if not (0.0 <= float(self.zeta) < 1.0):
            raise ConfigError("zeta must lie in [0, 1)")
        if not (1 <= int(self.trials) <= MAX_TRIALS):
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}]")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if isinstance(self.model, str):
            self.model = parse_model_spec(self.model)
        if self.event not in ("threshold", "rate"):
            raise ConfigError("event must be 'threshold' or 'rate'")
        if self.rate_bits is not None and not (0.0 <= float(self.rate_bits) < math.inf):
            raise ConfigError("rate-bits must be finite and nonnegative")
        self.workers = check_workers(self.workers)
        if len(self.snr_grid) == 0:
            raise ConfigError("snr grid is empty")


def _integer(value):
    # JSON has one number type, so 1e6 is as good an integer as 1000000
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _integers(value):
    return [_integer(v) for v in (value if isinstance(value, list) else [value])]


def _text(value):
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _format(value):
    if value not in ("csv", "json"):
        raise ValueError(value)
    return value


# Every setting, with what a config file may give for it.  Each command has a
# flag (its dest is the key) for the settings it reads, and a config file given
# to that command may set those keys alone.
SETTINGS = {
    "l": ("an integer or a list of integers", _integers),
    "zeta": ("a number", _number),
    "snr_db_min": ("a number", _number),
    "snr_db_max": ("a number", _number),
    "snr_db_step": ("a number", _number),
    "trials": ("an integer", _integer),
    "seed": ("an integer", _integer),
    "model": ("a string", _text),
    "event": ("a string", _text),
    "rate_bits": ("a number or null", _optional(_number)),
    "workers": ("an integer", _integer),
    "out": ("a string or null", _optional(_text)),
    "format": ("'csv' or 'json'", _format),
}


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
        expected, convert = SETTINGS[key]
        try:
            settings[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}") from None
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


def build_experiment_config(settings: dict) -> ExperimentConfig:
    """ExperimentConfig from merged settings that hold every SETTINGS key."""
    return ExperimentConfig(
        l_values=tuple(settings["l"]),
        zeta=float(settings["zeta"]),
        snr_grid=SnrGrid(settings["snr_db_min"], settings["snr_db_max"], settings["snr_db_step"]),
        trials=int(settings["trials"]),
        seed=int(settings["seed"]),
        model=settings["model"],
        event=str(settings["event"]),
        rate_bits=None if settings["rate_bits"] is None else float(settings["rate_bits"]),
        workers=int(settings["workers"]),
    )
