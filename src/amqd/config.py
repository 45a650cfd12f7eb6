"""Experiment configuration: SNR grids, defaults, JSON config files.

Precedence is CLI flag > JSON config file > built-in defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .error_analysis import check_workers
from .exceptions import ConfigError
from .sampling import TransmittanceModel


@dataclass(frozen=True)
class SnrGrid:
    """Inclusive dB grid; formulas consume the linear values 10^(dB/10)."""

    min_db: float
    max_db: float
    step_db: float

    def __post_init__(self):
        if not (float(self.step_db) > 0.0):
            raise ConfigError("snr-db-step must be positive")
        if float(self.max_db) < float(self.min_db):
            raise ConfigError("snr-db-max must be >= snr-db-min")

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
    n: int | None = None
    trials: int = 100000
    seed: int = 0
    model: TransmittanceModel = field(default_factory=lambda: TransmittanceModel.rayleigh(1.0))
    sigma_noise: float = 1.0
    event: str = "threshold"
    rate_bits: float | None = None
    workers: int = 1

    def __post_init__(self):
        ls = tuple(int(v) for v in self.l_values)
        if len(ls) == 0 or any(v < 1 for v in ls):
            raise ConfigError("every l must be >= 1")
        self.l_values = ls
        if self.n is None:
            self.n = max(ls)
        if int(self.n) < max(ls):
            raise ConfigError("n must be >= every configured l")
        self.n = int(self.n)
        if not (0.0 <= float(self.zeta) < 1.0):
            raise ConfigError("zeta must lie in [0, 1)")
        if int(self.trials) < 1:
            raise ConfigError("trials must be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if isinstance(self.model, str):
            self.model = parse_model_spec(self.model)
        if float(self.sigma_noise) < 0.0:
            raise ConfigError("sigma-noise must be nonnegative")
        if self.event not in ("threshold", "rate"):
            raise ConfigError("event must be 'threshold' or 'rate'")
        if self.rate_bits is not None and float(self.rate_bits) < 0.0:
            raise ConfigError("rate-bits must be nonnegative")
        self.workers = check_workers(self.workers)
        if len(self.snr_grid) == 0:
            raise ConfigError("snr grid is empty")


_CONFIG_KEYS = {
    "n", "l", "zeta", "snr_db_min", "snr_db_max", "snr_db_step", "trials", "seed",
    "model", "sigma_noise", "event", "rate_bits", "workers", "out", "format",
}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def merge_settings(defaults: dict, config_path: str | None, cli: dict) -> dict:
    """Layer the three sources; CLI values of None mean 'flag not given'."""
    merged = dict(defaults)
    if config_path:
        merged.update(_read_config_file(config_path))
    for key, value in cli.items():
        if value is not None:
            merged[key] = value
    return merged


def build_experiment_config(settings: dict) -> ExperimentConfig:
    l_raw = settings.get("l", [1])
    if isinstance(l_raw, (int, float)):
        l_raw = [int(l_raw)]
    grid = SnrGrid(
        float(settings.get("snr_db_min", 0.0)),
        float(settings.get("snr_db_max", 20.0)),
        float(settings.get("snr_db_step", 1.0)),
    )
    return ExperimentConfig(
        l_values=tuple(int(v) for v in l_raw),
        zeta=float(settings.get("zeta", 0.0)),
        snr_grid=grid,
        n=None if settings.get("n") is None else int(settings["n"]),
        trials=int(settings.get("trials", 100000)),
        seed=int(settings.get("seed", 0)),
        model=settings.get("model", "rayleigh"),
        sigma_noise=float(settings.get("sigma_noise", 1.0)),
        event=str(settings.get("event", "threshold")),
        rate_bits=None if settings.get("rate_bits") is None else float(settings["rate_bits"]),
        workers=int(settings.get("workers", 1)),
    )
