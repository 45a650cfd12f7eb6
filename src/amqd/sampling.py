"""Seeded sampling of every random object in the transmission chain.

Every stream is keyed by (seed, stream_index) through one SeedSequence, so a
sample depends only on those two keys and not on execution order or worker
count.  The draws made here, and the crude Monte Carlo kernel's, come from a
counter-based Philox generator over that key; the importance sampler draws
from PCG64DXSM over the same key (error_analysis._weigh_generator): at
l <= 8 each point its Sobol scrambles, once, from the streams of the batches
that start its replicates (error_analysis._Scrambles), and beyond, its iid
batches their gains.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError

_U64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """Substream handle: identical (seed, stream_index) gives bit-identical draws.

    stream_index is the SeedSequence spawn key: one integer i, keying (i,), or
    a tuple of integers; a Monte Carlo grid point p keys its batch b as (b, p).
    seed_sequence() is the one place the key is made; generator() is Philox
    over it.
    """

    seed: int
    stream_index: int | tuple = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < _U64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        key = self.spawn_key()
        if not key or not all(0 <= k < _U64 for k in key):
            raise ConfigError("stream_index must be unsigned 64-bit integers")

    def spawn_key(self) -> tuple:
        if isinstance(self.stream_index, tuple):
            return tuple(int(k) for k in self.stream_index)
        return (int(self.stream_index),)

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(int(self.seed), spawn_key=self.spawn_key())

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed_sequence()))


@dataclass(frozen=True)
class ComplexGaussianSpec:
    """Zero-mean circular-symmetric complex Gaussian vector spec: a modulated
    vector, Rayleigh gains or a sub-channel set's additive noise.

    variance_per_entry[i] is E[|z_i|^2]; real and imaginary parts each carry
    half of it.  The vector's dimension is the tuple's length.
    """

    variance_per_entry: tuple

    def __post_init__(self):
        var = tuple(float(v) for v in self.variance_per_entry)
        if len(var) == 0:
            raise ConfigError("a complex Gaussian vector needs at least one entry")
        if not all(0.0 <= v < math.inf for v in var):  # NaN fails this too
            raise ConfigError("variances must be finite and nonnegative")
        object.__setattr__(self, "variance_per_entry", var)

    @classmethod
    def iid(cls, dimension: int, variance: float) -> "ComplexGaussianSpec":
        return cls((float(variance),) * int(dimension))

    def __len__(self) -> int:
        return len(self.variance_per_entry)


RAYLEIGH = "rayleigh"
FIXED = "fixed"
UNIFORM_PHASE = "uniform_phase"


@dataclass(frozen=True)
class TransmittanceModel:
    """Per-sub-channel Fourier-domain gain model.

    rayleigh: F ~ CN(0, sigma2_f), i.e. |F|^2 exponential with mean sigma2_f.
    fixed: configured finite complex values used verbatim.
    uniform_phase: constant magnitude, phase uniform on [0, 2*pi).
    """

    kind: str
    sigma2_f: float = 1.0
    values: tuple | None = None
    magnitude: float | None = None

    def __post_init__(self):
        if self.kind == RAYLEIGH:
            if not (0.0 <= float(self.sigma2_f) < math.inf):
                raise ConfigError("sigma2_f must be finite and nonnegative")
        elif self.kind == FIXED:
            if not self.values:
                raise ConfigError("fixed model needs at least one value")
            values = tuple(complex(v) for v in self.values)
            if not all(cmath.isfinite(v) for v in values):
                raise ConfigError("fixed gains must be finite")
            object.__setattr__(self, "values", values)
        elif self.kind == UNIFORM_PHASE:
            if self.magnitude is None or not (0.0 <= float(self.magnitude) <= 1.0):
                raise ConfigError("uniform_phase magnitude must lie in [0, 1]")
        else:
            raise ConfigError(f"unknown transmittance model kind: {self.kind!r}")

    @classmethod
    def rayleigh(cls, sigma2_f: float = 1.0) -> "TransmittanceModel":
        return cls(RAYLEIGH, sigma2_f=float(sigma2_f))

    @classmethod
    def fixed(cls, values) -> "TransmittanceModel":
        return cls(FIXED, values=tuple(complex(v) for v in values))

    @classmethod
    def uniform_phase(cls, magnitude: float) -> "TransmittanceModel":
        return cls(UNIFORM_PHASE, magnitude=float(magnitude))


def sample_modulation_block(spec: ComplexGaussianSpec, rng: RngStream, count: int) -> np.ndarray:
    """count independent draws, shape (count, n); row 0 equals a one-row block."""
    if int(count) < 1:
        raise ConfigError("count must be >= 1")
    # each row consumes its own contiguous run of the normal stream (real
    # parts, then imaginary parts), so row 0 of any block equals a one-row
    # block from the same stream; the layout is part of the determinism contract
    draws = rng.generator().standard_normal((int(count), 2, len(spec)))
    scale = np.sqrt(np.asarray(spec.variance_per_entry, dtype=np.float64) / 2.0)
    return (draws[:, 0, :] + 1j * draws[:, 1, :]) * scale
