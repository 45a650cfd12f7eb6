"""Gaussian sub-channel model: per-subcarrier gain plus additive noise.

Also carries the worst-case sub-channel selection and the multiuser
secret-key-rate allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .sampling import ComplexGaussianSpec, RngStream, sample_modulation_block
from .transform import ModulatedVector, unitary_dft, unitary_idft


@dataclass(frozen=True)
class SubchannelSet:
    """l information-carrying sub-channels: Fourier-domain gains plus noise,
    whose variance_per_entry[i] is E|n_i|^2."""

    l: int
    f_transmittance: tuple
    noise: ComplexGaussianSpec

    def __post_init__(self):
        if int(self.l) < 1:
            raise ConfigError("l must be >= 1")
        gains = tuple(complex(v) for v in self.f_transmittance)
        if len(gains) != int(self.l) or len(self.noise) != int(self.l):
            raise ConfigError("gain and noise lengths must equal l")
        object.__setattr__(self, "f_transmittance", gains)

    @classmethod
    def all_pass(cls, l: int) -> "SubchannelSet":
        """Unit gain, zero noise; the identity channel."""
        return cls(l, (1.0 + 0.0j,) * int(l), ComplexGaussianSpec.iid(l, 0.0))

    @classmethod
    def scalar(cls, l: int, gain: complex) -> "SubchannelSet":
        """The same gain on every sub-channel, zero noise."""
        return cls(l, (complex(gain),) * int(l), ComplexGaussianSpec.iid(l, 0.0))


@dataclass(frozen=True)
class RateAllocation:
    """Secret-key-rate allocation across users and sub-channels.

    zeta_per_user[k] is user k's degree-of-freedom ratio; p_prime is the
    aggregate private rate input (taken as a raw parameter).
    """

    zeta_per_user: tuple
    k_in: int
    k_out: int
    p_prime: float

    def __post_init__(self):
        zs = tuple(float(z) for z in self.zeta_per_user)
        if len(zs) == 0 or any(not (0.0 <= z < 1.0) for z in zs):
            raise ConfigError("every zeta must lie in [0, 1)")
        object.__setattr__(self, "zeta_per_user", zs)
        if int(self.k_in) < 1 or int(self.k_out) < 1:
            raise ConfigError("k_in and k_out must be >= 1")
        if not 0.0 <= float(self.p_prime) < math.inf:  # NaN too
            raise ConfigError("p_prime must be nonnegative and finite")

    @property
    def n_min(self) -> int:
        return min(int(self.k_in), int(self.k_out))


@dataclass(frozen=True)
class WorstCaseSet:
    """Sub-channels that clear the outage threshold, plus their weakest member."""

    survivors: tuple
    min_index: int | None
    min_magnitude: float | None


def apply_channel(d: ModulatedVector, ch: SubchannelSet, rng: RngStream) -> ModulatedVector:
    """output_i = F_i * d_i + noise_i with noise freshly drawn from ch.noise."""
    if len(d) != ch.l:
        raise ConfigError("input length must equal the number of sub-channels")
    delta = sample_modulation_block(ch.noise, rng, 1)[0]
    gains = np.asarray(ch.f_transmittance, dtype=np.complex128)
    return ModulatedVector(gains * d.entries + delta)


def end_to_end_roundtrip(z: ModulatedVector, ch: SubchannelSet, rng: RngStream) -> ModulatedVector:
    """Full chain: inverse transform, sub-channels, forward transform."""
    received = apply_channel(ModulatedVector(unitary_idft(z.entries)), ch, rng)
    return ModulatedVector(unitary_dft(received.entries))


def worst_case_set(ch: SubchannelSet, snr_star: float) -> WorstCaseSet:
    """Indices with |F_i|^2 >= snr_star^-l, and the weakest survivor.

    snr_star is the worst (minimum) sub-channel SNR.  Ties on the minimum
    magnitude resolve to the lowest index.  An empty survivor tuple is a valid
    result: it is the outage event itself.
    """
    if not float(snr_star) > 0.0:
        raise ConfigError("snr_star must be positive")
    try:
        threshold = float(snr_star) ** (-ch.l)
    except OverflowError:  # past the float range, so no sub-channel clears it
        threshold = math.inf
    mags = np.abs(np.asarray(ch.f_transmittance, dtype=np.complex128))
    survivors = tuple(i for i, m in enumerate(mags) if m ** 2 >= threshold)
    if not survivors:
        return WorstCaseSet((), None, None)
    surv_mags = mags[list(survivors)]
    k = int(np.argmin(surv_mags))  # argmin takes the first hit, i.e. lowest index
    return WorstCaseSet(survivors, survivors[k], float(surv_mags[k]))


def secret_key_rate(alloc: RateAllocation, user: int) -> float:
    """zeta_k / n_min times the aggregate private rate."""
    if not (0 <= int(user) < len(alloc.zeta_per_user)):
        raise ConfigError("user index out of range")
    return alloc.zeta_per_user[int(user)] / alloc.n_min * alloc.p_prime
