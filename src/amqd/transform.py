"""Unitary discrete Fourier transform over complex amplitude vectors.

The transmitter maps the modulated Gaussian vector to subcarriers with the
inverse transform; the receiver undoes it with the forward transform.  Both
directions carry the 1/sqrt(n) normalization, so the pair is exactly unitary
and Parseval holds without bookkeeping factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError


@dataclass(eq=False)
class ModulatedVector:
    """Nonempty 1-d complex amplitude vector."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.ndim != 1 or self.entries.size == 0:
            raise ConfigError("modulated vector must be a nonempty 1-d complex array")

    def __len__(self) -> int:
        return int(self.entries.size)


def unitary_dft(x: np.ndarray) -> np.ndarray:
    """DFT with 1/sqrt(n) normalization; accepts any length n >= 1."""
    return np.fft.fft(np.asarray(x, dtype=np.complex128), norm="ortho")


def unitary_idft(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unitary_dft`, same normalization."""
    return np.fft.ifft(np.asarray(x, dtype=np.complex128), norm="ortho")
