"""Phase-space constellations, permutation spreading, and product distances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .sampling import RngStream


def constellation_size(rate_bits: float) -> int:
    """Point count for a rate: round(2^rate), never below 2."""
    if not -math.inf < float(rate_bits) < 1024.0:  # 2^1024 is past the float range
        raise ConfigError("rate_bits must be finite and below 1024")
    return max(2, int(round(2.0 ** float(rate_bits))))


@dataclass(frozen=True)
class Constellation:
    """Distinct phase-space points whose count matches round(2^rate_bits)."""

    points: tuple
    rate_bits: float

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ConfigError("a constellation needs at least 2 points")
        if len(set(pts)) != len(pts):
            raise ConfigError("constellation points must be pairwise distinct")
        if len(pts) != constellation_size(self.rate_bits):
            raise ConfigError("point count must equal round(2^rate_bits), clamped to >= 2")

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.complex128)

    @classmethod
    def square_grid(cls, rate_bits: float) -> "Constellation":
        """Default layout: first m points of a k x k grid over [-1,1]^2,
        scaled to unit average energy."""
        m = constellation_size(rate_bits)
        k = int(math.ceil(math.sqrt(m)))
        axis = np.linspace(-1.0, 1.0, k) if k > 1 else np.array([0.0])
        grid = (axis[None, :] + 1j * axis[:, None]).ravel()[:m]
        energy = float(np.mean(np.abs(grid) ** 2))
        if energy <= 0.0:
            raise ConfigError("degenerate grid: zero average energy")
        return cls(tuple(grid / math.sqrt(energy)), rate_bits)


@dataclass(frozen=True)
class PermutationConstellation:
    """Base constellation plus l-1 permutations, one derived constellation per sub-channel."""

    base: Constellation
    perms: tuple  # l-1 index permutations of the base points

    def __post_init__(self):
        d = len(self.base)
        norm = []
        for p in self.perms:
            idx = tuple(int(i) for i in p)
            if sorted(idx) != list(range(d)):
                raise ConfigError("each permutation must be a bijection on point indices")
            norm.append(idx)
        object.__setattr__(self, "perms", tuple(norm))

    @property
    def l(self) -> int:
        return 1 + len(self.perms)

    def constellations(self) -> list:
        """Point arrays for all l sub-channels; index 0 is the base itself."""
        base = self.base.as_array()
        return [base] + [base[list(p)] for p in self.perms]


def build_permutation_constellation(
    base: Constellation, l: int, rng: RngStream, identity: bool = False
) -> PermutationConstellation:
    """l constellations: the base plus l-1 uniformly random permutations of it.

    identity=True swaps every permutation for the identity (test hook).
    """
    if int(l) < 1:
        raise ConfigError("l must be >= 1")
    d = len(base)
    if identity:
        perms = tuple(tuple(range(d)) for _ in range(int(l) - 1))
    else:
        g = rng.generator()
        perms = tuple(tuple(int(i) for i in g.permutation(d)) for _ in range(int(l) - 1))
    return PermutationConstellation(base, perms)


def product_distance(p_a, p_b, sigma2_omega_prime: float, sigma2_n_per_subchannel) -> float:
    """Product over sub-channels of the squared normalized differences
    |(a_i - b_i) / sqrt(sigma2_omega_prime / sigma2_n_i)|^2.

    A square past the float range counts as inf.  A zero factor (identical
    components, or a square that underflows), or a partial product that
    underflows, zeroes the product even next to an infinite factor; the
    caller decides what to do with a zero.
    """
    a = np.asarray(p_a, dtype=np.complex128)
    b = np.asarray(p_b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ConfigError("codewords must be equal-length nonempty vectors")
    s2n = np.asarray(sigma2_n_per_subchannel, dtype=np.float64)
    if s2n.ndim == 0:
        s2n = np.full(a.size, float(s2n))
    if s2n.shape != a.shape:
        raise ConfigError("noise variances must broadcast to the codeword length")
    s2w = float(sigma2_omega_prime)
    if not (0.0 < s2w < math.inf and np.all((0.0 < s2n) & (s2n < math.inf))):
        raise ConfigError("variances must be positive and finite")
    prod = 1.0
    for pa_i, pb_i, s2_i in zip(a, b, s2n):
        try:
            factor = abs((complex(pa_i) - complex(pb_i)) / math.sqrt(s2w / float(s2_i))) ** 2
        except OverflowError:  # float ** 2 raises past the float range
            factor = math.inf
        except ZeroDivisionError:  # s2w / s2_i underflows to 0
            factor = 0.0 if pa_i == pb_i else math.inf
        if factor == 0.0 or prod == 0.0:  # zero, even if a later factor is inf
            return 0.0
        prod *= factor
    return prod


def product_distance_bound(l: int, rate_bits: float, c: float = 1.0) -> float:
    """(c / (l * 2^rate_bits))^l, the worst-case product-distance floor; 0.0
    or inf where the bound lies past the float range."""
    l, rate_bits, c = int(l), float(rate_bits), float(c)
    if l < 1:
        raise ConfigError("l must be >= 1")
    if not 0.0 < c < math.inf:
        raise ConfigError("c must be positive and finite")
    if not math.isfinite(rate_bits):
        raise ConfigError("rate_bits must be finite")
    try:
        bound = (c / (l * 2.0 ** rate_bits)) ** l
    except (OverflowError, ZeroDivisionError):  # 2^rate_bits or the power left the float range
        bound = 0.0
    if 0.0 < bound < math.inf:
        return bound
    # a step left the float range, so take the bound from its log
    log2_bound = l * (math.log2(c) - math.log2(l) - rate_bits)
    return math.inf if log2_bound >= 1024.0 else 2.0 ** log2_bound
