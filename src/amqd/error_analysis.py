"""The outage event, its closed forms, and its Monte Carlo estimator.

One event definition serves every output.  MonteCarloConfig names the event,
which bounds the summed squared gains of the l sub-channels by a threshold,
and checks its inputs when it is made:
  threshold event  sum_{i<=l} |F_i|^2 < threshold   (1/snr unless given)
  rate event       log2(1 + |F|^2 snr) < rate, at l = 1 only, i.e.
                   |F|^2 < (2^rate - 1) / snr   (an infinite threshold once
                   2^rate leaves the float range, so every draw fails)
_event_geometry, the one reduction, turns the event on a gain model into
G < t with G ~ Gamma(l, 1): t = threshold / sigma2_f on Rayleigh gains, and
t = inf where a zero or deterministic (fixed, uniform-phase) gain lies below
the threshold, 0 where it does not.  monte_carlo_p_err samples the event,
and analytic_event_probability gives its exact probability P(l, t), the
oracle the Monte Carlo is checked against.  The SNR comes from the config
alone.  Either estimator decides a t of 0 or inf exactly, without drawing,
with the point interval [k/n, k/n].

monte_carlo_p_err has two estimators of that probability
(MonteCarloConfig.estimator):
  crude  count the draws below the threshold: p_hat = errors / trials with a
         Wilson interval.  Each batch draws 2 * l normals per trial, at most
         MAX_BATCH_BYTES per batch (a ConfigError beyond, before any draw).
  is     importance sampling by exponential twisting, conditioned on the
         last gain at l >= 2 (Asmussen & Glynn 2007, ch. V).  It draws the
         sum G of k gains, k = 1 at l = 1 and k = l - 1 beyond, shrunk to
         x = theta * G with theta = min(t / l, 1), so more than half of the
         draws hit (x < t) whatever p is.  At l = 1 a hit weighs the
         likelihood ratio w = theta exp(x (1/theta - 1)) <= 1.  At l >= 2
         the last gain is Exp(1) given the others, so a hit weighs the
         Gamma(k) ratio theta^k exp(x (1/theta - 1)) times
         h = 1 - e^-(t - x), the chance that the last gain closes the gap:
         at equal draws that is 5x less variance at l = 2, 4x at 3 and 2.5x
         at 10.  _proposal works out k, theta, the cut and the weights'
         scale once, for the kernel, the estimate and the slope scan's
         budget alike.
         G is -ln(u_1 ... u_k) for l <= 8 (Devroye 1986, IX.3); beyond, it
         is numpy's standard_gamma, the one draw that serves l up to MAX_L.
         A batch holds at most two draws per trial, so its memory does not
         grow with l.
         At l >= 9 the draws are iid standard_gamma (randomized QMC gains
         little there), and p_hat = sum(w) / trials with the weighted-CLT
         interval p_hat +- 1.96 sd(w) / sqrt(trials).  Every draw is
         weighed, with no gathering of the hits: a miss is clamped to the
         cut, so its weight is finite, and it leaves no gap for the last
         gain to close, so it weighs 0.
         At l <= 8 the k uniforms are the coordinates of scrambled
         Sobol points (Owen 1997; L'Ecuyer 2018): R = min(16, trials)
         independent replicates, replicate r the first trials // R points of
         its own sequence, plus one for r < trials % R, each sequence
         scrambled by a random lower-triangular matrix and a digital shift
         (_sobol_points, Joe & Kuo direction numbers, numpy bitwise ops
         only).  Each point is mapped into the hit region rather than tested
         against it (importance sampling on the event's support; Owen 2013,
         ch. 9): u_i is taken uniform on (e^-cut / (u_1 ... u_(i-1)), 1), in
         closed form, so G < cut, and the weight gains the chance of those
         ranges.  So no point is a miss, and the weight is a smooth function
         of the k uniforms, without the kink a hit test puts at the cut,
         which suits randomized QMC (Griebel, Kuo & Sloan 2013).
         p_hat = sum(w) / trials, and the interval is
         p_hat +- t_(R-1) sd(replicate means) / sqrt(R), a Student-t
         interval (ErrorEstimate.from_replicates).  The relative half-width
         at 1e5 trials, l = 2, is about 3e-5, against 2.8e-3 from iid draws.
         At trials <= 16 each replicate is one point, so the weights are iid
         and skewed, and the t interval on so few of them missed about 7%
         of the time; there the interval is Hoeffding's relative-entropy
         bound for a mean of values in [0, scale], which holds at any n.
         Either way the relative error stays bounded as p -> 0.  Where there
         is no variance estimate (one trial or one replicate, or no hit) the
         interval is [0, min(scale, 1)], since p <= scale, the bound the
         kernel's weights are taken over.  At l = 1 and t >= 1 the proposal
         is untilted (theta = 1), so every weight is 1 and p_hat is the
         region's chance 1 - e^-t, the exact probability, from any number
         of trials.
         errors_observed counts the hits: draws whose k summed gains fall
         below the cut, every trial at l <= 8.
         diversity_slope_scan and experiments.run_monte_carlo (so
         `amqd simulate`) use this estimator; "crude" stays the default.

Closed forms implemented here:
  single carrier   p_err = snr^-(1-zeta)
  multicarrier     p_err = snr^-(l(1-zeta))   (optionally with a 1/l! prefactor)
  aggregate outage P[sum_l |F_i|^2 < t] for unit-mean Rayleigh gains, which is
  the regularized lower incomplete gamma P(l, t); its small-t evaluation is
  t^l / l!.

gamma_p evaluates P(l, t) at integer 1 <= l <= MAX_L and t in [0, inf] with
the math module alone, and gamma_p_inv inverts it.  Every branch scales the
Poisson probability D = e^-t t^l / l!, taken in log space as
-l (lam - 1 - ln lam) - ln sqrt(2 pi l) - (Stirling correction), lam = t / l,
with lam - 1 - ln lam from a series in (lam - 1) / (lam + 1) for lam in
[1/4, 4]; the naive l ln t - t - ln l! would lose about l ulps.
  t < l   the series P = D sum_k t^k / ((l+1)...(l+k));
  t >= l  the sum Q = 1 - P = e^-t sum_{k<l} t^k / k!, taken from k = l - 1
          down;
  l >= 1000 and |t - l| <= l / 10, where those would need too many terms:
          Temme's uniform expansion (DLMF 8.12.3-8.12.8) with c_0, c_1, c_2
          from their Taylor series in eta.
No loop runs more than a fixed number of steps, whatever l is.  Against
40-digit references (mpmath) P and Q = 1 - P are within 4e-13 relative
wherever they are at least 1e-300, checked over l up to 1e7, and P within
3e-15 at the l = 1e9 and 2**53 references the tests hold.
gamma_p_inv takes bracketed Newton steps in ln t on ln P below the median and
on ln Q above it, both concave in ln t, from the Wilson-Hilferty guess, with
the Gamma density as the derivative; a handful of steps reach the nearest
float.  scipy.special is not used, so no command but `validate`, whose
quadrature check imports scipy.integrate, loads scipy.

Monte Carlo estimates are exactly reproducible: trials, at most MAX_TRIALS
(2e9) per estimate, are split into fixed batches of 65536, batch b drawing
from the stream keyed by (seed, spawn_key=(b,)), or (seed, spawn_key=(b, i))
at point i of a grid run (Philox for crude batches, PCG64DXSM for
importance-sampled ones, see _weigh_generator), and the per-batch counts (or
weight sums) are combined in batch order, so the result is byte-identical for
any worker count.  Sobol replicates are laid out replicate-major instead
(_replicate_layout): a batch holds as many whole replicates as fit in 65536
points, or a slice of one replicate longer than that.  The scrambles of a
batch's replicates come from its stream (a slice's from its replicate's
first slice's), but are drawn once per point: _plan builds the tables of
all its replicates (_draw_scrambles), and every batch of the point carries
them.

Batches run on threads when more than one worker is asked for: the draws,
ufuncs and reductions of a batch release the GIL, so threads share the cores
without forking or pickling.  numpy calls on small arrays, and the Python
between them, hold it: two threads run those one at a time, so a batch keeps
few of them, and the per-point work (the Sobol scramble tables) is done once
per point, in its plan, not per batch.  A run opens one pool (worker_pool)
over the points it will estimate, and the pool's threads take the batches of
every point from one stream, in the order the run collects them.  Each point is
planned (_plan) once, by the first of the stream and monte_carlo_p_err to
reach it, and the other reads the same plan.  The calling thread is one of
the workers: while it waits for a result it runs the next batch of the
stream itself, so a helper slow to wake does not stall a point.
A thread starts a batch only while fewer than _LOOKAHEAD batches per thread
are started and not yet collected, so the helpers roll from one point into
the next instead of idling at the end of each, and the pool's memory does not
grow with the grid.  monte_carlo_points runs a grid (run_monte_carlo,
diversity_slope_scan) this way and still estimates each point with one
monte_carlo_p_err call.  A pool has at most one worker per batch of its
largest point (ceil(trials / 65536) batches of iid draws, or
len(_replicate_layout(trials)) of Sobol replicates, counted by _batch_count
without planning), so a one-batch run opens none.  A failing batch stops the
stream, and so does leaving the pool, before its helpers are joined.  Each
worker draws into arrays it reuses for the whole run rather than allocating
them per batch.  Worker counts are capped at MAX_WORKERS (64).
"""

from __future__ import annotations

import collections
import contextlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, EstimationError
from .sampling import FIXED, RAYLEIGH, RngStream, TransmittanceModel

_BATCH = 65536

MAX_WORKERS = 64

# memory of one crude batch's normal draws (2 x m x l float64)
MAX_BATCH_BYTES = 1 << 30

ESTIMATORS = ("crude", "is")

# largest l whose importance sampler draws scrambled Sobol points, the sum of
# the k = max(l - 1, 1) gains drawn being -ln of the product of a point's k
# coordinates.  Beyond, standard_gamma: randomized QMC gains less with each
# dimension (relative sd 2.5e-3 iid against 1.6e-3 at l = 8, t = 1), and a
# product of k iid uniform blocks already lost to standard_gamma at k = 8 (194
# of 300 interleaved reps of a 65536-draw batch, PCG64DXSM, 2 cores)
_SOBOL_MAX_L = 8

# independent scrambles (replicates) of a point's scrambled-Sobol estimate
_REPLICATES = 16

# Student-t 97.5% quantiles at 1 .. _REPLICATES - 1 degrees of freedom
_T975 = (12.7062, 4.30265, 3.18245, 2.77645, 2.57058, 2.44691, 2.36462, 2.30600, 2.26216,
         2.22814, 2.20099, 2.17881, 2.16037, 2.14479, 2.13145)

# largest l a Monte Carlo config takes: every l up to it is an exact float
MAX_L = 2**53

# most points an SNR grid (config.SnrGrid) or a slope scan may have
MAX_GRID_POINTS = 10_000

# most trials of one estimate, so a point's batch list (_plan) stays small
MAX_TRIALS = 2_000_000_000

# fewest trials of a slope-scan point, whatever its hit budget
SCAN_MIN_TRIALS = 100_000


def p_err_single_analytic(snr: float, zeta: float = 0.0) -> float:
    """Single-carrier error probability snr^-(1-zeta)."""
    if not (float(snr) > 0.0):
        raise ConfigError("snr must be positive")
    z = float(zeta)
    if not (0.0 <= z < 1.0):
        raise ConfigError("zeta must lie in [0, 1)")
    return float(snr) ** (-(1.0 - z))


def p_err_amqd_analytic(
    snr: float, l: int, zeta: float = 0.0, include_factorial: bool = False
) -> float:
    """Multicarrier error probability snr^-(l(1-zeta)).

    include_factorial=True applies the 1/l! prefactor of the small-outage
    expansion; at l = 1 both variants coincide with the single-carrier form.
    """
    if not (float(snr) > 0.0):
        raise ConfigError("snr must be positive")
    if int(l) < 1:
        raise ConfigError("l must be >= 1")
    z = float(zeta)
    if not (0.0 <= z < 1.0):
        raise ConfigError("zeta must lie in [0, 1)")
    if include_factorial and int(l) > 170:
        raise ConfigError("the 1/l! prefactor leaves the float range beyond l = 170")
    try:
        p = float(snr) ** (-int(l) * (1.0 - z))
    except OverflowError:
        raise ConfigError(f"snr^-(l(1-zeta)) overflows a float at snr={snr:g}, l={l}") from None
    if include_factorial:
        p /= math.factorial(int(l))
    return p


def chi2_density(x: float, l: int) -> float:
    """Density x^(l-1) e^(-x) / (l-1)! of the summed squared gains.

    This is the Gamma(l, 1) density, equivalently a chi-square with 2l degrees
    of freedom after scaling.
    """
    if int(l) < 1:
        raise ConfigError("l must be >= 1")
    xf = float(x)
    if not (xf >= 0.0):  # NaN fails this too
        raise ConfigError("density domain is x >= 0")
    if xf == 0.0:
        return 1.0 if int(l) == 1 else 0.0
    if xf == math.inf:
        return 0.0
    return math.exp((int(l) - 1) * math.log(xf) - xf - math.lgamma(int(l)))


# Taylor coefficients in eta of c_0, c_1, c_2 in Temme's expansion, exact
# fractions from reverting eta^2 / 2 = lam - 1 - ln lam; enough terms for
# |eta| <= 0.104, the band _TEMME_BAND gives
_TEMME_C = (
    (-1/3, 1/12, -2/135, 1/864, 1/2835, -139/777600, 1/25515, -571/261273600,
     -281/151559100, 163879/197522841600, -5221/29554024500),
    (-1/540, -1/288, 1/378, -77/77760, 1/4860, -1/2488320, -2743/151559100,
     41969/5486745600),
    (25/6048, -139/51840, 1/1296, 1/497664, -6199/57736800, 5531/104509440),
)
_TEMME_L = 1000
_TEMME_BAND = 0.1
# terms of the series and the sum outside Temme's region: at most 311 (lam at
# the edge of the band; 268 for l just under _TEMME_L with t near l)
_MAX_TERMS = 1000
_MAX_NEWTON = 100


def _exponent(t: float, l: float) -> float:
    """l (lam - 1 - ln lam) with lam = t / l (Temme's l eta^2 / 2), to a few
    ulps of itself wherever it is below ~745."""
    lam = t / l
    if 0.25 <= lam <= 4.0:
        # mu - ln(1 + mu) = mu s - 2 (s^3/3 + s^5/5 + ...), s = mu / (2 + mu),
        # a sum of like signs for mu < 0 and barely cancelling for mu > 0
        mu = (t - l) / l
        s = mu / (2.0 + mu)
        s2 = s * s
        term, odd = s * s2, 0.0
        for k in range(3, 90, 2):  # |s| <= 0.6
            odd += term / k
            term *= s2
            if abs(term) <= 1e-17 * abs(odd):
                break
        return l * (mu * s - 2.0 * odd)
    if lam == 0.0:
        return math.inf
    return (t - l) - l * math.log(lam)


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _stirling(l: float) -> float:
    """ln l! - (l ln l - l + ln sqrt(2 pi l))."""
    if l < 20.0:
        return math.lgamma(l + 1.0) - (l * math.log(l) - l + 0.5 * math.log(2.0 * math.pi * l))
    r2 = 1.0 / (l * l)
    return (1/12 - r2 * (1/360 - r2 * (1/1260 - r2 * (1/1680 - r2 / 1188)))) / l


def _gamma_pq(l: int, t: float) -> tuple:
    """(P(l, t), Q(l, t) = 1 - P, D = e^-t t^l / l!) for 1 <= l <= MAX_L and
    finite t >= 0, the smaller of P and Q to relative accuracy."""
    if t == 0.0:
        return 0.0, 1.0, 0.0
    lf = float(l)
    big = _exponent(t, lf)
    d = math.exp(-big - 0.5 * math.log(2.0 * math.pi * lf) - _stirling(lf))
    if lf >= _TEMME_L and abs(t - lf) <= _TEMME_BAND * lf:
        # P = erfc(-eta sqrt(l/2)) / 2 - R, Q = erfc(eta sqrt(l/2)) / 2 + R,
        # R = e^(-l eta^2/2) / sqrt(2 pi l) (c_0 + c_1 / l + c_2 / l^2)
        root = math.copysign(math.sqrt(big), t - lf)
        eta = root * math.sqrt(2.0 / lf)
        c0, c1, c2 = (_horner(cs, eta) for cs in _TEMME_C)
        r = math.exp(-big) / math.sqrt(2.0 * math.pi * lf) * (c0 + (c1 + c2 / lf) / lf)
        return 0.5 * math.erfc(-root) - r, 0.5 * math.erfc(root) + r, d
    term = s = 1.0
    k = lf
    if t < lf:
        for _ in range(_MAX_TERMS):
            k += 1.0
            term *= t / k
            s += term
            if term < 1e-17 * s:
                break
        return d * s, 1.0 - d * s, d
    for _ in range(_MAX_TERMS):
        k -= 1.0
        if k < 1.0:
            break
        term *= k / t
        s += term
        if term < 1e-17 * s:
            break
    q = d * (lf / t) * s
    return 1.0 - q, q, d


def _check_l(l) -> int:
    if not (1 <= int(l) <= MAX_L):
        raise ConfigError("l must lie in [1, 2**53]")
    return int(l)


def gamma_p(l: int, t: float) -> float:
    """P(l, t) = P[Gamma(l, 1) < t], the regularized lower incomplete gamma,
    for integer 1 <= l <= MAX_L and t in [0, inf]."""
    l, t = _check_l(l), float(t)
    if not (t >= 0.0):
        raise ConfigError("t must be nonnegative")
    if l == 1:
        return -math.expm1(-t)  # the exponential CDF, exact to an ulp
    return 1.0 if t == math.inf else _gamma_pq(l, t)[0]


def _normal_quantile(p: float) -> float:
    """Standard normal quantile to within 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    w = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
        1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308)))
    return z if p > 0.5 else -z


def gamma_p_inv(l: int, p: float) -> float:
    """The t with P(l, t) = p, for integer 1 <= l <= MAX_L and p in [0, 1]."""
    l, p = _check_l(l), float(p)
    if not (0.0 <= p <= 1.0):
        raise ConfigError("p must lie in [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    lf = float(l)
    # solve ln P(l, t) = ln p below the median and ln Q(l, t) = ln(1 - p)
    # above it, so the side that is solved for keeps its relative accuracy
    lower = p <= 0.5
    target = math.log(p) if lower else math.log1p(-p)
    # P(l, t) <= t^l / l!, so the root is at least (p l!)^(1/l)
    lo, hi = math.exp((math.log(p) + math.lgamma(lf + 1.0)) / lf), math.inf
    z = _normal_quantile(p)
    t = max(lo, lf * (1.0 - 1.0 / (9.0 * lf) + z / (3.0 * math.sqrt(lf))) ** 3)
    for _ in range(_MAX_NEWTON):
        below, above, d = _gamma_pq(l, t)
        v = below if lower else above
        # f rises with t and vanishes at the root
        f = math.log(v) - target if v > 0.0 else -math.inf
        f = f if lower else -f
        if f < 0.0:
            lo = t
        elif f > 0.0:
            hi = t
        else:
            return t
        # Newton step on u = ln t: d ln P / du = t x density / P = l D / P,
        # and d ln Q / du = -l D / Q
        step = -f * v / (lf * d) if v > 0.0 and d > 0.0 else math.nan
        new = t + t * math.expm1(step) if abs(step) < 700.0 else math.nan
        if new == t:
            return t
        if not (lo < new < hi):  # bisect in ln t instead
            new = math.sqrt(lo * hi) if hi < math.inf else 2.0 * t
            if new == t:
                return t
        elif abs(step) < 2.0**-50:
            return new
        t = new
    return t


def outage_cdf(threshold: float, l: int, mode: str = "exact") -> float:
    """P[sum of l unit-mean squared gains < threshold].

    exact: regularized lower incomplete gamma P(l, threshold).
    approx: threshold^l / l!, the small-threshold evaluation, for l <= 170
    (beyond it l! leaves the float range).
    """
    if int(l) < 1:
        raise ConfigError("l must be >= 1")
    t = float(threshold)
    if not (t >= 0.0):
        raise ConfigError("threshold must be nonnegative")
    if mode == "exact":
        return gamma_p(l, t)
    if mode == "approx":
        if int(l) > 170:
            raise ConfigError("the approx outage's 1/l! leaves the float range beyond l = 170")
        try:
            return t ** int(l) / math.factorial(int(l))
        except OverflowError:
            raise ConfigError(f"threshold^l overflows a float at threshold={t:g}, l={l}") from None
    raise ConfigError(f"unknown outage mode: {mode!r}")


def wilson_interval(errors: int, trials: int, z: float = 1.96):
    """95% Wilson score interval for a binomial proportion.

    Stays valid at the tiny error probabilities measured here, where the
    normal-approximation interval collapses.
    """
    n = int(trials)
    k = int(errors)
    if n < 1:
        raise ConfigError("trials must be >= 1")
    if not (0 <= k <= n):
        raise ConfigError("errors must lie in [0, trials]")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # the exact endpoints at k = 0 and k = n, which rounding can move past p
    return (0.0 if k == 0 else center - half), (1.0 if k == n else center + half)


def _bounded_mean_interval(mean: float, n: int) -> tuple:
    """95% interval for the mean mu of n iid values in [0, 1] whose sample
    mean is `mean`: every mu with n KL(mean || mu) <= ln 40, KL the
    Bernoulli relative entropy.  By Hoeffding's bound (1963, Thm 1) each
    side misses with probability at most 1/40 whatever the values' law, at
    any n.  Each end is bisected to within 2^-100 of the mean's distance to
    it, or to adjacent floats, and rounded outwards."""
    bound = math.log(40.0) / n

    def outside(mu):
        kl = (mean * math.log(mean / mu) if mean > 0.0 else 0.0) + (
            (1.0 - mean) * math.log((1.0 - mean) / (1.0 - mu)) if mean < 1.0 else 0.0)
        return kl > bound

    def edge(inside, out):
        for _ in range(100):
            mid = 0.5 * (inside + out)
            if mid in (inside, out):  # adjacent floats
                break
            if outside(mid):
                out = mid
            else:
                inside = mid
        return out

    return (0.0 if mean == 0.0 else edge(mean, 0.0)), (1.0 if mean == 1.0 else edge(mean, 1.0))


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo error-probability estimate with a 95% confidence interval.

    estimator "crude": errors_observed counts the errors and
    p_hat == errors_observed / trials, with a Wilson interval (from_counts).
    estimator "is": errors_observed counts the hits of the
    importance-sampling proposal (at l >= 2 the draws whose shrunk sum of
    the first l - 1 gains lies below t, the last gain being integrated out;
    every trial at l <= 8, whose draws are mapped into that region) and
    p_hat is the mean weight over all trials, in [0, 1].  Its interval
    depends on the draws: at l >= 9 they are iid, and the interval is the
    weighted-CLT one (from_weights); at l <= 8 they are min(16, trials)
    scrambled Sobol replicates, and the interval is the Student-t one on the
    replicate means, or a bounded-mean one where each replicate is one point
    (from_replicates).  An event decided without drawing gives either
    estimator the point interval [p_hat, p_hat].
    """

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    errors_observed: int
    estimator: str = "crude"

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}")
        if int(self.trials) < 1:
            raise ConfigError("trials must be >= 1")
        if not (0 <= int(self.errors_observed) <= int(self.trials)):
            raise ConfigError("errors_observed must lie in [0, trials]")
        if self.estimator == "crude":
            if float(self.p_hat) != int(self.errors_observed) / int(self.trials):
                raise ConfigError("p_hat must equal errors_observed / trials")
        elif not (0.0 <= float(self.p_hat) <= 1.0):
            raise ConfigError("p_hat must lie in [0, 1]")
        slack = 1e-12
        if not (self.ci_low <= self.p_hat + slack and self.p_hat <= self.ci_high + slack):
            raise ConfigError("confidence interval must contain p_hat")

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "ErrorEstimate":
        lo, hi = wilson_interval(errors, trials)
        return cls(int(errors) / int(trials), int(trials), lo, hi, int(errors))

    @classmethod
    def from_weights(cls, hits: int, sum_w: float, sum_w2: float, trials: int,
                     scale: float = 1.0) -> "ErrorEstimate":
        """Importance-sampling estimate from `trials` likelihood-ratio weights
        scale * w_i with w_i in [0, 1] (w_i = 0 off the event), given sum w_i
        and sum w_i^2: p_hat = scale * mean(w) with the 95% weighted-CLT
        interval p_hat +- 1.96 scale sd(w) / sqrt(trials), clipped to [0, 1].
        The scale keeps the squares of tiny weights from underflowing.  With
        no variance estimate (one trial, or no hit) the interval is
        [0, min(scale, 1)]: p is a mean weight, so it is at most scale."""
        n = int(trials)
        if n < 1:
            raise ConfigError("trials must be >= 1")
        mean = float(sum_w) / n
        p = min(scale * mean, 1.0)
        if n == 1 or int(hits) == 0:
            return cls(p, n, 0.0, min(scale, 1.0), int(hits), "is")
        var = max(float(sum_w2) - float(sum_w) * mean, 0.0) / (n - 1)
        half = 1.96 * scale * math.sqrt(var / n)
        return cls(p, n, max(p - half, 0.0), min(p + half, 1.0), int(hits), "is")

    @classmethod
    def from_replicates(cls, sum_w: float, means, trials: int,
                        scale: float = 1.0) -> "ErrorEstimate":
        """Estimate from R = len(means) independent replicates of `trials`
        weights scale * w_i in all, w_i in [0, 1], each draw a hit of the
        proposal, given sum w_i and each replicate's mean w: p_hat =
        scale * sum(w) / trials with the 95% Student-t interval
        p_hat +- t_(R-1) scale sd(means) / sqrt(R), clipped to [0, 1], for
        2 <= R <= _REPLICATES.  With one replicate, or every weight 0, the
        interval is [0, min(scale, 1)], as from_weights'.  Where each
        replicate is one weight (R == trials), the weights are iid, and so
        few skewed ones leave the t interval short (it missed about 7% of
        the time at 2 to 16 trials): the interval is then scale times
        _bounded_mean_interval, which holds at any R."""
        n, r = int(trials), len(means)
        if n < 1:
            raise ConfigError("trials must be >= 1")
        p = min(scale * (float(sum_w) / n), 1.0)
        if r == 1 or not float(sum_w) > 0.0:
            return cls(p, n, 0.0, min(scale, 1.0), n, "is")
        if r == n:
            low, high = _bounded_mean_interval(min(float(sum_w) / n, 1.0), n)
            return cls(p, n, min(scale * low, p), min(scale * high, 1.0), n, "is")
        centre = sum(means) / r
        var = sum((w - centre) ** 2 for w in means) / (r - 1)
        half = _T975[r - 2] * scale * math.sqrt(var / r)
        return cls(p, n, max(p - half, 0.0), min(p + half, 1.0), n, "is")

    def covers(self, p: float) -> bool:
        return self.ci_low <= float(p) <= self.ci_high


@dataclass(frozen=True)
class MonteCarloConfig:
    """What to sample: event kind, dimensions, thresholds, trial budget, seed,
    and the estimator ("crude" counting or "is" importance sampling).

    event "threshold": aggregate event sum_l |F_i|^2 < threshold
                       (threshold defaults to 1/snr when unset).
    event "rate":      log2(1 + |F|^2 * snr) < rate_bits, at l = 1 only.
    Each event's inputs are checked here: a threshold or an snr, rate_bits
    and an snr, and an snr must be positive and finite.

    point: the grid point this estimate is, or None.  Batch b draws from the
    substream keyed (seed, spawn_key=(b,)), or (b, point) at a grid point, so
    the points of one seed and those of any other seed share no stream.
    """

    l: int
    trials: int
    seed: int
    event: str = "threshold"
    snr: float | None = None
    rate_bits: float | None = None
    threshold: float | None = None
    estimator: str = "crude"
    point: int | None = None

    def __post_init__(self):
        _check_l(self.l)
        if not (1 <= int(self.trials) <= MAX_TRIALS):
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}]")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.event not in ("threshold", "rate"):
            raise ConfigError("event must be 'threshold' or 'rate'")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}")
        if self.snr is not None and not (0.0 < float(self.snr) < math.inf):
            raise ConfigError("snr must be positive and finite")
        if self.rate_bits is not None and not (float(self.rate_bits) >= 0.0):
            raise ConfigError("rate_bits must be nonnegative")
        if self.threshold is not None and not (float(self.threshold) >= 0.0):
            raise ConfigError("threshold must be nonnegative")
        if self.event == "threshold":
            if self.threshold is None and self.snr is None:
                raise ConfigError("threshold event needs an explicit threshold or an snr")
        elif self.rate_bits is None or self.snr is None:
            raise ConfigError("rate event needs rate_bits and an snr")
        elif int(self.l) != 1:
            raise ConfigError(f"the rate event takes l = 1 only, not l = {int(self.l)}")
        if self.point is not None and not (0 <= int(self.point) < 2**64):
            raise ConfigError("point must fit in an unsigned 64-bit integer")


def check_workers(workers: int) -> int:
    """Validated worker count: 1 <= workers <= MAX_WORKERS."""
    w = int(workers)
    if not (1 <= w <= MAX_WORKERS):
        raise ConfigError(f"workers must lie in [1, {MAX_WORKERS}]")
    return w


class _Scratch:
    """Arrays one batch runner reuses from batch to batch.  Arrays drawn fresh
    per batch go back to malloc after each batch, which can hand their pages
    back to the operating system, and the next batch page-faults them in
    again."""

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        a = self._arrays.get(name)
        if a is None or a.size < n:
            a = self._arrays[name] = np.empty(n, dtype)
        return a[:n].reshape(shape)


# a thread starts a batch only while fewer than this many batches per pool
# thread are started and not yet collected.  A simulate run of 41 points x 2
# batches at 2 threads (2-core host, 30 alternating rounds) took a median
# 0.070 s at 1, 0.055 s at 2 and at 4, and 0.055 s with no bound
_LOOKAHEAD = 2


class BatchPool:
    """The calling thread and `size - 1` helper threads running the batches of
    one stream of (kernel, args), in stream order.  Kernels are pure
    functions of their args, so a batch run ahead is the batch collect will
    ask for.

    collect takes the next results of the stream, in order.  While it waits,
    the calling thread runs the next batch of the stream itself, so a helper
    slow to wake never holds up a point.  A thread starts a batch only while
    fewer than _LOOKAHEAD * size batches are started and not yet collected,
    so the helpers roll from one point into the next instead of idling at the
    end of each, and the pool holds at most that many results, whatever the
    grid length.  A failing batch stops the stream, so no batch starts after
    it, and collect raises its exception.  Helpers wait for work until the
    pool stops.  Each thread keeps one _Scratch for the pool's lifetime."""

    def __init__(self, stream, size: int):
        self._stream = stream  # iterator of (kernel, args), in collection order
        self._size = size
        self._cond = threading.Condition()
        self._started = 0  # batches taken from the stream
        self._collected = 0  # batches handed out by collect
        self._results = {}  # stream index -> (batch, result), not yet collected
        self._error = None
        self._stopped = False
        self._scratch = _Scratch()  # the calling thread's

    def _take(self):
        """(stream index, batch) of the next batch to start, or None when the
        window is full, the stream is spent or the pool has stopped; call it
        holding the condition."""
        if (self._stopped or self._error is not None
                or self._started - self._collected >= _LOOKAHEAD * self._size):
            return None
        batch = next(self._stream, None)
        if batch is None:
            return None
        self._started += 1
        return self._started - 1, batch

    def _run(self, index: int, batch, scratch: _Scratch) -> None:
        kernel, args = batch
        try:
            result = kernel(args, scratch)
        except BaseException as exc:  # collect re-raises it on the calling thread
            with self._cond:
                self._error = self._error or exc
                self._cond.notify_all()
            return
        with self._cond:
            self._results[index] = batch, result
            self._cond.notify_all()

    def _help(self) -> None:
        scratch = _Scratch()
        while True:
            with self._cond:
                while (job := self._take()) is None:
                    if self._stopped:
                        return
                    self._cond.wait()
            self._run(*job, scratch)

    def _stop(self) -> None:
        """Start no further batch, and let the helpers return."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def collect(self, kernel, batches) -> list:
        """[kernel(args, scratch) for args in batches], in batch order: the
        next len(batches) results of the stream, which must be these batches
        (a RuntimeError otherwise)."""
        results = []
        for args in batches:
            while True:
                with self._cond:
                    if self._error is not None:
                        raise self._error
                    index = self._collected
                    if index in self._results:
                        batch, result = self._results.pop(index)
                        self._collected += 1
                        self._cond.notify_all()
                        break
                    job = self._take()
                    if job is None:
                        if index >= self._started:
                            raise RuntimeError("the pool's stream has no batch left to collect")
                        self._cond.wait()
                        continue
                self._run(*job, self._scratch)
            if batch != (kernel, args):
                raise RuntimeError(f"the pool's stream ran {batch!r} where {(kernel, args)!r} "
                                   "was collected")
            results.append(result)
        return results


def _two_readers(items) -> tuple:
    """Two iterators over the iterator `items`, which two threads may read
    at once, each its own: each item is made once, when the first reader
    reaches it, and dropped once both have read it."""
    lock = threading.Lock()
    queues = collections.deque(), collections.deque()

    def read(queue):
        while True:
            with lock:
                if not queue:
                    item = next(items, queues)  # queues: the end of `items`
                    if item is queues:
                        return
                    for q in queues:
                        q.append(item)
                item = queue.popleft()
            yield item

    return read(queues[0]), read(queues[1])


@contextlib.contextmanager
def worker_pool(workers: int, configs, model: TransmittanceModel):
    """A BatchPool over the batches of `configs` (a list of the points the run
    will estimate, in the order it estimates them): the calling thread and
    min(workers, batches of the largest point) - 1 helper threads; below two
    threads no executor is opened.  A point _plan would reject raises its
    ConfigError here, before any batch runs.  Each point is planned once, as
    the first of the pool's stream and its `plans` reaches it: `plans`
    yields (config, model, estimate, kernel, batches) for monte_carlo_p_err,
    and a plan is held only until both have passed it.  On exit the stream
    stops, so no further batch starts, and the helpers are shut down, which
    joins them, so none outlives the caller's run."""
    largest = max((_batch_count(config, model) for config in configs), default=0)
    size = max(min(check_workers(workers), largest), 1)
    streamed, plans = _two_readers((config, model) + _plan(config, model) for config in configs)
    pool = BatchPool(((kernel, args) for *_, kernel, batches in streamed for args in batches),
                     size)
    pool.plans = plans
    if size == 1:
        yield pool
        return
    with ThreadPoolExecutor(size - 1) as helpers:
        running = [helpers.submit(pool._help) for _ in range(size - 1)]
        try:
            yield pool
        finally:
            pool._stop()
        for helper in running:
            helper.result()


def monte_carlo_points(configs, model: TransmittanceModel, workers: int = 1) -> list:
    """[monte_carlo_p_err(c, model, workers=workers) for c in configs], with
    one worker pool serving every point: its threads run the batches of the
    next points while a point is collected."""
    with worker_pool(workers, configs, model) as pool:
        return [monte_carlo_p_err(c, model, workers=workers, pool=pool) for c in configs]


def _count_batch(args, scratch: _Scratch | None = None) -> int:
    """Error count for one batch; pure function of its arguments (scratch only
    lends it arrays to draw into)."""
    seed, batch_index, m, l, sigma2_f, threshold = args
    scratch = scratch or _Scratch()
    g = RngStream(seed, batch_index).generator()
    re = g.standard_normal(out=scratch.array("re", (m, l)))
    im = g.standard_normal(out=scratch.array("im", (m, l)))
    # in place, in the order of ((re*re + im*im) * (sigma2_f/2)).sum(axis=1),
    # so every sum is bit-identical to that expression.  numpy adds a row of
    # fewer than 8 terms from the left, as the column adds here do, about 20
    # times faster at l = 2; from l = 8 its row sum is pairwise, so it stays
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    np.add(re, im, out=re)
    np.multiply(re, sigma2_f / 2.0, out=re)
    if l >= 8:
        s = re.sum(axis=1, out=scratch.array("sum", (m,)))
    elif l == 1:
        s = re[:, 0]
    else:
        s = np.add(re[:, 0], re[:, 1], out=scratch.array("sum", (m,)))
        for c in range(2, l):
            s += re[:, c]
    return int(np.count_nonzero(np.less(s, threshold, out=scratch.array("hit", (m,), bool))))


def _proposal(t: float, l: int) -> tuple:
    """(k, theta, cut, log_scale) of the importance sampler's proposal for
    the event Gamma(l, 1) < t at 0 <= t < inf.  It draws G ~ Gamma(k, 1) for
    the k = max(l - 1, 1) gains drawn per trial, shrunk to theta G with
    theta = min(t / l, 1), and a draw hits where G < cut = max(t, l), with
    probability P(k, cut) > 1/2; the Sobol draws of l <= _SOBOL_MAX_L are
    mapped into that region, so each of them hits.  The hit test is on
    G because theta rounds to a subnormal or to 0 where t / l underflows.  A
    hit weighs scale * v with v in [0, 1] (_weigh_batch) and scale =
    theta^k e^(cut (1 - theta)) h0, times 1 - e^-cut for the Sobol draws, the
    largest weight a hit can carry: h0 = 1 - e^-t, the last gain's chance to
    close the whole gap, at l >= 2, and 1 at l = 1, and 1 - e^-cut the
    chance of the first Sobol coordinate's range.  ln theta is ln t - ln l,
    finite where t / l underflows; scale = 0 at t = 0."""
    k = max(l - 1, 1)
    if t == 0.0:
        return k, 0.0, float(l), -math.inf
    if t >= l:
        theta, log_theta, cut = 1.0, 0.0, t
    else:
        theta, log_theta, cut = t / l, math.log(t) - math.log(l), float(l)
    log_h0 = math.log(-math.expm1(-t)) if l >= 2 else 0.0
    log_region = math.log(-math.expm1(-cut)) if l <= _SOBOL_MAX_L else 0.0
    return k, theta, cut, k * log_theta + cut * (1.0 - theta) + log_h0 + log_region


# Joe & Kuo (2008, new-joe-kuo-6.21201) Sobol dimensions 2-7: the degree s
# of the primitive polynomial, its inner coefficients a and m_1 .. m_s;
# dimension 1 is van der Corput's, every m_j = 1
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
            (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)))


def _sobol_direction_numbers() -> np.ndarray:
    """(7, 32) uint32: direction number j of Sobol dimension d + 1, m_(j+1)
    2^(31-j), by the recurrence of Bratley & Fox (1988)."""
    rows = [[1] * 32]
    for s, a, m in _JOE_KUO:
        m = list(m)
        for j in range(s, 32):
            new = m[j - s] ^ (m[j - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        rows.append(m)
    return np.array([[mj << (31 - j) for j, mj in enumerate(row)] for row in rows], np.uint32)


_SOBOL_V = _sobol_direction_numbers()
_SHIFT = np.arange(32, dtype=np.uint32)
# the powers 2^(31-c): digit c of a 32-bit integer, counted from the top
_DIGIT = np.uint32(1) << (31 - _SHIFT)
_BELOW = _DIGIT - np.uint32(1)
# all ones where digit c of direction number j of dimension d + 1 is 1:
# _V_DIGITS[d, j, c]
_V_DIGITS = -(_SOBOL_V[..., None] >> (31 - _SHIFT) & np.uint32(1))
# _GRAY_STEPS[b - 1], b = 1 .. 255: the lowest set bit of b, the bit that
# the Gray code flips from b - 1 to b
_GRAY_STEPS = np.array([(b & -b).bit_length() - 1 for b in range(1, 256)])


def _scramble_tables(words: np.ndarray, bits: int) -> tuple:
    """(v, low) of `rows` scrambled Sobol sequences in k dimensions, from
    words (rows, k, 34) uint32, a sequence's scramble: per dimension the
    random digits below the diagonal of the columns of a lower-triangular
    binary matrix L (Matousek 1998), then a digital shift e.  Point n of a
    sequence is e xor L x_n, where x_n xors the direction numbers v_j that
    the Gray code g(n) = n xor n >> 1 picks; all zeros leave it
    unscrambled.  L is linear, so it scrambles the direction numbers once:
    v (rows, k, bits) holds the L v_j for j < bits, which is all that the
    points below 2^bits use, 8 <= bits <= 32.  low (rows, k, 256) holds
    points 0 .. 255, e in them: g(b) is g(b - 1) with the lowest set bit of
    b flipped, so point b is point b - 1 xor the L v_j of that bit."""
    # L's columns hold 1 on the diagonal; L v_j xors those that v_j's digits
    # pick, all among its first j + 1
    columns = (words[..., None, :bits] & _BELOW[:bits]) | _DIGIT[:bits]
    v = np.bitwise_xor.reduce(columns & _V_DIGITS[:words.shape[1], :bits, :bits], axis=-1)
    low = np.empty(words.shape[:2] + (256,), np.uint32)
    low[..., 0] = words[..., 32]
    np.bitwise_xor.accumulate(v[..., _GRAY_STEPS], axis=-1, out=low[..., 1:])
    low[..., 1:] ^= low[..., :1]
    return v, low


def _draw_scrambles(seed: int, k: int, bits: int, streams) -> tuple:
    """The scramble tables (_scramble_tables) of one point's Sobol
    replicates, for point indices below 2^bits.  Their words are drawn from
    `streams`, ((stream key, replicates), ...) in replicate order:
    replicates * k * 17 raw words of each key's _weigh_generator stream.
    _plan draws them once per point, and every batch of the point carries
    them."""
    raw = np.concatenate([_weigh_generator(seed, key).bit_generator.random_raw(n * k * 17)
                          for key, n in streams])
    return _scramble_tables(raw.astype("<u8", copy=False).view("<u4").reshape(-1, k, 34), bits)


def _sobol_points(v: np.ndarray, low: np.ndarray, start: int, stop: int, scratch: _Scratch):
    """The points start .. stop - 1 of the scrambled Sobol sequences whose
    tables (_scramble_tables) are v and low, in Gray-code order (as scipy's
    Sobol engine), as 32-bit integers: one (rows, stop - start) uint32 view
    per dimension, each overwritten by the next.  Point 256 h + b is
    low[b] xor high[h]: the low 8 bits of g(256 h + b) are g(b) with bit 7
    flipped for odd h, and the others are g(h), so high[h] xors the v_(7+j)
    that g(2 h) = h xor 2 h picks: v_7 for odd h, and the v_(8+j) that g(h)
    picks."""
    rows, k, _ = low.shape
    bits = max(8, (stop - 1).bit_length())
    h = np.arange(start >> 8, ((stop - 1) >> 8) + 1, dtype=np.uint32)
    picks = -((h ^ h << 1) >> _SHIFT[:bits - 7, None] & 1)
    high = np.bitwise_xor.reduce(v[..., 7:bits].transpose(2, 0, 1)[..., None] & picks[:, None, None],
                                 axis=0)
    block = scratch.array("sobol", (rows, h.size, 256), np.uint32)
    span = block.reshape(rows, -1)[:, start & 255:(start & 255) + stop - start]
    for d in range(k):
        np.bitwise_xor(high[:, d, :, None], low[:, d, None, :], out=block)
        yield span


def _weigh_generator(seed: int, batch_index) -> np.random.Generator:
    """The importance-sampled kernel's stream: PCG64DXSM over the key that
    RngStream(seed, batch_index) makes, so streams stay independent across
    batches, points and seeds.  At l <= 8 it draws only the Sobol
    scrambles, once per point (_draw_scrambles), and beyond, the
    standard_gamma draws.  Crude batches keep Philox, the independent check
    (_count_batch)."""
    return np.random.Generator(np.random.PCG64DXSM(RngStream(seed, batch_index).seed_sequence()))


def _weigh_batch(args, scratch: _Scratch | None = None) -> tuple:
    """(hits, sum v, sum v^2, sum v per replicate) of one importance-sampled
    batch, each draw's weight being scale * v, with v in [0, 1] (0 off the
    event); the proposal (k, theta, cut) and the scale, which
    monte_carlo_p_err applies, are both _proposal's.  The per-replicate sums
    are () for iid draws.  Pure function of its arguments (scratch only
    lends it arrays to draw into).  Needs 0 < threshold / sigma2_f < inf, as
    _plan ensures.

    At l = 1 the draw is G ~ Gamma(1, 1), a hit is G < cut and it weighs
    the density ratio.  At l >= 2 the last gain is integrated out: G ~
    Gamma(l - 1, 1) sums the other gains, a hit is G < cut, and it weighs
    the Gamma(l - 1) density ratio times h = 1 - e^-(t - theta G), the
    chance that the last Exp(1) gain closes the gap.

    replicates is None for the iid standard_gamma draws of l > _SOBOL_MAX_L,
    drawn from the stream (seed, batch_index) names, or ((v, low), r0, start,
    sizes) for the points start .. start + sizes[i] - 1 of replicate r0 + i,
    i < len(sizes), of the point whose scramble tables are v and low, drawn
    in its plan (_draw_scrambles); (seed, batch_index) then names the
    stream the scrambles of replicate r0 were drawn from
    (_replicate_layout).  A Sobol point is mapped into the hit region rather
    than tested against it, so every one of them is a hit, and its weight
    also holds the chance of the region it was mapped into."""
    seed, batch_index, m, l, sigma2_f, threshold, replicates = args
    scratch = scratch or _Scratch()
    t = threshold / sigma2_f
    k, theta, cut, _ = _proposal(t, l)
    # h's divisor: expm1(-t), the scale's -h0, times the Sobol weight's
    # factors 1 + c_i / x (below)
    den = math.expm1(-t)
    if replicates is None:
        hit = scratch.array("hit", (m,), bool)
        x = _weigh_generator(seed, batch_index).standard_gamma(
            k, out=scratch.array("gamma", (m,)))
        np.less(x, cut, out=hit)
        # a miss is clamped to the cut, so it leaves no gap, and h weighs it 0
        np.minimum(x, cut, out=x)
        np.negative(x, out=x)
        x += cut
    else:
        # the k uniforms of a trial are the coordinates u_i = (n_i + 1/2)
        # 2^-32 of a scrambled Sobol point, for its integer coordinates n_i,
        # mapped into the hit region G < cut (Owen 2013, ch. 9): with
        # a = e^-cut and Q_i = u_1 ... u_i, P_i = a + (1 - a) Q_i > a and
        # G = -ln P_k < cut.  That is u_i drawn uniform on (a / P_(i-1), 1),
        # a range of chance 1 - a / P_(i-1) = (1 - a) Q_(i-1) / P_(i-1), so
        # the draw weighs W = (1 - a)^k prod_(i<k) Q_i / P_i <= 1.  x holds
        # Q_i 2^(32 i), and with c_i = a 2^(32 i) / (1 - a), Q_i / P_i =
        # x / (x + c_i) / (1 - a): the scale holds one 1 - a, and den the
        # rest of W, as the factors 1 + c_i / x it divides by
        (v, low), r0, start, sizes = replicates
        shape = (len(sizes), max(sizes))
        rows = slice(r0, r0 + shape[0])
        a = math.exp(-cut)
        x = scratch.array("gamma", shape)
        for d, points in enumerate(_sobol_points(v[rows], low[rows], start, start + shape[1],
                                                 scratch)):
            c = a * 2.0 ** (32 * (d + 1)) / -math.expm1(-cut)
            last = d == k - 1
            if d == 0:
                np.add(points, 0.5 + (c if last else 0.0), out=x)
            else:
                x *= np.add(points, 0.5, out=scratch.array("uniform", shape))
                if last:
                    x += c
            if d == 0 and not last:
                den = np.divide(c * den, x, out=scratch.array("ratio", shape))
                den += math.expm1(-t)
            elif not last:
                factor = np.divide(c, x, out=scratch.array("uniform", shape))
                factor += 1.0
                den *= factor
        # x is P_k 2^(32 k) / (1 - a)
        np.log(x, out=x)
        x += cut + math.log(-math.expm1(-cut)) - 32 * k * math.log(2.0)
    # x is cut - G for every draw.  The Gamma(k, 1) over Gamma(k, theta)
    # density ratio at theta G is theta^k exp(theta G (1/theta - 1)), which
    # is the scale's theta^k e^(cut (1 - theta)) times
    # exp((G - cut)(1 - theta)) = exp((cut - G)(theta - 1)) <= 1, so neither
    # v nor v^2 underflows at tiny p
    if l >= 2:
        # a draw within rounding of the cut closes no gap
        np.maximum(x, 0.0, out=x)
        # the gap t - theta G = t (cut - G) / cut, with no subnormal theta;
        # h = -expm1(-gap), over the scale's h0 = -expm1(-t) >= h
        h = scratch.array("uniform", x.shape)
        np.multiply(x, -1.0 / cut, out=h)
        h *= t
        np.expm1(h, out=h)
        np.divide(h, den, out=h)
    x *= theta - 1.0
    np.exp(x, out=x)
    if l >= 2:
        x *= h
    if replicates is None:
        sum_v = float(x.sum())
        np.multiply(x, x, out=x)
        return int(np.count_nonzero(hit)), sum_v, float(x.sum()), ()
    if min(sizes) < shape[1]:
        # the shorter replicates' last column is padding
        x[np.less(sizes, shape[1]), -1] = 0.0
    sums = x.sum(axis=1)
    # every draw is a hit; x keeps the weights (einsum, unlike a BLAS dot,
    # runs on the calling thread, so it does not contend with the pool's)
    return m, float(sums.sum()), float(np.einsum("ij,ij->", x, x)), tuple(sums.tolist())


def _replicate_layout(trials: int) -> list:
    """[(stream index, (r0, start, sizes))] of the batches of a point of
    scrambled-Sobol replicates (_weigh_batch): R = min(_REPLICATES, trials)
    replicates, replicate r the first trials // R points of its sequence,
    plus one for r < trials % R, laid out replicate-major.  A batch holds
    as many whole replicates as fit in _BATCH points, or, for replicates
    longer than that, a slice of one, the slices of equal length.  A
    batch's replicates are scrambled from its own stream, and a slice's
    from the stream of its replicate's first slice, so every slice of a
    replicate has its scramble (_plan draws them, once per point)."""
    count = min(_REPLICATES, trials)
    size, extra = divmod(trials, count)
    sizes = [size + (r < extra) for r in range(count)]
    if sizes[0] <= _BATCH:
        per = _BATCH // sizes[0]
        return [(b, (r0, 0, tuple(sizes[r0:r0 + per])))
                for b, r0 in enumerate(range(0, count, per))]
    layout = []
    for r, n in enumerate(sizes):
        step = -(-n // -(-n // _BATCH))
        first = len(layout)
        layout += [(first, (r, a, (min(step, n - a),))) for a in range(0, n, step)]
    return layout


def _replicate_means(batches, results) -> list:
    """The mean v of each replicate, from the per-replicate sums of its
    batches, added in batch order."""
    sums, sizes = [], []
    for args, result in zip(batches, results):
        _, r0, _, counts = args[6]
        for r, n, s in zip(range(r0, r0 + len(counts)), counts, result[3]):
            if r == len(sums):
                sums.append(0.0)
                sizes.append(0)
            sums[r] += s
            sizes[r] += n
    return [s / n for s, n in zip(sums, sizes)]


def _event_geometry(config: MonteCarloConfig, model: TransmittanceModel) -> tuple:
    """The one reduction of an event on a gain model: (threshold, t), the
    event being Gamma(l, 1) < t, t in [0, inf].  threshold bounds the summed
    squared gains of the l sub-channels.  On Rayleigh gains
    t = threshold / sigma2_f, 0 or inf where that under- or overflows, and
    inf at zero gain (0 at a zero threshold).  The fixed and uniform-phase
    gains are deterministic: t is inf where their sum lies below the
    threshold and 0 where it does not, and nothing of size l is built."""
    if config.event == "threshold":
        threshold = 1.0 / float(config.snr) if config.threshold is None else float(config.threshold)
    else:
        # rate event: log2(1 + m*s) < rate  <=>  m < (2^rate - 1) / s
        try:
            gain = 2.0 ** float(config.rate_bits) - 1.0
        except OverflowError:  # 2^rate beyond the float range: no draw reaches the rate
            gain = math.inf
        threshold = gain / float(config.snr)
    if model.kind == RAYLEIGH:
        s2 = float(model.sigma2_f)
        t = threshold / s2 if s2 > 0.0 else (math.inf if threshold > 0.0 else 0.0)
        return threshold, t
    if model.kind == FIXED:
        if len(model.values) != int(config.l):
            raise ConfigError("fixed model value count must equal l")
        # |v|^2 as a sum of squares, which rounds to inf rather than raising
        gain2 = sum(v.real * v.real + v.imag * v.imag for v in model.values)
    else:
        gain2 = int(config.l) * float(model.magnitude) ** 2
    return threshold, math.inf if gain2 < threshold else 0.0


def _sobol(config: MonteCarloConfig) -> bool:
    """Whether the point's importance sampler draws scrambled Sobol points."""
    return config.estimator == "is" and int(config.l) <= _SOBOL_MAX_L


def _geometry(config: MonteCarloConfig, model: TransmittanceModel) -> tuple:
    """_event_geometry's (threshold, t), with the check that one crude batch
    of a point that draws stays under MAX_BATCH_BYTES."""
    threshold, t = _event_geometry(config, model)
    batch_bytes = 16 * min(_BATCH, int(config.trials)) * int(config.l)
    if config.estimator == "crude" and 0.0 < t < math.inf and batch_bytes > MAX_BATCH_BYTES:
        raise ConfigError(f"one Monte Carlo batch at l={int(config.l)} would draw "
                          f"{batch_bytes:.3g} bytes of normals, over the {MAX_BATCH_BYTES} "
                          "byte cap")
    return threshold, t


def _batch_count(config: MonteCarloConfig, model: TransmittanceModel) -> int:
    """len(_plan(config, model)[2]), with _plan's checks, without building
    the batch list: what a pool is sized by."""
    t, trials = _geometry(config, model)[1], int(config.trials)
    if not 0.0 < t < math.inf:
        return 0
    return len(_replicate_layout(trials)) if _sobol(config) else -(-trials // _BATCH)


def _plan(config: MonteCarloConfig, model: TransmittanceModel) -> tuple:
    """(estimate, None, ()) where _event_geometry decides the event (t = 0:
    no trial is an error; t = inf: every trial is), for either estimator and
    without drawing, with the point interval [k/n, k/n]; otherwise
    (None, kernel, batch args) of the batches that estimate it.  A run's
    pool plans each point here once (worker_pool), and monte_carlo_p_err
    takes the plan from it.  A point of Sobol replicates draws its scramble
    tables here (_draw_scrambles), so once, and every batch carries them."""
    threshold, t = _geometry(config, model)
    l, trials = int(config.l), int(config.trials)
    if not 0.0 < t < math.inf:
        k = trials if t else 0
        p = k / trials
        return ErrorEstimate(p, trials, p, p, k, config.estimator), None, ()
    crude = config.estimator == "crude"
    seed, sigma2_f = int(config.seed), float(model.sigma2_f)

    def key(b):
        return b if config.point is None else (b, int(config.point))

    if _sobol(config):
        # the k uniforms of a trial are a scrambled Sobol point; the batches
        # that start a replicate's points name its scramble streams
        layout = _replicate_layout(trials)
        streams = tuple((key(b), len(sizes)) for b, (_, start, sizes) in layout if start == 0)
        # a replicate holds at most ceil(trials / R) points
        longest = -(-trials // min(_REPLICATES, trials))
        tables = _draw_scrambles(seed, max(l - 1, 1), max(8, (longest - 1).bit_length()),
                                 streams)
        return None, _weigh_batch, [
            (seed, key(b), sum(reps[2]), l, sigma2_f, threshold, (tables,) + reps)
            for b, reps in layout]
    batches = []
    for b in range(-(-trials // _BATCH)):
        m = min(_BATCH, trials - b * _BATCH)
        batches.append((seed, key(b), m, l, sigma2_f, threshold) + (() if crude else (None,)))
    return None, _count_batch if crude else _weigh_batch, batches


def monte_carlo_p_err(
    config: MonteCarloConfig,
    model: TransmittanceModel,
    *,
    workers: int = 1,
    pool=None,
) -> ErrorEstimate:
    """Estimate the configured error event by sampling the gain model, with
    the estimator config.estimator names.

    Deterministic given (config, model): identical results for any worker
    count, because batch b always consumes substream (seed, spawn_key=(b,)),
    or (b, point) when config.point is set, and the batch results are
    combined in batch order.  The point's plan and batches are taken from
    `pool` when one is given: a run over many points opens it once with
    worker_pool over those points, and estimates them in that order, so this
    point is the pool's next one, planned once for the pool's stream and
    this call, and its batches may have run already.  Otherwise a pool of
    up to `workers` threads, the caller's among them, is opened for this
    call alone.
    """
    check_workers(workers)
    with contextlib.ExitStack() as own:
        if pool is None:
            pool = own.enter_context(worker_pool(workers, [config], model))
        plan = next(pool.plans, None)
        if plan is None:
            raise RuntimeError("the pool's stream has no batch left to collect")
        if plan[:2] != (config, model):
            raise RuntimeError(f"the pool's stream ran {plan[0]!r} where {config!r} was collected")
        decided, kernel, batches = plan[2:]
        if decided is not None:
            return decided
        results = pool.collect(kernel, batches)
    trials = int(config.trials)
    if config.estimator == "crude":
        return ErrorEstimate.from_counts(sum(results), trials)
    _, _, _, l, sigma2_f, threshold, replicates = batches[0]
    sum_v = sum(r[1] for r in results)
    scale = math.exp(_proposal(threshold / sigma2_f, l)[3])
    if replicates is not None:
        return ErrorEstimate.from_replicates(sum_v, _replicate_means(batches, results), trials,
                                             scale=scale)
    return ErrorEstimate.from_weights(sum(r[0] for r in results), sum_v,
                                      sum(r[2] for r in results), trials, scale=scale)


def analytic_event_probability(
    model: TransmittanceModel,
    event: str,
    l: int,
    snr: float | None = None,
    rate_bits: float | None = None,
    threshold: float | None = None,
) -> float:
    """Exact probability P(l, t) of the event monte_carlo_p_err samples, read
    from the same reduction, _event_geometry: 0 or 1 where it decides the
    event, and the exponential CDF -expm1(-t) at l = 1.  Its inputs are
    checked as MonteCarloConfig checks them, so the rate event takes l = 1
    only and any other l is a ConfigError."""
    config = MonteCarloConfig(l=l, trials=1, seed=0, event=event, snr=snr,
                              rate_bits=rate_bits, threshold=threshold)
    return gamma_p(config.l, _event_geometry(config, model)[1])


def fit_diversity_slope(points) -> float:
    """Diversity order from (snr, p_err) samples: negated log-log LSQ slope.

    snr must be positive, finite and strictly increasing, and p_err
    nonnegative and finite (a ConfigError otherwise).  Points with p_err = 0
    are dropped; fewer than 3 usable points is an estimation failure.
    """
    pts = [(float(s), float(p)) for s, p in points]
    if len(pts) < 3:
        raise ConfigError("need at least 3 points")
    if not all(0.0 < s < math.inf for s, _ in pts):
        raise ConfigError("snr values must be positive and finite")
    snrs = [s for s, _ in pts]
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise ConfigError("snr values must be strictly increasing")
    if not all(0.0 <= p < math.inf for _, p in pts):
        raise ConfigError("p_err must be nonnegative and finite")
    usable = [(s, p) for s, p in pts if p > 0.0]
    if len(usable) < 3:
        raise EstimationError("fewer than 3 points with p_err > 0; cannot fit a slope")
    xs = np.log([s for s, _ in usable])
    ys = np.log([p for _, p in usable])
    return float(-np.polyfit(xs, ys, 1)[0])


@dataclass(frozen=True)
class SlopeScanResult:
    """Monte Carlo sweep over an SNR grid plus the fitted diversity order."""

    snr: tuple
    thresholds: tuple
    estimates: tuple
    slope: float


def diversity_slope_scan(
    l: int,
    zeta: float,
    seed: int,
    snr_min: float = 1e2,
    snr_max: float = 1e4,
    num_points: int = 5,
    anchor_probability: float = 0.05,
    target_errors: int = 400,
    workers: int = 1,
) -> SlopeScanResult:
    """Measure the error-probability slope of the aggregate outage event of
    unit-variance Rayleigh gains.

    The threshold follows t(snr) = t0 * (snr/snr_min)^-(1-zeta), which makes
    the outage probability scale as snr^-(l(1-zeta)) for small t, so the
    fitted slope estimates the multicarrier diversity order.  t0 is placed
    where the outage CDF equals anchor_probability.  Every point is estimated
    by importance sampling (estimator "is"), and its trial count is
    ceil(target_errors / P) for P = P(k, cut), the chance of the hit region
    G < cut with the k and cut of _proposal, clamped to [SCAN_MIN_TRIALS,
    MAX_TRIALS].  That is target_errors expected hits of iid draws; the
    Sobol draws of l <= 8, mapped into the region, all hit, and keep the
    same budget.  Since the median of Gamma(k) lies below k + 1, P is
    above one half at any threshold, so ceil(target_errors / P) <=
    2 target_errors and budgets of target_errors <= SCAN_MIN_TRIALS / 2 (the
    default among them) sit on the SCAN_MIN_TRIALS floor.
    Batch b of point i draws from the substream (seed, spawn_key=(b, i)).
    The points are estimated by monte_carlo_points, on one worker pool.
    Every argument is checked, with a
    ConfigError, before anything is evaluated.
    """
    l = _check_l(l)
    if not (3 <= int(num_points) <= MAX_GRID_POINTS):
        raise ConfigError(f"need 3 to {MAX_GRID_POINTS} grid points")
    if not (0.0 < float(anchor_probability) < 1.0):
        raise ConfigError("anchor_probability must lie in (0, 1)")
    if not (0.0 < float(snr_min) < float(snr_max) < math.inf):
        raise ConfigError("need 0 < snr_min < snr_max < inf")
    if int(target_errors) < 1:
        raise ConfigError("target_errors must be >= 1")
    z = float(zeta)
    if not (0.0 <= z < 1.0):
        raise ConfigError("zeta must lie in [0, 1)")
    if not (0 <= int(seed) < 2**64):
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    check_workers(workers)
    snr = np.logspace(math.log10(float(snr_min)), math.log10(float(snr_max)), int(num_points))
    with np.errstate(over="ignore"):
        ratio = snr / snr[0]
    # logspace rounds its ends, so a ratio just under the float max can overflow here
    if not np.isfinite(ratio).all():
        raise ConfigError("snr_max / snr_min must be a finite float")

    t0 = gamma_p_inv(l, float(anchor_probability))
    thr = t0 * ratio ** (-(1.0 - z))
    # P(k, cut), the chance of each point's hit region; budgeting only
    q_hit = np.array([gamma_p(k, cut) for k, _, cut, _ in (_proposal(t, l) for t in thr)])

    trials = np.clip(np.ceil(int(target_errors) / q_hit), SCAN_MIN_TRIALS, MAX_TRIALS)
    model = TransmittanceModel.rayleigh(1.0)
    configs = [MonteCarloConfig(l=int(l), trials=int(n_i), seed=int(seed), event="threshold",
                                threshold=float(t_i), estimator="is", point=i)
               for i, (t_i, n_i) in enumerate(zip(thr, trials))]
    estimates = monte_carlo_points(configs, model, workers)
    slope = fit_diversity_slope([(float(s), e.p_hat) for s, e in zip(snr, estimates)])
    return SlopeScanResult(tuple(float(s) for s in snr), tuple(float(t) for t in thr),
                           tuple(estimates), slope)
