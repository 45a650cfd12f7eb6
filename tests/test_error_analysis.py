import decimal
import math
import sys
import threading
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats
from scipy.special import gammaincinv

from amqd import (
    ConfigError,
    ErrorEstimate,
    EstimationError,
    ExperimentConfig,
    MonteCarloConfig,
    RngStream,
    TransmittanceModel,
    analytic_event_probability,
    chi2_density,
    diversity_slope_scan,
    fit_diversity_slope,
    monte_carlo_p_err,
    outage_cdf,
    p_err_amqd_analytic,
    p_err_single_analytic,
    run_monte_carlo,
    wilson_interval,
)
from amqd import error_analysis
from amqd.cli import main
from amqd.error_analysis import (
    _BATCH,
    MAX_BATCH_BYTES,
    MAX_GRID_POINTS,
    MAX_L,
    MAX_TRIALS,
    SCAN_MIN_TRIALS,
    _count_batch,
    gamma_p,
    gamma_p_inv,
)


class TestErrorEvent:
    """The one event definition, through the fixed-gain model, whose event is
    deterministic: a count of all trials or of none."""

    @staticmethod
    def _is_error(gain2, event, **params):
        model = TransmittanceModel.fixed((math.sqrt(gain2),))
        config = MonteCarloConfig(l=1, trials=10, seed=0, event=event, **params)
        p = monte_carlo_p_err(config, model).p_hat
        assert analytic_event_probability(model, event, 1, **params) == p
        return p == 1.0

    def test_zero_gain_is_always_an_error(self):
        assert self._is_error(0.0, "rate", snr=1.0, rate_bits=0.1)

    def test_exact_event_is_strict(self):
        # log2(1 + 1*3) = 2 exactly; strict < fails
        assert not self._is_error(1.0, "rate", snr=3.0, rate_bits=2.0)
        assert self._is_error(1.0, "rate", snr=3.0, rate_bits=2.0000001)

    def test_magnitude_threshold_defaults_to_inverse_snr(self):
        assert self._is_error(0.09, "threshold", snr=10.0)
        assert not self._is_error(0.11, "threshold", snr=10.0)
        assert self._is_error(0.11, "threshold", snr=10.0, threshold=0.2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, threshold=-0.1)
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, snr=0.0)


class TestClosedForms:
    def test_snr_one_gives_certain_error(self):
        for zeta in (0.0, 0.3, 0.6):
            assert p_err_single_analytic(1.0, zeta) == 1.0

    def test_single_carrier_inverse_snr(self):
        assert p_err_single_analytic(100.0, 0.0) == pytest.approx(0.01, rel=1e-14)

    def test_single_carrier_reduced_exponent(self):
        assert p_err_single_analytic(100.0, 0.6) == pytest.approx(0.15848931924611134, rel=1e-12)

    def test_multicarrier_matches_single_at_l_one(self):
        for snr in (2.0, 10.0, 100.0, 1e4):
            a = p_err_amqd_analytic(snr, 1, 0.0, include_factorial=True)
            b = p_err_single_analytic(snr, 0.0)
            assert abs(a - b) / b <= 1e-14

    def test_factorial_prefactor(self):
        assert p_err_amqd_analytic(10.0, 2, 0.0, include_factorial=True) == pytest.approx(
            0.005, rel=1e-14
        )

    def test_reference_curve_value(self):
        assert p_err_amqd_analytic(10.0, 5, 0.6) == pytest.approx(0.01, rel=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            p_err_single_analytic(0.0, 0.0)
        with pytest.raises(ConfigError):
            p_err_single_analytic(10.0, 1.0)
        with pytest.raises(ConfigError):
            p_err_amqd_analytic(10.0, 0, 0.0)


class TestChiSquareDensity:
    def test_density_at_origin(self):
        assert chi2_density(0.0, 1) == 1.0
        assert chi2_density(0.0, 2) == 0.0

    def test_known_values(self):
        assert chi2_density(1.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert chi2_density(2.0, 3) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_matches_gamma_distribution(self):
        for l in (1, 2, 5, 10):
            for x in (0.01, 0.5, 1.0, 4.0, 20.0):
                assert chi2_density(x, l) == pytest.approx(
                    stats.gamma.pdf(x, a=l), rel=1e-12, abs=1e-300
                )

    def test_negative_argument_rejected(self):
        with pytest.raises(ConfigError):
            chi2_density(-0.1, 2)

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_non_finite_argument(self, l):
        with pytest.raises(ConfigError):
            chi2_density(math.nan, l)
        assert chi2_density(math.inf, l) == 0.0

    def test_small_x_leading_term(self):
        for l in (1, 2, 3, 5):
            x = 1e-4
            leading = x ** (l - 1) / math.factorial(l - 1)
            # the exact density sits just below the leading term
            assert chi2_density(x, l) <= leading
            assert chi2_density(x, l) == pytest.approx(leading, rel=2e-4)

    def test_density_integrates_to_one(self):
        for l in (1, 3, 6):
            total, _ = integrate.quad(lambda x: chi2_density(x, l), 0.0, np.inf)
            assert total == pytest.approx(1.0, rel=1e-10)


class TestOutageCdf:
    def test_zero_threshold(self):
        assert outage_cdf(0.0, 3) == 0.0

    def test_exponential_case(self):
        assert outage_cdf(0.01, 1, "exact") == pytest.approx(0.009950166250831947, rel=1e-12)
        assert outage_cdf(0.01, 1, "approx") == pytest.approx(0.01, rel=1e-14)

    def test_two_subchannel_case(self):
        # 1 - e^-t (1 + t) at t = 0.1
        assert outage_cdf(0.1, 2, "exact") == pytest.approx(0.004678840160444475, rel=1e-12)
        assert outage_cdf(0.1, 2, "approx") == pytest.approx(0.005, rel=1e-14)

    def test_quadrature_agreement(self):
        for l in (1, 4, 7, 10):
            for t in (1e-4, 0.1, 1.0, 5.0):
                quad, _ = integrate.quad(
                    lambda x: chi2_density(x, l), 0.0, t, epsabs=0.0, epsrel=1e-12, limit=200
                )
                exact = outage_cdf(t, l, "exact")
                assert abs(quad - exact) / exact <= 1e-10

    def test_approx_overestimates_slightly(self):
        for l in range(1, 7):
            for t in (1e-4, 1e-3, 0.01):
                ratio = outage_cdf(t, l, "approx") / outage_cdf(t, l, "exact")
                assert 1.0 <= ratio <= 1.0 + t

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            outage_cdf(-1.0, 2)
        with pytest.raises(ConfigError):
            outage_cdf(1.0, 2, "fancy")

    @pytest.mark.parametrize("t, l", [(0.5, 171), (2.0, 2000), (1e10, 40)])
    def test_approx_beyond_float_range_is_a_config_error(self, t, l):
        with pytest.raises(ConfigError, match="float range|overflows a float"):
            outage_cdf(t, l, "approx")

    # P(l, t) at large l, about 5.3 sd below the mean, from mpmath at 40 digits
    # (at l = 1e6 quadrature of the density and the summed Poisson tail agree)
    @pytest.mark.parametrize("l, t, reference", [
        (10**6, 995000.0, 2.749580359270071e-07),
        (10**9, 999841886.1169916, 2.862756601805267e-07),
        (2**53, 9007198780209664.0, 2.866514484576506e-07),
    ])
    def test_large_l_matches_mpmath_references(self, l, t, reference):
        assert outage_cdf(t, l, "exact") == pytest.approx(reference, rel=1e-12)


# gamma_p's relative accuracy, with room for the reference's own rounding
_P_REL = 1e-12


def _scipy_rounding(l, t):
    """Bound on scipy.special.gammainc's own relative error.  Where
    |t - l| > 0.4 l it takes ln(e^-t t^l / Gamma(l)) as l ln t - t - lgamma(l),
    whose rounding grows with those terms: against mpmath at 40 digits it is
    off by 7e-12 at l = 3928, t = 0.52 l."""
    if abs(t - l) <= 0.4 * l:
        return 0.0
    return 2.0**-52 * (2.0 * l * abs(math.log(t)) + t + 3.0 * math.lgamma(l))


def _thresholds(l):
    """Any t in [0, inf], or one in [0, 4 l], where P(l, t) is not all 0 or 1."""
    return (st.floats(min_value=0.0, allow_nan=False)
            | st.floats(min_value=0.0, max_value=4.0).map(lambda lam: lam * l))


class TestGammaP:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_bounded_and_nondecreasing(self, data):
        l = data.draw(st.integers(min_value=1, max_value=MAX_L))
        lo, hi = sorted((data.draw(_thresholds(l)), data.draw(_thresholds(l))))
        p_lo, p_hi = gamma_p(l, lo), gamma_p(l, hi)
        assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
        # neighbouring floats can move P by less than its rounding
        assert p_lo <= p_hi * (1.0 + _P_REL)

    @given(st.integers(min_value=1, max_value=MAX_L),
           st.floats(min_value=1e-300, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=400, deadline=None)
    def test_inverse_round_trip(self, l, a):
        t = gamma_p_inv(l, a)
        p = gamma_p(l, t)
        if abs(p - a) <= 1e-10 * a:
            return
        # at large l one float step of t moves P by more than 1e-10 a (near
        # the median at l = 2**53 by about 8e-9), so t must be the float
        # nearest the root: a lies between P at its two neighbours
        below = gamma_p(l, math.nextafter(t, 0.0))
        above = gamma_p(l, math.nextafter(t, math.inf))
        assert below * (1.0 - 1e-10) <= a <= above * (1.0 + 1e-10)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_up_to_l_1e4(self, data):
        l = data.draw(st.integers(min_value=1, max_value=10**4))
        t = data.draw(_thresholds(l))
        reference = float(special.gammainc(l, t))
        if reference < 1e-300:
            return
        tol = _P_REL + _scipy_rounding(l, t)
        assert abs(gamma_p(l, t) - reference) <= tol * reference

    def test_edges(self):
        for l in (1, 3, 1000, MAX_L):
            assert gamma_p(l, 0.0) == 0.0
            assert gamma_p(l, math.inf) == 1.0
            assert gamma_p_inv(l, 0.0) == 0.0
            assert gamma_p_inv(l, 1.0) == math.inf

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-10, 0.01, 0.5, 1.0, 3.0, 40.0, math.inf])
    def test_one_gain_is_the_exponential_cdf(self, t):
        # the rate event's oracle is P(1, t), so it is this formula to the bit
        assert gamma_p(1, t) == -math.expm1(-t)

    @pytest.mark.parametrize("l, t", [(0, 1.0), (-1, 1.0), (MAX_L + 1, 1.0), (2, -1.0),
                                      (2, math.nan)])
    def test_invalid_arguments_rejected(self, l, t):
        with pytest.raises(ConfigError):
            gamma_p(l, t)

    @pytest.mark.parametrize("l, p", [(0, 0.5), (MAX_L + 1, 0.5), (2, -0.1), (2, 1.5),
                                      (2, math.nan)])
    def test_inverse_invalid_arguments_rejected(self, l, p):
        with pytest.raises(ConfigError):
            gamma_p_inv(l, p)


class TestWilsonInterval:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=120, deadline=None)
    def test_endpoints_solve_the_score_equation(self, k, n):
        if k > n:
            k = k % (n + 1)
        lo, hi = wilson_interval(k, n)
        z = 1.96
        p_hat = k / n
        # endpoints are the roots of (p_hat - p)^2 = z^2 p (1 - p) / n
        roots = np.sort(np.roots([1.0 + z * z / n, -(2.0 * p_hat + z * z / n), p_hat * p_hat]))
        assert lo == pytest.approx(float(roots[0]), abs=1e-10)
        assert hi == pytest.approx(float(roots[1]), abs=1e-10)
        assert 0.0 <= lo + 1e-12 and hi <= 1.0 + 1e-12
        assert lo - 1e-12 <= p_hat <= hi + 1e-12

    def test_extreme_counts(self):
        # the endpoints at k = 0 and k = n are exact: rounding put lo above
        # p_hat = 0 (2.8e-17 at n = 11) or hi past 1, or short of p_hat = 1,
        # at many n
        for n in range(1, 2001):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0 < hi <= 1.0
            lo, hi = wilson_interval(n, n)
            assert 0.0 <= lo < hi == 1.0

    def test_certain_event_is_covered(self):
        # t = 60 >= l leaves the proposal untilted, so every draw hits and
        # the hits get a Wilson interval, which must reach p = 1
        config = MonteCarloConfig(l=1, trials=131072, seed=0, threshold=60.0, estimator="is")
        est = monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0))
        assert est.errors_observed == 131072
        assert est.covers(analytic_event_probability(RAYLEIGH_1, "threshold", 1, threshold=60.0))

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigError):
            wilson_interval(6, 5)


class TestErrorEstimate:
    def test_from_counts(self):
        est = ErrorEstimate.from_counts(50, 1000)
        assert est.p_hat == 0.05
        assert est.ci_low < 0.05 < est.ci_high
        assert est.covers(0.05)
        assert not est.covers(0.2)

    def test_inconsistent_p_hat_rejected(self):
        with pytest.raises(ConfigError):
            ErrorEstimate(0.5, 100, 0.4, 0.6, 49)

    def test_interval_must_contain_estimate(self):
        with pytest.raises(ConfigError):
            ErrorEstimate(0.49, 100, 0.5, 0.6, 49)

    def test_crude_estimate_keeps_the_count_invariant(self):
        assert ErrorEstimate.from_counts(49, 100).estimator == "crude"
        with pytest.raises(ConfigError):
            ErrorEstimate(0.5, 100, 0.4, 0.6, 49, "crude")

    def test_weighted_estimate(self):
        # weights 0.5, 0.5, 0, 0: mean 0.25, sample sd 0.2887
        est = ErrorEstimate.from_weights(2, 1.0, 0.5, 4)
        half = 1.96 * np.std([0.5, 0.5, 0.0, 0.0], ddof=1) / 2.0
        assert (est.p_hat, est.estimator, est.errors_observed) == (0.25, "is", 2)
        assert est.ci_low == 0.0  # floored
        assert est.ci_high == pytest.approx(0.25 + half, rel=1e-12)
        # a common factor of the weights scales the estimate and the interval,
        # without squaring it
        tiny = ErrorEstimate.from_weights(2, 1.0, 0.5, 4, scale=1e-200)
        assert tiny.p_hat == pytest.approx(0.25e-200, rel=1e-12)
        assert tiny.ci_high == pytest.approx((0.25 + half) * 1e-200, rel=1e-12)
        # an importance-sampling p_hat is a mean weight, not hits / trials
        ErrorEstimate(1e-9, 100, 0.0, 2e-9, 49, "is")
        with pytest.raises(ConfigError):
            ErrorEstimate(1.5, 100, 1.0, 2.0, 49, "is")
        with pytest.raises(ConfigError):
            ErrorEstimate(0.5, 100, 0.4, 0.6, 50, "x")

    def test_weights_without_a_variance_estimate_bound_p_by_the_scale(self):
        # one trial, or no hit: p is a mean of weights at most scale, so the
        # interval is [0, min(scale, 1)], never the point p_hat
        one = ErrorEstimate.from_weights(1, 0.5, 0.25, 1, scale=0.4)
        assert (one.p_hat, one.ci_low, one.ci_high) == (0.2, 0.0, 0.4)
        none = ErrorEstimate.from_weights(0, 0.0, 0.0, 100, scale=3.0)
        assert (none.p_hat, none.ci_low, none.ci_high) == (0.0, 0.0, 1.0)

    def test_weights_of_no_trial_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            ErrorEstimate.from_weights(0, 0.0, 0.0, 0)


class TestMonteCarloPErr:
    def test_reachable_rate_never_errors(self):
        # log2(1 + 1*1) = 1, strict < 1 is false on every trial
        config = MonteCarloConfig(l=1, trials=500, seed=0, event="rate", snr=1.0, rate_bits=1.0)
        est = monte_carlo_p_err(config, TransmittanceModel.fixed((1.0,)))
        assert est.p_hat == 0.0

    def test_unreachable_rate_always_errors(self):
        config = MonteCarloConfig(l=1, trials=500, seed=0, event="rate", snr=1.0, rate_bits=2.0)
        est = monte_carlo_p_err(config, TransmittanceModel.fixed((1.0,)))
        assert est.p_hat == 1.0

    def test_uniform_phase_threshold_event_is_deterministic(self):
        model = TransmittanceModel.uniform_phase(0.5)
        lo = MonteCarloConfig(l=2, trials=100, seed=0, event="threshold", threshold=0.4)
        hi = MonteCarloConfig(l=2, trials=100, seed=0, event="threshold", threshold=0.6)
        assert monte_carlo_p_err(lo, model).p_hat == 0.0  # 2 * 0.25 = 0.5 >= 0.4
        assert monte_carlo_p_err(hi, model).p_hat == 1.0

    def test_single_subchannel_estimate_covers_oracle(self):
        config = MonteCarloConfig(l=1, trials=10**6, seed=0, event="threshold", threshold=0.1)
        est = monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0))
        assert est.covers(outage_cdf(0.1, 1, "exact"))

    def test_aggregate_estimate_covers_gamma_oracle(self):
        config = MonteCarloConfig(l=3, trials=2 * 10**5, seed=2, event="threshold", threshold=1.0)
        est = monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0))
        assert est.covers(outage_cdf(1.0, 3, "exact"))

    def test_worker_count_does_not_change_the_estimate(self):
        config = MonteCarloConfig(l=2, trials=200000, seed=11, event="threshold", threshold=0.3)
        model = TransmittanceModel.rayleigh(1.0)
        assert monte_carlo_p_err(config, model, workers=1) == monte_carlo_p_err(
            config, model, workers=3
        )

    # counts measured before the batch kernel was rewritten in place; they
    # change if a single draw or a single bit of a row sum changes (l=10
    # takes numpy's pairwise-sum path)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("l,threshold,errors", [(1, 0.1, 28844), (3, 1.0, 24101),
                                                    (10, 3.0, 338)])
    def test_golden_counts(self, l, threshold, errors, workers):
        config = MonteCarloConfig(l=l, trials=300000, seed=5, event="threshold",
                                  threshold=threshold)
        est = monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0), workers=workers)
        assert est.errors_observed == errors

    # l < 8 adds the columns, l >= 8 keeps numpy's row sum
    @pytest.mark.parametrize("l", [1, 2, 3, 5, 7, 8, 10])
    def test_batch_kernel_matches_reference_expression_bitwise(self, l):
        # thresholds on a reference row sum and one ulp above it: a row sum
        # that moved by a single ulp changes one of the two counts
        seed, batch, m, sigma2_f = 9, 2, 2048, 0.7
        g = RngStream(seed, batch).generator()
        re = g.standard_normal((m, l))
        im = g.standard_normal((m, l))
        ref = ((re * re + im * im) * (sigma2_f / 2.0)).sum(axis=1)
        for x in ref[:32]:
            for t in (x, np.nextafter(x, np.inf)):
                got = _count_batch((seed, batch, m, l, sigma2_f, t))
                assert got == np.count_nonzero(ref < t)

    def test_rate_event_reduces_to_magnitude_threshold(self):
        # identical seeds draw identical gains, and the two events have the
        # same geometry, so the counts agree exactly
        snr, rate_bits = 8.0, 1.5
        m_thr = (2.0**rate_bits - 1.0) / snr
        rate_cfg = MonteCarloConfig(l=1, trials=3 * 10**5, seed=6, event="rate", snr=snr,
                                    rate_bits=rate_bits)
        thr_cfg = MonteCarloConfig(l=1, trials=3 * 10**5, seed=6, event="threshold",
                                   threshold=m_thr)
        model = TransmittanceModel.rayleigh(1.0)
        assert monte_carlo_p_err(rate_cfg, model) == monte_carlo_p_err(thr_cfg, model)

    def test_crude_batch_memory_is_capped(self, monkeypatch):
        def no_draw(args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(error_analysis, "_count_batch", no_draw)
        for l in (MAX_BATCH_BYTES // (16 * _BATCH) + 1, 10**12):
            config = MonteCarloConfig(l=l, trials=10**5, seed=0, event="threshold", threshold=9.0)
            with pytest.raises(ConfigError, match="byte cap"):
                monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0))

    def test_missing_event_parameters_rejected(self, no_draw, capsys):
        model = TransmittanceModel.rayleigh(1.0)
        with pytest.raises(ConfigError):
            monte_carlo_p_err(
                MonteCarloConfig(l=1, trials=10, seed=0, event="threshold"), model
            )
        with pytest.raises(ConfigError):
            monte_carlo_p_err(
                MonteCarloConfig(l=1, trials=10, seed=0, event="rate", snr=2.0), model
            )
        # the rate event is defined at l = 1 only: the config, the oracle and
        # the command line reject any other l before a batch is planned
        for l in (2, 3):
            with pytest.raises(ConfigError, match="l = 1 only"):
                MonteCarloConfig(l=l, trials=10, seed=0, event="rate", snr=2.0, rate_bits=1.0)
            with pytest.raises(ConfigError, match="l = 1 only"):
                analytic_event_probability(model, "rate", l, snr=2.0, rate_bits=1.0)
            assert main(["simulate", "--event", "rate", "--l", str(l), "--zeta", "0.5"]) == 2
            assert "config error: the rate event takes l = 1 only" in capsys.readouterr().err


RAYLEIGH_1 = TransmittanceModel.rayleigh(1.0)


@pytest.fixture
def no_draw(monkeypatch):
    def fail(args, scratch=None):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(error_analysis, "_weigh_batch", fail)
    monkeypatch.setattr(error_analysis, "_count_batch", fail)


def _is_config(l, threshold, seed=1, trials=10**5):
    return MonteCarloConfig(l=l, trials=trials, seed=seed, event="threshold",
                            threshold=threshold, estimator="is")


def _rel_half_width(est):
    return (est.ci_high - est.ci_low) / (2.0 * est.p_hat)


class TestImportanceSampling:
    # the last point of a 20 dB slope scan anchored at p = 0.05
    @pytest.mark.parametrize("l,p_ref", [(3, 9.06e-8), (4, 1.44e-9), (5, 2.43e-11),
                                         (10, 5.8e-20)])
    def test_rare_point_covered_with_tight_interval(self, l, p_ref):
        t = float(gammaincinv(l, 0.05)) / 100.0
        p = analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=t)
        assert p == pytest.approx(p_ref, rel=0.01)
        est = monte_carlo_p_err(_is_config(l, t), RAYLEIGH_1)
        assert est.estimator == "is" and est.trials == 10**5
        assert est.covers(p)
        assert _rel_half_width(est) <= 0.02

    # squared weights below 1e-308 would underflow without the scale; l = 9
    # draws its eight other gains with standard_gamma
    @pytest.mark.parametrize("l,threshold", [(1, 1e-300), (2, 1e-100), (3, 1e-100),
                                             (2, 1e-150), (9, 1e-25)])
    def test_probability_near_the_float_floor(self, l, threshold):
        p = analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=threshold)
        assert 1e-302 < p < 1e-199
        est = monte_carlo_p_err(_is_config(l, threshold), RAYLEIGH_1)
        assert est.covers(p)
        assert _rel_half_width(est) <= 0.02

    # t >= l: the proposal is untilted, and only the last gain's chance 1 -
    # e^-(t - G) weighs a hit
    @pytest.mark.parametrize("l,threshold", [(2, 3.0), (6, 9.0)])
    def test_untilted_point_covered_with_tight_interval(self, l, threshold):
        p = analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=threshold)
        est = monte_carlo_p_err(_is_config(l, threshold), RAYLEIGH_1)
        assert est.covers(p)
        assert _rel_half_width(est) <= 0.02

    @pytest.mark.parametrize("l", [1, 2, 4, 8, 9, 10])
    def test_weigh_kernel_matches_the_likelihood_ratio(self, l):
        seed, batch, m, sigma2_f, threshold = 9, 2, 4096, 0.7, 0.3 * l
        g = error_analysis._weigh_generator(seed, batch)
        t = threshold / sigma2_f
        theta = t / l
        k = max(l - 1, 1)
        # l <= 8 weighs three Sobol replicates, the first one point longer:
        # replicates 5 .. 7 of a point, whose scrambles are the first draws
        # of the batch's stream (replicates 0 .. 4 draw from another)
        sizes = (1366, 1365, 1365)
        replicates = ((error_analysis._draw_scrambles(seed, k, 32, ((batch + 1, 5), (batch, 3))),
                       5, 0, sizes) if l <= 8 else None)
        hits, sum_v, sum_v2, sums = error_analysis._weigh_batch(
            (seed, batch, m, l, sigma2_f, threshold, replicates))
        # the last gain's chance 1 - e^-(t - x) to close the gap, at l >= 2
        # (its largest value, 1 - e^-t, in the scale)
        h0 = -math.expm1(-t) if l >= 2 else 1.0
        if l <= 8:
            # the k uniforms of a Sobol point, scrambled by the first words
            # of the same stream (laid out replicate-major), mapped into the
            # hit region G < cut = l: u_i uniform on (a / P_(i-1), 1) with
            # a = e^-cut and P_i = u_1 ... u_i, so P_k > a, each range's
            # chance 1 - a / P_(i-1) multiplying the weight.  Every point
            # then weighs that times the Gamma(k) density ratio, and at
            # l >= 2 times the chance 1 - e^-(t - x) that the last Exp(1)
            # gain falls below t - x, x = theta G
            words = g.bit_generator.random_raw(3 * k * 17).view("<u4")
            v, low = error_analysis._scramble_tables(words.reshape(3, k, 34), 32)
            points = error_analysis._sobol_points(v, low, 0, sizes[0],
                                                  error_analysis._Scratch())
            u = (np.array([p.copy() for p in points]) + 0.5) / 2.0**32
            u = np.concatenate([u[:, r, :n] for r, n in enumerate(sizes)], axis=1)
            a = math.exp(-l)
            prod, chance = np.ones(m), np.ones(m)
            for ui in u:
                chance *= 1.0 - a / prod
                prod *= a / prod + (1.0 - a / prod) * ui
            x = theta * -np.log(prod)
            w = chance * theta**k * np.exp(x * (1.0 / theta - 1.0))
            if l >= 2:
                w *= -np.expm1(-(t - x))
            scale = theta**k * math.exp(l * (1.0 - theta)) * h0 * (1.0 - a)
            # each replicate's sum
            owner = np.repeat(np.arange(3), sizes)
            expected = [w[owner == r].sum() for r in range(3)]
            assert np.array(sums) * scale == pytest.approx(expected, rel=1e-12)
        else:
            # the Gamma(l - 1) draws of the same stream: every hit
            # x = theta G < t weighs the Gamma(l - 1) density ratio times the
            # chance 1 - e^-(t - x) that the last Exp(1) gain falls below t - x
            gam = g.standard_gamma(k, m)
            x = theta * gam[theta * gam < t]
            w = theta**k * np.exp(x * (1.0 / theta - 1.0)) * -np.expm1(-(t - x))
            scale = theta**k * math.exp(l * (1.0 - theta)) * h0
        # iid draws have no replicates
        assert len(sums) == (3 if l <= 8 else 0)
        assert hits == x.size
        assert sum_v * scale == pytest.approx(w.sum(), rel=1e-12)
        assert sum_v2 * scale**2 == pytest.approx((w * w).sum(), rel=1e-12)

    # the iid draws: the Sobol points of l <= 8 are mapped into the hit
    # region, so they have no miss to clamp
    @pytest.mark.parametrize("l, threshold", [(10, 2.8), (9, 800.0)])
    def test_weigh_kernel_clamps_the_misses(self, monkeypatch, l, threshold):
        # a Gamma block with draws far above the cut (whose unclamped weight
        # overflows to inf): every sum must stay finite and match a reference
        # over the hits alone
        blocks = []

        class Generator:
            def __init__(self):
                self._rng = np.random.default_rng(l)

            def standard_gamma(self, shape, out):
                out[:] = self._rng.standard_gamma(shape, out.size)
                out[::89] = 1e300
                out[1::89] = 1e6
                blocks.append(out.copy())
                return out

        m, sigma2_f = 4096, 0.8
        monkeypatch.setattr(error_analysis, "_weigh_generator", lambda seed, key: Generator())
        hits, sum_v, sum_v2, _ = error_analysis._weigh_batch(
            (0, 0, m, l, sigma2_f, threshold, None))
        t = threshold / sigma2_f
        cut = max(t, l)
        # the first l - 1 gains drawn, the last integrated out
        hit = blocks[0] < cut
        gam = blocks[0][hit]
        theta = min(t / l, 1.0)
        v = np.exp((gam - cut) * (1.0 - theta))  # w / scale over the hits
        v *= np.expm1(-(t - theta * gam)) / math.expm1(-t)
        assert hits == hit.sum() and 0 < hits < m
        assert math.isfinite(sum_v) and math.isfinite(sum_v2)
        assert sum_v == pytest.approx(v.sum(), rel=1e-12)
        assert sum_v2 == pytest.approx((v * v).sum(), rel=1e-12)

    def test_untilted_proposal_weighs_only_the_last_gains_chance(self):
        # t >= l leaves the proposal untilted (theta = 1), and every Sobol
        # point is mapped into the hit region G < cut = t.  At l = 1 that
        # region is the event itself, so every weight is 1 and the estimate
        # is its chance 1 - e^-t, with no spread; at l >= 2 a point weighs
        # the chance 1 - e^-(t - G) that the last gain closes the gap, and
        # the estimate is the replicate one, scaled by (1 - e^-t)^2: the
        # largest such chance, times the one factor 1 - e^-t that every
        # point's weight holds in common
        est = monte_carlo_p_err(_is_config(1, 1.5, seed=4, trials=1000), RAYLEIGH_1)
        assert est.estimator == "is" and est.errors_observed == 1000
        assert est.p_hat == est.ci_low == est.ci_high == -math.expm1(-1.5)
        for l in (2, 6):
            t = 1.5 * l
            config = _is_config(l, t, seed=4, trials=1000)
            est = monte_carlo_p_err(config, RAYLEIGH_1)
            _, kernel, batches = error_analysis._plan(config, RAYLEIGH_1)
            (hits, sum_v, _, _), = results = [kernel(args) for args in batches]
            means = error_analysis._replicate_means(batches, results)
            assert est == ErrorEstimate.from_replicates(sum_v, means, 1000,
                                                        scale=math.expm1(-t) ** 2)
            assert hits == est.errors_observed == 1000 and est.p_hat < 1.0
            assert est.covers(analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=t))

    @pytest.mark.parametrize("trials", [1, *range(2, 17), 17, 1000])
    def test_untilted_estimate_of_one_gain_is_exact(self, trials):
        # at l = 1 and t >= 1 every weight is 1, so p_hat is the scale,
        # 1 - e^-t, to the bit, out past t = 37.4, where it rounds to 1.
        # From 17 trials on the replicate means agree, so the interval is
        # the point itself; below, each replicate is one point and the
        # bounded-mean interval still holds p
        for t in [*np.geomspace(1.0, 40.0, 30), 37.0, 37.5, 38.0]:
            t = float(t)
            p = -math.expm1(-t)
            est = monte_carlo_p_err(_is_config(1, t, seed=5, trials=trials), RAYLEIGH_1)
            assert est.p_hat == p == gamma_p(1, t), t
            assert est.covers(p) and est.errors_observed == trials
            if trials >= 17:
                assert est.ci_low == est.ci_high == p
        assert -math.expm1(-38.0) == 1.0

    def test_one_trial_interval_holds_the_true_probability(self):
        for l, threshold in ((2, 1.0), (2, 0.5), (5, 0.1)):
            p = analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=threshold)
            for seed in range(20):
                est = monte_carlo_p_err(_is_config(l, threshold, seed=seed, trials=1), RAYLEIGH_1)
                assert est.ci_low == 0.0 < est.ci_high
                assert est.covers(p)

    def test_interval_coverage_on_both_sides_of_the_draw_switch(self):
        # l = 8 draws its Gamma(l - 1) as a product of Sobol coordinates, l = 9
        # with standard_gamma.  One pooled verdict over 2 l x 3 events x 200 runs,
        # in the form of ACCEPTANCE 9: the bound, 1106/1200, sits 4.5 binomial
        # sd (2.8%) below the nominal 95%
        runs, seed, covered = 200, 95000, 0
        for l in (8, 9):
            for p_target in (1e-3, 1e-8, 1e-20):
                thr = float(gammaincinv(l, p_target))
                p_true = outage_cdf(thr, l, "exact")
                for _ in range(runs):
                    seed += 1
                    est = monte_carlo_p_err(_is_config(l, thr, seed=seed, trials=10**4),
                                            RAYLEIGH_1)
                    covered += est.covers(p_true)
        assert covered >= 1106, covered

    def test_worker_count_does_not_change_the_estimate(self):
        config = _is_config(2, 0.01, seed=11, trials=300000)  # 5 batches
        estimates = [monte_carlo_p_err(config, RAYLEIGH_1, workers=w) for w in (1, 2, 4)]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_rate_event(self):
        snr, rate_bits = 1e4, 1.0
        config = MonteCarloConfig(l=1, trials=10**5, seed=6, event="rate", snr=snr,
                                  rate_bits=rate_bits, estimator="is")
        est = monte_carlo_p_err(config, RAYLEIGH_1)
        p = analytic_event_probability(RAYLEIGH_1, "rate", 1, snr=snr, rate_bits=rate_bits)
        assert est.covers(p)
        assert _rel_half_width(est) <= 0.02
        # the rate event draws one sub-channel against (2^rate - 1) / snr
        same = _is_config(1, (2.0**rate_bits - 1.0) / snr, seed=6)
        assert monte_carlo_p_err(same, RAYLEIGH_1) == est

    def test_zero_threshold_is_never_an_error(self, no_draw):
        est = monte_carlo_p_err(_is_config(2, 0.0), RAYLEIGH_1)
        assert (est.p_hat, est.ci_low, est.ci_high, est.errors_observed) == (0.0, 0.0, 0.0, 0)
        assert analytic_event_probability(RAYLEIGH_1, "threshold", 2, threshold=0.0) == 0.0

    @staticmethod
    def _verdict(estimator, p, trials):
        # an event decided without drawing: every trial an error, or none,
        # with the point interval [p, p] under either estimator
        return ErrorEstimate(p, trials, p, p, int(p) * trials, estimator)

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    def test_zero_gain_decides_the_event(self, no_draw, estimator):
        dead = TransmittanceModel.rayleigh(0.0)
        for threshold, p in ((0.5, 1.0), (0.0, 0.0)):
            config = MonteCarloConfig(l=2, trials=10**5, seed=1, threshold=threshold,
                                      estimator=estimator)
            assert monte_carlo_p_err(config, dead) == self._verdict(estimator, p, 10**5)
            assert analytic_event_probability(dead, "threshold", 2, threshold=threshold) == p

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("threshold, sigma2_f, p", [(1e-320, 1e300, 0.0), (1e300, 1e-300, 1.0)])
    def test_event_decided_where_threshold_over_gain_leaves_the_floats(
            self, no_draw, estimator, workers, threshold, sigma2_f, p):
        # threshold / sigma2_f underflows to 0 or overflows to inf: the event
        # is G < 0 or G < inf, decided exactly as the oracle decides it
        model = TransmittanceModel.rayleigh(sigma2_f)
        config = MonteCarloConfig(l=3, trials=200000, seed=0, threshold=threshold,
                                  estimator=estimator)
        est = monte_carlo_p_err(config, model, workers=workers)
        assert est == self._verdict(estimator, p, 200000)
        assert analytic_event_probability(model, "threshold", 3, threshold=threshold) == p

    def test_infinite_threshold_is_always_an_error(self):
        est = monte_carlo_p_err(_is_config(3, math.inf, trials=1000), RAYLEIGH_1)
        assert est.p_hat == est.ci_low == est.ci_high == 1.0
        assert est.errors_observed == 1000

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    def test_rate_beyond_float_range_is_always_an_error(self, estimator):
        config = MonteCarloConfig(l=1, trials=1000, seed=0, event="rate", snr=1.0,
                                  rate_bits=2000.0, estimator=estimator)
        assert monte_carlo_p_err(config, RAYLEIGH_1).p_hat == 1.0
        assert analytic_event_probability(RAYLEIGH_1, "rate", 1, snr=1.0, rate_bits=2000.0) == 1.0

    def test_draws_one_gamma_per_trial_whatever_l(self):
        # over the crude batch cap, which bounds the 2 l normals per trial
        l = MAX_BATCH_BYTES // (16 * _BATCH) + 1
        t = float(gammaincinv(l, 1e-6))
        est = monte_carlo_p_err(_is_config(l, t), RAYLEIGH_1)
        assert est.covers(analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=t))

    @pytest.mark.parametrize("t, l", [(0.3, 1), (1.5, 1), (0.4, 2), (5.0, 2), (2.5, 9),
                                      (1e-300, 10**15), (0.0, 3)])
    def test_proposal_matches_its_closed_form(self, t, l):
        # scale = theta^k e^(cut (1 - theta)) h0 with h0 = 1 - e^-t at l >= 2
        # and 1 at l = 1, times 1 - e^-cut at l <= 8, multiplied out in
        # 350-digit decimals from the unrounded theta = t / l (a subnormal
        # float at l = 1e15), so neither a float ln theta nor the log-space
        # sum enters the reference
        k, theta, cut, log_scale = error_analysis._proposal(t, l)
        assert (k, theta, cut) == (max(l - 1, 1), min(t / l, 1.0), max(t, float(l)))
        if t == 0.0:
            assert log_scale == -math.inf
            return
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emin, ctx.Emax = 350, decimal.MIN_EMIN, decimal.MAX_EMAX
            th = min(Decimal(t) / l, Decimal(1))
            h0 = 1 - (-Decimal(t)).exp() if l >= 2 else Decimal(1)
            # the Sobol draws' weights share the hit region's 1 - e^-cut
            region = 1 - (-Decimal(cut)).exp() if l <= 8 else Decimal(1)
            ref = float((th**k * (Decimal(cut) * (1 - th)).exp() * h0 * region).ln())
        assert math.isclose(log_scale, ref, rel_tol=1e-14)

    @pytest.mark.parametrize("l", [10**15, 2**53])
    def test_tilt_below_the_float_range(self, l):
        # theta = t / l is a subnormal here, so t / theta misses l by far more
        # than one gamma sd: hits must still be the draws below l, each
        # weighing at most _proposal's scale, which underflows to 0, never a
        # NaN
        est = monte_carlo_p_err(_is_config(l, 1e-300, trials=1000), RAYLEIGH_1)
        assert (est.p_hat, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)
        assert 0 < est.errors_observed < 1000
        assert analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=1e-300) == 0.0

    def test_trials_beyond_the_cap_rejected(self):
        assert MonteCarloConfig(l=1, trials=MAX_TRIALS, seed=0, threshold=1.0).trials == MAX_TRIALS
        with pytest.raises(ConfigError, match="trials"):
            MonteCarloConfig(l=1, trials=MAX_TRIALS + 1, seed=0, threshold=1.0)

    def test_l_beyond_exact_floats_rejected(self):
        assert MonteCarloConfig(l=2**53, trials=10, seed=0, threshold=1.0).l == 2**53
        with pytest.raises(ConfigError, match="2\\*\\*53"):
            MonteCarloConfig(l=2**53 + 1, trials=10, seed=0, threshold=1.0)

    def test_deterministic_model_gives_a_verdict(self):
        model = TransmittanceModel.fixed((0.5, 0.5))
        assert monte_carlo_p_err(_is_config(2, 0.6), model).p_hat == 1.0
        assert monte_carlo_p_err(_is_config(2, 0.4), model).p_hat == 0.0

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, threshold=0.1, estimator="x")

    def test_nan_event_parameters_rejected(self):
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, threshold=math.nan)
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, event="rate", snr=1.0, rate_bits=math.nan)
        # an infinite snr would make the overflowing rate's threshold inf / inf
        for event in ("threshold", "rate"):
            with pytest.raises(ConfigError, match="snr must be positive and finite"):
                MonteCarloConfig(l=1, trials=10, seed=0, event=event, snr=math.inf,
                                 rate_bits=2000.0)
            with pytest.raises(ConfigError, match="snr must be positive and finite"):
                analytic_event_probability(RAYLEIGH_1, event, 1, snr=math.inf, rate_bits=2000.0)


def _scrambled_reference(words, n):
    """The first n points of scipy's unscrambled Sobol sequence in
    words.shape[1] dimensions, each scrambled digit by digit by the lower
    triangular matrix and digital shift that words (k, 34) hold."""
    k = words.shape[0]
    engine = stats.qmc.Sobol(k, scramble=False, bits=32)
    x = (engine.random(1 << (n - 1).bit_length())[:n] * 2.0**32).astype(np.uint32).T
    out = np.repeat(words[:, 32, None], n, axis=1)
    for c in range(32):
        diagonal = np.uint32(1 << (31 - c))
        column = (words[:, c] & (diagonal - np.uint32(1))) | diagonal
        out ^= np.where(x & diagonal, column[:, None], np.uint32(0))
    return out


def _sobol(words, start, stop, bits=32):
    """_sobol_points of these scrambles, (rows, k, stop - start), from tables
    of the points below 2^bits."""
    v, low = error_analysis._scramble_tables(words, bits)
    points = error_analysis._sobol_points(v, low, start, stop, error_analysis._Scratch())
    return np.stack([p.copy() for p in points], axis=1)


# repr of each estimate of diversity_slope_scan(2, 0.0, 7002), the rare_slope
# benchmark's first pass: five points of 16 Sobol replicates, 10 + 6 per batch
SCAN_7002_ESTIMATES = (
    ("ErrorEstimate(p_hat=0.05000132538828204, trials=100000, "
     "ci_low=0.04999950395938726, ci_high=0.05000314681717682, "
     "errors_observed=100000, estimator='is')"),
    ("ErrorEstimate(p_hat=0.005860316865538813, trials=100000, "
     "ci_low=0.005860137750924363, ci_high=0.0058604959801532635, "
     "errors_observed=100000, estimator='is')"),
    ("ErrorEstimate(p_hat=0.0006166512561700894, trials=100000, "
     "ci_low=0.0006166334376050994, ci_high=0.0006166690747350795, "
     "errors_observed=100000, estimator='is')"),
    ("ErrorEstimate(p_hat=6.26709408274362e-05, trials=100000, "
     "ci_low=6.26691443031248e-05, ci_high=6.267273735174761e-05, "
     "errors_observed=100000, estimator='is')"),
    ("ErrorEstimate(p_hat=6.299224923825947e-06, trials=100000, "
     "ci_low=6.299075443527791e-06, ci_high=6.299374404124104e-06, "
     "errors_observed=100000, estimator='is')"),
)


def _relative_entropy_interval(mean, n):
    """Every mu with n KL(mean || mu) <= ln 40, KL the Bernoulli relative
    entropy, by scipy's root finder."""
    def excess(mu):
        return n * (special.rel_entr(mean, mu) + special.rel_entr(1 - mean, 1 - mu)) - math.log(40)

    low = (optimize.brentq(excess, 1e-300, mean, xtol=1e-300, rtol=1e-15)
           if mean > 0 and excess(1e-300) > 0 else 0.0)
    high = (optimize.brentq(excess, mean, 1 - 1e-16, xtol=1e-300, rtol=1e-15)
            if mean < 1 and excess(1 - 1e-16) > 0 else 1.0)
    return low, high


class TestSobolReplicates:
    """Scrambled Sobol points for the importance sampler at 2 <= l <= 8."""

    def test_unscrambled_points_match_scipy(self):
        engine = stats.qmc.Sobol(7, scramble=False, bits=32)
        assert np.array_equal(error_analysis._SOBOL_V, engine._sv)
        reference = (engine.random(1 << 10) * 2.0**32).astype(np.uint32).T
        zeros = np.zeros((1, 7, 34), np.uint32)
        assert np.array_equal(_sobol(zeros, 0, 1 << 10)[0], reference)
        # any window: a start within a 256-point block and an odd block
        assert np.array_equal(_sobol(zeros, 300, 1000)[0], reference[:, 300:1000])

    # bits 13 and 17: the truncated tables of grid_fanout's 131072-trial and
    # mc_sweep's 2e6-trial points
    @pytest.mark.parametrize("bits", [13, 17, 32])
    @pytest.mark.parametrize("start, stop", [(0, 1024), (700, 1500), (255, 257)])
    def test_scrambled_points_match_a_digit_by_digit_reference(self, start, stop, bits):
        words = np.random.default_rng(start).integers(0, 2**32, (3, 7, 34), dtype=np.uint32)
        got = _sobol(words, start, stop, bits)
        for r in range(3):
            assert np.array_equal(got[r], _scrambled_reference(words[r], stop)[:, start:])

    def test_scrambled_points_stay_a_net(self):
        # 2^10 points: each dimension alone, and dimensions 1 and 2 together,
        # put one point in each of the 2^10 boxes of every shape (a (0, 10,
        # 1)- and (0, 10, 2)-net), as the unscrambled points do
        words = np.random.default_rng(1).integers(0, 2**32, (1, 7, 34), dtype=np.uint32)
        x = _sobol(words, 0, 1 << 10)[0].astype(np.int64)
        for d in range(7):
            assert sorted(x[d] >> 22) == list(range(1 << 10))
        for a in range(11):
            boxes = (x[0] >> (32 - a)) << (10 - a) | x[1] >> (22 + a)
            assert len(set(boxes.tolist())) == 1 << 10

    @pytest.mark.parametrize("trials, sizes", [(1, [1]), (2, [1, 1]), (17, [2] + [1] * 15),
                                               (10**5, [6250] * 16),
                                               (1_100_003, [68751] * 3 + [68750] * 13)])
    def test_layout_holds_every_trial_once(self, trials, sizes):
        layout = error_analysis._replicate_layout(trials)
        held = {}
        for _, (r0, start, counts) in layout:
            assert sum(counts) <= _BATCH
            for r, n in enumerate(counts, r0):
                assert held.get(r, 0) == start
                held[r] = start + n
        assert [held[r] for r in range(len(held))] == sizes
        # batches of whole replicates draw their scrambles from their own
        # streams, and the slices of a replicate from the first one's
        first = {}
        for i, (_, (r0, _, _)) in enumerate(layout):
            first.setdefault(r0, i)
        assert [b for b, _ in layout] == [first[r0] for _, (r0, _, _) in layout]

    @pytest.mark.parametrize("trials", [1, 16, 17, 4096, 4097, 10**5, 1_100_003])
    def test_scramble_tables_cover_the_longest_replicate(self, trials):
        # the tables hold the direction numbers of the points below 2^bits,
        # bits sized by the longest replicate, ceil(trials / R) points, and
        # every batch draws points below that
        config = _is_config(3, 0.3, trials=trials)
        batches = error_analysis._plan(config, RAYLEIGH_1)[2]
        longest = -(-trials // min(16, trials))
        bits = batches[0][6][0][0].shape[-1]
        assert bits == max(8, (longest - 1).bit_length())
        assert all(start + max(sizes) <= 2**bits for *_, (_, _, start, sizes) in batches)

    def test_slope_scan_is_pinned(self):
        scan = diversity_slope_scan(2, 0.0, 7002)
        assert [repr(e) for e in scan.estimates] == list(SCAN_7002_ESTIMATES)
        assert repr(scan.slope) == '1.954048737097021'

    def test_scramble_state_is_built_once_per_point(self, monkeypatch, capsys):
        # the scramble tables of a point are built once, in its plan and
        # before any of its batches runs, from one draw of each of its
        # scramble streams, and every batch of the point carries those same
        # tables, however many batches share them and on however many threads
        built, streams, events, carried = [], [], [], {}
        planning = {}  # thread id -> the point that thread is planning
        tables, generator = error_analysis._scramble_tables, error_analysis._weigh_generator
        plan, kernel = error_analysis._plan, error_analysis._weigh_batch

        def counted_tables(words, bits):
            built.append(words.shape)
            events.append(("built", planning.get(threading.get_ident())))
            return tables(words, bits)

        def counted_generator(seed, key):
            streams.append(key)
            return generator(seed, key)

        def traced_plan(config, model):
            planning[threading.get_ident()] = config.point
            try:
                return plan(config, model)
            finally:
                del planning[threading.get_ident()]

        def traced_kernel(args, scratch=None):
            point = args[1][1]
            events.append(("batch", point))
            carried.setdefault(point, []).append(args[6][0])
            return kernel(args, scratch)

        def check(points, batches):
            # one build per point, in its plan, before the point's first batch
            assert [e for e in events if e[0] == "built"] == [("built", i) for i in range(points)]
            for i in range(points):
                assert events.index(("built", i)) < events.index(("batch", i))
            # every batch of a point holds that build's v and low
            assert sorted(carried) == list(range(points))
            for held in carried.values():
                assert len(held) == batches
                assert all(v is held[0][0] and low is held[0][1] for v, low in held)

        monkeypatch.setattr(error_analysis, "_scramble_tables", counted_tables)
        monkeypatch.setattr(error_analysis, "_weigh_generator", counted_generator)
        monkeypatch.setattr(error_analysis, "_plan", traced_plan)
        monkeypatch.setattr(error_analysis, "_weigh_batch", traced_kernel)
        # 3 points x 17 batches: replicate 0 takes batches 0 and 1, both
        # scrambled from stream 0, and replicate r >= 1 batch r + 1
        assert main(["simulate", "--l", "3", "--trials", "1048577", "--seed", "0",
                     "--snr-db-max", "10", "--snr-db-step", "5", "--workers", "2"]) == 0
        assert built == [(16, 2, 34)] * 3
        assert sorted(streams) == [(b, i) for b in (0, *range(2, 17)) for i in range(3)]
        check(3, 17)
        # 5 points x 2 batches of 10 and 6 whole replicates
        del built[:], streams[:], events[:]
        carried.clear()
        diversity_slope_scan(2, 0.0, 7002, workers=2)
        assert built == [(16, 1, 34)] * 5
        assert sorted(streams) == [(b, i) for b in (0, 1) for i in range(5)]
        check(5, 2)

    def test_t_quantiles(self):
        assert error_analysis._T975 == pytest.approx(stats.t.ppf(0.975, range(1, 16)), rel=5e-6)

    def test_replicate_interval(self):
        # replicate means 0.2 and 0.4 of 3 trials: p = scale * sum / trials,
        # interval p +- t_1 scale sd / sqrt(2); every trial is a hit
        est = ErrorEstimate.from_replicates(1.0, [0.2, 0.4], 3, scale=0.5)
        half = 12.7062 * 0.5 * np.std([0.2, 0.4], ddof=1) / math.sqrt(2)
        assert (est.p_hat, est.ci_low, est.errors_observed) == (0.5 / 3, 0.0, 3)
        assert est.ci_high == pytest.approx(0.5 / 3 + half, rel=1e-12)
        one = ErrorEstimate.from_replicates(0.5, [0.5], 1, scale=0.4)
        assert (one.p_hat, one.ci_low, one.ci_high) == (0.2, 0.0, 0.4)
        none = ErrorEstimate.from_replicates(0.0, [0.0] * 16, 100, scale=3.0)
        assert (none.p_hat, none.ci_low, none.ci_high) == (0.0, 0.0, 1.0)
        three = ErrorEstimate.from_replicates(3.0, [0.4, 0.5, 0.6], 6)
        half = 4.30265 * 0.1 / math.sqrt(3)
        assert three.ci_low == pytest.approx(0.5 - half, rel=1e-12)
        assert three.ci_high == pytest.approx(0.5 + half, rel=1e-12)
        # one weight per replicate: scale times the bounded-mean interval of
        # the mean weight
        single = ErrorEstimate.from_replicates(0.3, [0.1, 0.2], 2, scale=0.5)
        low, high = _relative_entropy_interval(0.15, 2)
        assert single.p_hat == 0.075
        assert single.ci_low == pytest.approx(0.5 * low, rel=1e-12)
        assert single.ci_high == pytest.approx(0.5 * high, rel=1e-12)

    @pytest.mark.parametrize("mean, n", [(0.15, 2), (0.1, 16), (0.5, 5), (0.999, 3), (1e-9, 16),
                                         (0.3, 15), (0.0, 3), (1.0, 3)])
    def test_bounded_mean_interval_matches_a_root_finder(self, mean, n):
        low, high = error_analysis._bounded_mean_interval(mean, n)
        ref_low, ref_high = _relative_entropy_interval(mean, n)
        assert low <= mean <= high
        assert low == pytest.approx(ref_low, rel=1e-12, abs=1e-300)
        assert high == pytest.approx(ref_high, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_bounded_mean_interval_covers_skewed_laws(self, n):
        # 2000 samples each of a Bernoulli and two skewed Beta laws on
        # [0, 1]: Hoeffding's bound holds at any n, whatever the law
        rng = np.random.default_rng(n)
        for draw, mu in ((lambda: rng.random((2000, n)) < 0.1, 0.1),
                         (lambda: rng.beta(0.2, 2.0, (2000, n)), 0.2 / 2.2),
                         (lambda: rng.beta(3.0, 0.3, (2000, n)), 3.0 / 3.3)):
            means = draw().mean(axis=1)
            covered = 0
            for m in means:
                low, high = error_analysis._bounded_mean_interval(float(m), n)
                covered += low <= mu <= high
            assert covered >= 0.95 * len(means)

    @pytest.mark.parametrize("trials", [1, 2, 15, 16, 17])
    def test_replicate_interval_at_few_trials(self, trials):
        # min(16, trials) replicates, and the t interval on their means, or
        # the bounded-mean interval where each replicate is one point; one
        # trial has no variance estimate
        l, t = 3, 0.5
        config = _is_config(l, t, seed=3, trials=trials)
        est = monte_carlo_p_err(config, RAYLEIGH_1)
        _, kernel, batches = error_analysis._plan(config, RAYLEIGH_1)
        results = [kernel(args) for args in batches]
        means = error_analysis._replicate_means(batches, results)
        assert len(means) == min(16, trials)
        scale = math.exp(error_analysis._proposal(t, l)[3])
        p = scale * sum(r[1] for r in results) / trials
        assert est.p_hat == pytest.approx(p, rel=1e-15)
        assert est.errors_observed == trials
        if trials == 1:
            assert (est.ci_low, est.ci_high) == (0.0, scale)
        elif trials <= 16:
            low, high = _relative_entropy_interval(p / scale, trials)
            assert est.ci_low == pytest.approx(scale * low, rel=1e-9)
            assert est.ci_high == pytest.approx(scale * high, rel=1e-9)
        else:
            half = (stats.t.ppf(0.975, len(means) - 1) * scale * np.std(means, ddof=1)
                    / math.sqrt(len(means)))
            assert est.ci_high - est.p_hat == pytest.approx(half, rel=1e-5)
            assert est.ci_low == pytest.approx(max(p - half, 0.0), rel=1e-5)
        assert est.covers(analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=t))

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("trials", [1, 16, 17, 10**5])
    def test_every_sobol_point_is_a_hit_weighing_at_most_one(self, monkeypatch, l, trials):
        # each Sobol point is mapped into the hit region, so every trial is a
        # hit, and its weight v (the kernel leaves a batch's in its "gamma"
        # array) is a product of chances and density ratios, so in [0, 1]
        weights = []
        kernel = error_analysis._weigh_batch

        def recorded(args, scratch=None):
            scratch = scratch or error_analysis._Scratch()
            result = kernel(args, scratch)
            sizes = args[6][3]
            v = scratch.array("gamma", (len(sizes), max(sizes)))
            weights.extend(v[r, :n].copy() for r, n in enumerate(sizes))
            return result

        monkeypatch.setattr(error_analysis, "_weigh_batch", recorded)
        t = 0.5 * l
        est = monte_carlo_p_err(_is_config(l, t, seed=25, trials=trials), RAYLEIGH_1)
        v = np.concatenate(weights)
        assert v.size == trials == est.errors_observed
        assert np.all((0.0 <= v) & (v <= 1.0))
        scale = math.exp(error_analysis._proposal(t, l)[3])
        assert est.p_hat == pytest.approx(scale * v.sum() / trials, rel=1e-12)
        assert est.covers(gamma_p(l, t))

    # a point whose batches pack several whole replicates (10 + 6), and one
    # whose replicates are longer than a batch, each laid out as two slices
    @pytest.mark.parametrize("l, trials, batches", [(2, 10**5, 2), (3, 1_100_003, 32)])
    def test_estimate_identical_at_any_worker_count(self, l, trials, batches):
        config = _is_config(l, 0.05 * l, seed=12, trials=trials)
        assert len(error_analysis._plan(config, RAYLEIGH_1)[2]) == batches
        serial = monte_carlo_p_err(config, RAYLEIGH_1)
        for workers in (1, 2, 4):
            assert monte_carlo_p_err(config, RAYLEIGH_1, workers=workers) == serial
            with error_analysis.worker_pool(workers, [config], RAYLEIGH_1) as pool:
                assert monte_carlo_p_err(config, RAYLEIGH_1, pool=pool) == serial
        p = analytic_event_probability(RAYLEIGH_1, "threshold", l, threshold=0.05 * l)
        assert serial.covers(p) and _rel_half_width(serial) < 1e-4


class TestAnalyticEventProbability:
    def test_threshold_event_matches_outage_cdf(self):
        model = TransmittanceModel.rayleigh(2.0)
        p = analytic_event_probability(model, "threshold", 3, threshold=0.5)
        assert p == pytest.approx(outage_cdf(0.25, 3, "exact"), rel=1e-12)

    def test_rate_event_exponential_form(self):
        model = TransmittanceModel.rayleigh(1.0)
        p = analytic_event_probability(model, "rate", 1, snr=10.0, rate_bits=1.0)
        assert p == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)

    def test_fixed_model_indicator(self):
        model = TransmittanceModel.fixed((0.5, 0.5))
        assert analytic_event_probability(model, "threshold", 2, threshold=0.6) == 1.0
        assert analytic_event_probability(model, "threshold", 2, threshold=0.4) == 0.0

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    @pytest.mark.parametrize("values", [(1e200,), (1e200, 1e200)])
    def test_gain_whose_square_overflows_is_never_an_error(self, estimator, values):
        # |v|^2 rounds to inf rather than raising, so the event is decided
        model = TransmittanceModel.fixed(values)
        config = MonteCarloConfig(l=len(values), trials=1000, seed=0, snr=10.0,
                                  estimator=estimator)
        assert monte_carlo_p_err(config, model).p_hat == 0.0
        assert analytic_event_probability(model, "threshold", len(values), snr=10.0) == 0.0

    def test_fixed_length_mismatch_rejected(self):
        # the one deterministic-gain handler serves both the oracle and the estimate
        model = TransmittanceModel.fixed((1.0,))
        with pytest.raises(ConfigError):
            analytic_event_probability(model, "threshold", 2, threshold=0.5)
        with pytest.raises(ConfigError):
            monte_carlo_p_err(MonteCarloConfig(l=2, trials=10, seed=0, threshold=0.5), model)


class TestFitDiversitySlope:
    def test_exact_power_law(self):
        snrs = np.logspace(1, 4, 7)
        pts = [(s, s**-2.0) for s in snrs]
        assert abs(fit_diversity_slope(pts) - 2.0) <= 1e-10

    def test_reduced_exponent_curve(self):
        snrs = np.logspace(2, 4, 9)
        pts = [(s, p_err_single_analytic(s, 0.6)) for s in snrs]
        assert abs(fit_diversity_slope(pts) - 0.4) <= 1e-10

    def test_constant_curve_has_zero_slope(self):
        pts = [(10.0, 0.5), (100.0, 0.5), (1000.0, 0.5)]
        assert abs(fit_diversity_slope(pts)) <= 1e-12

    def test_zero_probability_points_excluded(self):
        snrs = np.logspace(1, 3, 5)
        pts = [(s, s**-1.0) for s in snrs]
        pts[2] = (pts[2][0], 0.0)
        assert abs(fit_diversity_slope(pts) - 1.0) <= 1e-10

    def test_too_few_usable_points_is_an_estimation_error(self):
        with pytest.raises(EstimationError):
            fit_diversity_slope([(10.0, 0.0), (100.0, 0.0), (1000.0, 0.1)])

    def test_unsorted_snr_rejected(self):
        with pytest.raises(ConfigError):
            fit_diversity_slope([(10.0, 0.1), (5.0, 0.2), (100.0, 0.05)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            fit_diversity_slope([(10.0, 0.1), (100.0, 0.01)])

    @pytest.mark.parametrize("points", [
        [(0.0, 0.1), (1.0, 0.05), (2.0, 0.01)],
        [(-1.0, 0.1), (1.0, 0.05), (2.0, 0.01)],
        [(1.0, 0.1), (2.0, 0.05), (math.inf, 0.01)],
        [(math.nan, 0.1), (1.0, 0.05), (2.0, 0.01)],
        [(1.0, math.inf), (2.0, 0.05), (3.0, 0.01)],
        [(1.0, math.nan), (2.0, 0.05), (3.0, 0.01)],
        [(1.0, -0.1), (2.0, 0.05), (3.0, 0.01)],
    ])
    def test_nonpositive_or_nonfinite_points_rejected(self, points):
        with pytest.raises(ConfigError):
            fit_diversity_slope(points)


class TestDiversitySlopeScan:
    # the zeta = 0 sweeps run in the acceptance suite; here the reduced
    # allocation zeta = 0.5 checks the l*(1-zeta) law cheaply
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_slope_tracks_reduced_diversity_order(self, l):
        res = diversity_slope_scan(
            l, 0.5, seed=8100 + l, anchor_probability=0.05, target_errors=400
        )
        expected = l * 0.5
        assert 0.9 * expected <= res.slope <= 1.1 * expected

    def test_thresholds_follow_the_schedule(self):
        res = diversity_slope_scan(2, 0.25, seed=1, target_errors=1)
        ratios = np.asarray(res.thresholds) / res.thresholds[0]
        expected = (np.asarray(res.snr) / res.snr[0]) ** (-0.75)
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_points_are_importance_sampled_on_the_trial_floor(self, monkeypatch):
        # the scan calls the module's monte_carlo_p_err at call time, so a
        # wrapper of that name sees every point
        calls = []
        inner = error_analysis.monte_carlo_p_err

        def logged(config, model, **kwargs):
            calls.append(config)
            return inner(config, model, **kwargs)

        monkeypatch.setattr(error_analysis, "monte_carlo_p_err", logged)
        res = diversity_slope_scan(3, 0.0, seed=5, target_errors=400)
        assert [c.estimator for c in calls] == ["is"] * 5
        assert [e.trials for e in res.estimates] == [100000] * 5
        # 10**6 expected hits at a hit rate above one half need under 2e6 draws
        res = diversity_slope_scan(3, 0.0, seed=5, target_errors=10**6, num_points=3)
        assert all(10**6 < e.trials < 2 * 10**6 for e in res.estimates)

    def test_threshold_below_the_float_range_is_no_error(self):
        # the last threshold, 1e-330, underflows to 0: its trial budget is
        # still the floor, and its event never holds
        res = diversity_slope_scan(1, 0.0, seed=0, anchor_probability=1e-300, snr_min=1.0,
                                   snr_max=1e30)
        assert res.thresholds[-1] == 0.0
        assert [e.trials for e in res.estimates] == [SCAN_MIN_TRIALS] * 5
        assert res.estimates[-1] == ErrorEstimate(0.0, SCAN_MIN_TRIALS, 0.0, 0.0, 0, "is")

    def test_invalid_scan_parameters_rejected(self):
        with pytest.raises(ConfigError):
            diversity_slope_scan(1, 0.0, seed=0, num_points=2)
        with pytest.raises(ConfigError):
            diversity_slope_scan(1, 0.0, seed=0, anchor_probability=1.5)
        with pytest.raises(ConfigError):
            diversity_slope_scan(1, 0.0, seed=0, snr_min=100.0, snr_max=10.0)

    @pytest.mark.parametrize("l, kwargs", [
        (0, {}),
        (-1, {}),
        (MAX_L + 1, {}),
        (2, {"snr_max": math.inf}),
        (2, {"snr_min": math.nan}),
        (2, {"snr_min": 1e-300, "snr_max": 1e15}),  # the ratio overflows
        # a finite ratio, but that of logspace's rounded ends overflows
        (2, {"snr_min": 1e-10, "snr_max": 1.7976931348623155e298}),
        (2, {"target_errors": 0}),
        (2, {"anchor_probability": math.nan}),
        (2, {"num_points": MAX_GRID_POINTS + 1}),
        (2, {"seed": -1}),
        (2, {"seed": 2**64}),
        (2, {"workers": 0}),
    ])
    def test_bad_input_is_a_config_error_before_any_evaluation(self, monkeypatch, l, kwargs):
        def evaluated(*args, **kw):
            raise AssertionError("evaluated before the inputs were checked")

        for name in ("gamma_p", "gamma_p_inv", "monte_carlo_p_err"):
            monkeypatch.setattr(error_analysis, name, evaluated)
        with pytest.raises(ConfigError):
            diversity_slope_scan(l, 0.0, **dict({"seed": 0}, **kwargs))


class TestStreamKeys:
    @pytest.fixture
    def stream_keys(self, monkeypatch):
        """The SeedSequence (entropy, spawn_key) of every stream a batch draws
        from, in draw order, whatever bit generator draws from it."""
        keys = []

        class Recorded(RngStream):
            def seed_sequence(self):
                ss = super().seed_sequence()
                keys.append((ss.entropy, ss.spawn_key))
                return ss

        monkeypatch.setattr(error_analysis, "RngStream", Recorded)
        return keys

    def _streams(self, keys, run) -> list:
        del keys[:]
        run()
        return list(keys)

    def test_adjacent_seeds_share_no_point_stream(self, stream_keys):
        # keyed by seed + i, point 1 of seed s would draw the streams of
        # point 0 of seed s + 1
        def sweep(seed):
            run_monte_carlo(ExperimentConfig(l=(2,), zeta=0.0, snr_db_max=4.0,
                                             trials=_BATCH + 1, seed=seed))

        def scan(seed):
            # the SCAN_MIN_TRIALS floor takes 2 batches
            diversity_slope_scan(1, 0.0, seed=seed, num_points=3, target_errors=1)

        for run in (sweep, scan):
            streams = [self._streams(stream_keys, lambda: run(seed)) for seed in (40, 41)]
            assert all(len(s) == len(set(s)) == 6 for s in streams)  # 3 points x 2 batches
            assert not set(streams[0]) & set(streams[1])

    def test_direct_estimates_keep_the_batch_keyed_streams(self, stream_keys):
        expected = [(7, (b,)) for b in (0, 1)]
        for estimator in ("crude", "is"):
            config = MonteCarloConfig(l=2, trials=2 * _BATCH, seed=7, threshold=0.3,
                                      estimator=estimator)
            assert self._streams(stream_keys,
                                 lambda: monte_carlo_p_err(config, RAYLEIGH_1)) == expected

    def test_crude_draws_philox_and_is_draws_pcg64dxsm_from_one_key(self, stream_keys,
                                                                    monkeypatch):
        made = []
        generator = np.random.Generator

        def recorded(bit_generator):
            made.append(type(bit_generator))
            return generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", recorded)
        args = (3, (1, 2), 1000, 2, 1.0, 0.5)
        # at l = 2 the importance sampler draws its Sobol scrambles when it
        # builds their tables, and its kernel then draws nothing
        for draw, bit_generator in (
                (lambda: _count_batch(args), np.random.Philox),
                (lambda: error_analysis._draw_scrambles(3, 1, 32, (((1, 2), 1),)),
                 np.random.PCG64DXSM)):
            del stream_keys[:], made[:]
            tables = draw()
            assert stream_keys == [(3, (1, 2))]
            assert made == [bit_generator]
        del stream_keys[:], made[:]
        error_analysis._weigh_batch(args + ((tables, 0, 0, (1000,)),))
        assert stream_keys == made == []
        ss = np.random.SeedSequence(3, spawn_key=(1, 2))
        assert np.array_equal(error_analysis._weigh_generator(3, (1, 2)).random(4),
                              generator(np.random.PCG64DXSM(ss)).random(4))

    def test_grid_point_keys_batch_then_point(self):
        a = RngStream(3, (1, 2)).generator().random(4)
        b = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(3, spawn_key=(1, 2)))).random(4)
        assert np.array_equal(a, b)
        assert np.array_equal(RngStream(3, (5,)).generator().random(4),
                              RngStream(3, 5).generator().random(4))
        with pytest.raises(ConfigError):
            RngStream(3, ())
        with pytest.raises(ConfigError):
            RngStream(3, (1, 2**64))
        with pytest.raises(ConfigError):
            MonteCarloConfig(l=1, trials=10, seed=0, threshold=0.1, point=-1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Helper-thread count of every pool opened, seen by a spy on the executor
    class amqd.error_analysis opens its pools with.  The calling thread is a
    pool's other runner, so a pool of n helpers maps batches on n + 1 threads."""
    sizes = []
    base = error_analysis.ThreadPoolExecutor

    class SpyPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(error_analysis, "ThreadPoolExecutor", SpyPool)
    return sizes


@pytest.fixture
def new_threads():
    """Threads alive now that were not alive when the test started."""
    before = set(threading.enumerate())
    return lambda: [t for t in threading.enumerate() if t not in before]


def _sweep(trials, workers):
    return ExperimentConfig(l=(2,), zeta=0.0, snr_db_min=6.0, snr_db_max=10.0,
                            trials=trials, seed=5, workers=workers)


class TestWorkerPool:
    def test_run_opens_one_pool_and_reaps_it(self, pool_sizes, new_threads):
        table = run_monte_carlo(_sweep(200000, 2))  # 3 points of 4 batches
        assert len(table.rows) == 3
        assert pool_sizes == [1]
        assert new_threads() == []
        assert table.rows == run_monte_carlo(_sweep(200000, 1)).rows

    def test_one_batch_points_open_no_pool(self, pool_sizes):
        run_monte_carlo(_sweep(65536, 4))
        assert pool_sizes == []

    def test_pool_has_at_most_one_worker_per_batch(self, pool_sizes, new_threads):
        config = MonteCarloConfig(l=2, trials=300000, seed=5, event="threshold", threshold=0.3)
        monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0), workers=16)  # 5 batches
        assert pool_sizes == [4]
        assert new_threads() == []

    def test_deterministic_model_opens_no_pool(self, pool_sizes):
        config = _sweep(300000, 2)
        config.model = TransmittanceModel.uniform_phase(0.5)
        run_monte_carlo(config)
        # on Rayleigh gains too, where the event is decided: 2^5000 leaves
        # the float range, so each point of 5 batches holds without drawing
        config = _sweep(300000, 2)
        config.l, config.event, config.rate_bits = (1,), "rate", 5000.0
        assert [row[1] for row in run_monte_carlo(config).rows] == [1.0, 1.0, 1.0]
        assert pool_sizes == []

    def test_each_point_is_planned_once_per_run(self, monkeypatch):
        # each point is planned once, by the first of the pool's stream and
        # monte_carlo_p_err to reach it, and the other reads that plan; the
        # pool's size is counted without planning
        planned = []
        plan = error_analysis._plan

        def counted(config, model):
            planned.append(config.point)
            return plan(config, model)

        monkeypatch.setattr(error_analysis, "_plan", counted)
        for workers in (1, 2):
            del planned[:]
            run_monte_carlo(_sweep(200000, workers))
            assert planned == [0, 1, 2]
        del planned[:]
        diversity_slope_scan(2, 0.0, 7002, workers=2)
        assert planned == [0, 1, 2, 3, 4]
        del planned[:]
        monte_carlo_p_err(_is_config(3, 0.3, trials=300000), RAYLEIGH_1, workers=2)
        assert planned == [None]

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    def test_pool_is_sized_by_the_batch_count_of_the_plan(self, estimator):
        for l in (1, 2, 3, 8, 9):
            for trials in (1, 2, 15, 16, 17, _BATCH, _BATCH + 1, 16 * _BATCH, 16 * _BATCH + 1,
                           1_100_003, 3_000_017):
                for threshold in (0.0, 0.3 * l):
                    config = MonteCarloConfig(l=l, trials=trials, seed=0, threshold=threshold,
                                              estimator=estimator)
                    assert (error_analysis._batch_count(config, RAYLEIGH_1)
                            == len(error_analysis._plan(config, RAYLEIGH_1)[2]))

    def test_slope_scan_opens_one_pool(self, pool_sizes, new_threads):
        res = diversity_slope_scan(1, 0.0, seed=3, target_errors=10, num_points=3, workers=2)
        assert pool_sizes == [1]
        assert new_threads() == []
        serial = diversity_slope_scan(1, 0.0, seed=3, target_errors=10, num_points=3, workers=1)
        assert res == serial

    @pytest.mark.parametrize("workers", [0, 65])
    def test_worker_count_outside_cap_rejected(self, workers, pool_sizes):
        config = MonteCarloConfig(l=1, trials=300000, seed=0, event="threshold", threshold=0.1)
        with pytest.raises(ConfigError):
            monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0), workers=workers)
        with pytest.raises(ConfigError):
            _sweep(300000, workers)
        assert pool_sizes == []

    def test_kernel_error_propagates_and_joins_the_pool(self, monkeypatch, pool_sizes,
                                                        new_threads):
        def failing(args, scratch=None):
            if args[1] == 1:
                raise FloatingPointError("batch 1")
            return 0

        monkeypatch.setattr(error_analysis, "_count_batch", failing)
        config = MonteCarloConfig(l=1, trials=300000, seed=0, event="threshold", threshold=0.1)
        with pytest.raises(FloatingPointError, match="batch 1"):
            monte_carlo_p_err(config, TransmittanceModel.rayleigh(1.0), workers=2)
        assert pool_sizes == [1]
        assert new_threads() == []

    def test_caller_collects_the_batches_a_stalled_helper_never_starts(self, monkeypatch):
        # the one helper thread is held (for at most 10 s, so a collect that
        # waits for it fails rather than hangs) before it can take a batch:
        # every batch must run on the calling thread, and collect must not
        # wait for the helper to come free
        release = threading.Event()
        ran_on = []
        base = error_analysis.ThreadPoolExecutor
        kernel = error_analysis._weigh_batch

        class Stalled(base):
            def submit(self, fn, *args, **kwargs):
                return super().submit(lambda: (release.wait(10.0), fn(*args, **kwargs)))

        def recorded(args, scratch=None):
            ran_on.append(threading.current_thread())
            return kernel(args, scratch)

        monkeypatch.setattr(error_analysis, "ThreadPoolExecutor", Stalled)
        monkeypatch.setattr(error_analysis, "_weigh_batch", recorded)
        configs = [_is_config(2, 0.5, seed=seed, trials=2 * _BATCH) for seed in (1, 2)]
        serial = [monte_carlo_p_err(c, RAYLEIGH_1) for c in configs]
        del ran_on[:]
        with error_analysis.worker_pool(2, configs, RAYLEIGH_1) as pool:
            try:
                assert [monte_carlo_p_err(c, RAYLEIGH_1, pool=pool) for c in configs] == serial
            finally:
                release.set()
        assert ran_on == [threading.current_thread()] * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_collects_only_the_points_it_streams(self, workers):
        # a pool runs the batches of the points it was opened over, in order:
        # a point it does not stream, or one it has handed out already, is an
        # error, never another point's results
        first, second = (_is_config(1, 0.5, seed=seed, trials=2 * _BATCH) for seed in (1, 2))
        with error_analysis.worker_pool(workers, [first], RAYLEIGH_1) as pool:
            with pytest.raises(RuntimeError, match="ran"):
                monte_carlo_p_err(second, RAYLEIGH_1, pool=pool)
        with error_analysis.worker_pool(workers, [first], RAYLEIGH_1) as pool:
            monte_carlo_p_err(first, RAYLEIGH_1, pool=pool)
            with pytest.raises(RuntimeError, match="no batch left"):
                monte_carlo_p_err(first, RAYLEIGH_1, pool=pool)

    def test_an_estimate_without_a_pool_is_one_call(self, monkeypatch):
        # a wrapper of monte_carlo_p_err (a tracer, say) sees each estimate
        # once, also where the call opens a pool of its own
        calls = []
        inner = error_analysis.monte_carlo_p_err

        def counted(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(error_analysis, "monte_carlo_p_err", counted)
        config = _is_config(2, 0.5, trials=2 * _BATCH)
        error_analysis.monte_carlo_p_err(config, RAYLEIGH_1, workers=2)
        assert calls == [config]

    def test_collect_after_the_pool_closes_raises(self):
        # leaving worker_pool stops its stream, so at most _LOOKAHEAD batches
        # per thread of a point not yet collected have run, and no thread
        # starts the rest: collecting it raises rather than waits.  It runs
        # on a thread, so a wait fails the test (after 10 s) instead of
        # hanging it
        config = MonteCarloConfig(l=1, trials=6 * _BATCH, seed=0, threshold=0.1)
        with error_analysis.worker_pool(2, [config], RAYLEIGH_1) as pool:
            pass
        outcome = []

        def collect():
            try:
                monte_carlo_p_err(config, RAYLEIGH_1, pool=pool)
            except RuntimeError as exc:
                outcome.append(str(exc))

        run = threading.Thread(target=collect, daemon=True)
        run.start()
        run.join(10.0)
        assert outcome == ["the pool's stream has no batch left to collect"]

    def test_scratch_reuse_keeps_kernels_bitwise(self):
        # one scratch lent to batches of different sizes and dimensions
        scratch = error_analysis._Scratch()
        for m, l in ((1234, 3), (_BATCH, 3), (5000, 10), (_BATCH, 1), (_BATCH, 2), (3000, 4),
                     (_BATCH, 5), (34375, 3)):
            # l <= 8 weighs the Sobol replicates of an m-trial point, or (the
            # last case) the second slice of a 68751-point replicate
            replicates = None
            if l <= 8:
                layout = error_analysis._replicate_layout(16 * 68751 if m == 34375 else m)
                replicates = ((error_analysis._draw_scrambles(4, max(l - 1, 1), 32, ((7, 16),)),)
                              + layout[1 if m == 34375 else 0][1])
            for kernel, extra in ((_count_batch, ()), (error_analysis._weigh_batch, (replicates,))):
                args = (4, 7, m, l, 0.9, 0.5 * l) + extra
                assert kernel(args, scratch) == kernel(args)

    @pytest.mark.parametrize("estimator", ["crude", "is"])
    # the importance sampler draws the l - 1 other gains as the 1 and 7
    # coordinates of Sobol points at l = 2 and 8, and with standard_gamma from
    # l = 9; a threshold of 3 l leaves its proposal untilted
    @pytest.mark.parametrize("l", [1, 2, 3, 8, 9, 10])
    def test_estimates_identical_at_any_worker_count(self, estimator, l):
        for threshold in (float(gammaincinv(l, 0.01)), 3.0 * l):
            # 4 full batches and a partial one
            config = MonteCarloConfig(l=l, trials=4 * _BATCH + 1234, seed=11, event="threshold",
                                      threshold=threshold, estimator=estimator)
            serial = monte_carlo_p_err(config, RAYLEIGH_1)
            for workers in (1, 2, 16):
                assert monte_carlo_p_err(config, RAYLEIGH_1, workers=workers) == serial
                with error_analysis.worker_pool(workers, [config], RAYLEIGH_1) as pool:
                    assert monte_carlo_p_err(config, RAYLEIGH_1, pool=pool) == serial


def _grid(points, trials, workers):
    return ExperimentConfig(l=(1,), zeta=0.0, trials=trials, seed=8, workers=workers,
                            snr_db_max=0.5 * (points - 1), snr_db_step=0.5)


def _point_and_batch(args):
    b, point = args[1]
    return point, b


class TestLookAhead:
    """A grid run's pool runs the batches of its later points while one is
    collected."""

    @pytest.fixture
    def returns(self, monkeypatch):
        """("return", point) logged as each monte_carlo_p_err of a grid run returns."""
        log = []
        inner = error_analysis.monte_carlo_p_err

        def logged(config, model, **kwargs):
            est = inner(config, model, **kwargs)
            log.append(("return", config.point))
            return est

        monkeypatch.setattr(error_analysis, "monte_carlo_p_err", logged)
        return log

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every BatchPool opened."""
        seen = []
        inner = error_analysis.BatchPool.__init__

        def init(self, *args):
            seen.append(self)
            inner(self, *args)

        monkeypatch.setattr(error_analysis.BatchPool, "__init__", init)
        return seen

    def test_next_point_starts_before_a_point_returns(self, monkeypatch, returns, new_threads):
        config = _grid(3, _BATCH + 5000, 2)  # 3 points of 2 batches
        serial = run_monte_carlo(_grid(3, _BATCH + 5000, 1)).rows
        del returns[:]
        log, lock = returns, threading.Lock()
        started = threading.Event()
        kernel = error_analysis._weigh_batch

        def recorded(args, scratch=None):
            point, b = _point_and_batch(args)
            with lock:
                log.append(("start", point))
            if point == 1:
                started.set()
            if (point, b) == (0, 1):
                # hold point 0 open (for at most 10 s) until point 1 has started
                started.wait(10.0)
            return kernel(args, scratch)

        monkeypatch.setattr(error_analysis, "_weigh_batch", recorded)
        assert run_monte_carlo(config).rows == serial
        assert log.index(("start", 1)) < log.index(("return", 0))
        assert [e for e in log if e[0] == "return"] == [("return", i) for i in range(3)]
        assert sorted(e for e in log if e[0] == "start") == [("start", i) for i in range(3)
                                                             for _ in range(2)]
        assert new_threads() == []

    def test_failing_batch_of_a_queued_point_stops_the_run(self, monkeypatch, pools, pool_sizes,
                                                           new_threads):
        # batch 0 of point 1 fails while point 0 is still being collected:
        # batch 1 of point 0 is held (for at most 10 s) until the pool has
        # recorded the failure, so only the thread that ran the failing batch
        # is free to start another one, and it must not
        starts, lock = [], threading.Lock()
        kernel = error_analysis._weigh_batch

        def failing(args, scratch=None):
            point, b = _point_and_batch(args)
            with lock:
                starts.append((point, b))
            if (point, b) == (1, 0):
                raise FloatingPointError("point 1, batch 0")
            if (point, b) == (0, 1):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    with pools[0]._cond:
                        if pools[0]._error is not None:
                            break
                    time.sleep(0.001)
            return kernel(args, scratch)

        monkeypatch.setattr(error_analysis, "_weigh_batch", failing)
        with pytest.raises(FloatingPointError, match="point 1, batch 0"):
            run_monte_carlo(_grid(6, _BATCH + 5000, 2))
        assert sorted(starts) == [(0, 0), (0, 1), (1, 0)]
        assert pool_sizes == [1]
        assert new_threads() == []

    @pytest.mark.parametrize("trials", [_BATCH + 1, 5 * _BATCH])
    def test_lookahead_is_bounded_on_a_long_grid(self, monkeypatch, pools, trials):
        # the batches started and not yet collected are at most _LOOKAHEAD
        # per thread, whatever the grid length.  The first batch is held (for
        # at most 10 s) until the other thread has filled that window, so
        # the window is reached; every batch start records what the pool holds
        held = []
        window = error_analysis._LOOKAHEAD * 2

        def holding():
            with pools[0]._cond:
                return pools[0]._started - pools[0]._collected

        def stub(args, scratch=None):
            held.append(holding())
            if _point_and_batch(args) == (0, 0):
                deadline = time.monotonic() + 10.0
                while holding() < window and time.monotonic() < deadline:
                    time.sleep(0.001)
                held.append(holding())
            # one sum per replicate of the batch
            return 1, 0.5, 0.25, (0.5,) * len(args[6][3])

        monkeypatch.setattr(error_analysis, "_weigh_batch", stub)
        rows = run_monte_carlo(_grid(400, trials, 2)).rows
        assert len(rows) == 400
        per_point = -(-trials // _BATCH)
        # the pool filled its window and never went beyond it, and the window
        # is far below the grid's 400 points
        assert max(held) == window < 400 * per_point

    def test_many_threads_with_fast_switching_keep_every_estimate(self):
        # more helpers than cores, and the interpreter switching threads every
        # microsecond: a lost or misplaced batch result would change a row
        serial = run_monte_carlo(_grid(40, 3 * _BATCH + 7, 1)).rows
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(
                target=lambda: outcome.append(run_monte_carlo(_grid(40, 3 * _BATCH + 7, 8)).rows))
            run.start()
            run.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert outcome == [serial]
