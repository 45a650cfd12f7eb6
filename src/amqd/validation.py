"""Self-check suites: every module invariant exercised in one run.

Statistical checks use 4.5-sigma bands so a clean build passes for any seed;
the tighter coverage measurements live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    RateAllocation,
    SubchannelSet,
    apply_channel,
    end_to_end_roundtrip,
    secret_key_rate,
    worst_case_set,
)
from .config import ExperimentConfig
from .diversity import (
    Constellation,
    build_permutation_constellation,
    product_distance,
    product_distance_bound,
)
from .error_analysis import (
    MonteCarloConfig,
    analytic_event_probability,
    chi2_density,
    monte_carlo_p_err,
    outage_cdf,
    p_err_amqd_analytic,
    p_err_single_analytic,
)
from .sampling import ComplexGaussianSpec, RngStream, TransmittanceModel, sample_modulation_block
from .transform import ModulatedVector, unitary_dft, unitary_idft


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


def _check_transform_unitarity(report):
    worst_round = 0.0
    worst_parseval = 0.0
    for n in (1, 2, 3, 8, 64, 257, 1024, 4096):
        g = RngStream(1299709, n).generator()
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        fv = unitary_dft(v)
        worst_round = max(worst_round, float(np.max(np.abs(unitary_idft(fv) - v))))
        e_in = float(np.sum(np.abs(v) ** 2))
        worst_parseval = max(worst_parseval, abs(float(np.sum(np.abs(fv) ** 2)) - e_in) / e_in)
    ok = worst_round <= 1e-12 and worst_parseval <= 1e-12
    report.add(
        "transform_unitarity", ok,
        "max roundtrip err %.3g, max Parseval rel err %.3g (gate 1e-12)"
        % (worst_round, worst_parseval),
    )


def _check_transform_distribution(report):
    sigma2 = 2.0
    count, n = 100, 1000
    block = sample_modulation_block(ComplexGaussianSpec.iid(n, sigma2), RngStream(524287, 0), count)
    out = unitary_dft(block)
    n_samples = out.size
    mean_energy = float(np.mean(np.abs(out) ** 2))
    band = 4.5 * sigma2 / math.sqrt(n_samples)
    cross = float(np.mean(out.real * out.imag))
    cross_band = 4.5 * (sigma2 / 2.0) / math.sqrt(n_samples)
    ok = abs(mean_energy - sigma2) <= band and abs(cross) <= cross_band
    report.add(
        "transform_distribution", ok,
        "transformed E|entry|^2 = %.4f (expect %.1f +- %.4f), cross moment %.2e"
        % (mean_energy, sigma2, band, cross),
    )


def _check_transform_linearity(report):
    g = RngStream(8191, 0).generator()
    n = 128
    u = g.standard_normal(n) + 1j * g.standard_normal(n)
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    a, b = 0.7 - 1.3j, -2.1 + 0.4j
    err = float(np.max(np.abs(unitary_dft(a * u + b * v)
                              - (a * unitary_dft(u) + b * unitary_dft(v)))))
    report.add("transform_linearity", err <= 1e-12, "max abs deviation %.3g (gate 1e-12)" % err)


def _check_source_moments(report):
    zeros = sample_modulation_block(ComplexGaussianSpec.iid(3, 0.0), RngStream(3, 0), 10)
    ok_zero = bool(np.all(zeros == 0.0))

    block = sample_modulation_block(ComplexGaussianSpec.iid(1, 2.0), RngStream(11, 1), 10**6)
    mean_mag2 = float(np.mean(np.abs(block) ** 2))
    ok_mag = abs(mean_mag2 - 2.0) <= 4.5 * 2.0 / 1000.0
    cross = float(np.mean(block.real * block.imag))
    ok_cross = abs(cross) <= 4.5 * 1.0 / 1000.0

    f = sample_modulation_block(ComplexGaussianSpec.iid(1, 1.0), RngStream(11, 2), 10**6)
    p_emp = float(np.mean(np.abs(f) ** 2 < 0.1))
    p_true = 1.0 - math.exp(-0.1)
    ok_cdf = abs(p_emp - p_true) <= 4.5 * math.sqrt(p_true * (1 - p_true) / 10**6)
    var_re = float(np.var(f.real))
    ok_quad = abs(var_re - 0.5) <= 4.5 * math.sqrt(0.5 / 10**6)

    ok = ok_zero and ok_mag and ok_cross and ok_cdf and ok_quad
    report.add(
        "source_moments", ok,
        "E|z|^2 = %.4f (expect 2), Pr[|F|^2<0.1] = %.5f (expect %.5f), Re-var %.4f (expect 0.5)"
        % (mean_mag2, p_emp, p_true, var_re),
    )


def _check_noise_moments(report):
    zeros = sample_modulation_block(ComplexGaussianSpec.iid(2, 0.0), RngStream(5, 0), 10)
    ok_zero = bool(np.all(zeros == 0.0))
    block = sample_modulation_block(ComplexGaussianSpec((2.0, 8.0)), RngStream(5, 1), 10**6)
    # E|n|^2 = (2, 8) puts half on each quadrature, so Var(Re) tracks (1, 4)
    v0 = float(np.var(block[:, 0].real))
    v1 = float(np.var(block[:, 1].real))
    band0 = 4.5 * math.sqrt(2.0 / 10**6) * 1.0
    band1 = 4.5 * math.sqrt(2.0 / 10**6) * 4.0
    ok = ok_zero and abs(v0 - 1.0) <= band0 and abs(v1 - 4.0) <= band1
    report.add(
        "noise_moments", ok,
        "per-quadrature noise variances (%.4f, %.4f), expect (1, 4)" % (v0, v1),
    )


def _check_determinism(report, config):
    gains = ComplexGaussianSpec.iid(4, 1.0)
    a = sample_modulation_block(gains, RngStream(42, 7), 256)
    b = sample_modulation_block(gains, RngStream(42, 7), 256)
    ok_stream = bool(np.array_equal(a, b))
    mc = MonteCarloConfig(l=2, trials=200000, seed=config.seed, event="threshold", threshold=0.3)
    model = TransmittanceModel.rayleigh(1.0)
    e1 = monte_carlo_p_err(mc, model, workers=1)
    e2 = monte_carlo_p_err(mc, model, workers=2)
    ok_workers = e1 == e2
    report.add(
        "determinism", ok_stream and ok_workers,
        "repeated substream identical: %s; worker counts agree: %s (%d vs %d errors)"
        % (ok_stream, ok_workers, e1.errors_observed, e2.errors_observed),
    )


def _check_channel_identity(report):
    g = RngStream(13, 0).generator()
    n = 64
    z = ModulatedVector(g.standard_normal(n) + 1j * g.standard_normal(n))
    out = end_to_end_roundtrip(z, SubchannelSet.all_pass(n), RngStream(13, 1))
    err_identity = float(np.max(np.abs(out.entries - z.entries)))
    c = 0.5 - 0.25j
    out_c = end_to_end_roundtrip(z, SubchannelSet.scalar(n, c), RngStream(13, 2))
    err_scalar = float(np.max(np.abs(out_c.entries - c * z.entries)))
    d = ModulatedVector(z.entries)
    out_zero = apply_channel(d, SubchannelSet.scalar(n, 0.0), RngStream(13, 3))
    err_zero = float(np.max(np.abs(out_zero.entries)))
    ok = err_identity <= 1e-12 and err_scalar <= 1e-12 and err_zero == 0.0
    report.add(
        "channel_identity", ok,
        "all-pass err %.3g, scalar err %.3g, zero-gain err %.3g (gate 1e-12)"
        % (err_identity, err_scalar, err_zero),
    )


def _check_channel_second_moment(report):
    sigma2_z, sigma2_f = 1.5, 2.0
    count, l = 400, 250
    d = sample_modulation_block(ComplexGaussianSpec.iid(l, sigma2_z), RngStream(17, 0), count)
    f = sample_modulation_block(ComplexGaussianSpec.iid(l, sigma2_f), RngStream(17, 1), count)
    out = f * d
    mean = float(np.mean(np.abs(out) ** 2))
    expect = sigma2_z * sigma2_f
    # Var(|F d|^2) = E[X^2]E[Y^2] - (EX EY)^2 = 4 sigma2_f^2 sigma2_z^2 - sigma2_f^2 sigma2_z^2
    sd = math.sqrt(3.0) * expect
    band = 4.5 * sd / math.sqrt(out.size)
    ok = abs(mean - expect) <= band
    report.add(
        "channel_second_moment", ok,
        "noiseless E|F d|^2 = %.4f (expect %.2f +- %.4f)" % (mean, expect, band),
    )


def _check_rate_allocation(report):
    alloc = RateAllocation((0.0, 0.5, 0.6), k_in=2, k_out=3, p_prime=4.0)
    zero_rate = secret_key_rate(alloc, 0)
    half_rate = secret_key_rate(alloc, 1)  # 0.5 / 2 * 4
    single = secret_key_rate(RateAllocation((0.6,), 1, 1, 1.0), 0)
    bound_ok = all(
        secret_key_rate(alloc, k) <= alloc.p_prime for k in range(len(alloc.zeta_per_user))
    )
    ok = zero_rate == 0.0 and abs(half_rate - 1.0) < 1e-15 and abs(single - 0.6) < 1e-15
    report.add(
        "rate_allocation", ok and bound_ok,
        "zeta=0 rate 0; zeta=0.5 n_min=2 P'=4 -> %.3f; zeta=0.6 n_min=1 P'=1 -> %.3f; S' <= P': %s"
        % (half_rate, single, bound_ok),
    )


def _check_worst_case_set(report):
    ch = SubchannelSet(3, (0.9, 0.5, 0.7), ComplexGaussianSpec.iid(3, 2.0))
    res = worst_case_set(ch, 2.0)  # threshold 1/8 on |F|^2
    ok_basic = res.survivors == (0, 1, 2) and res.min_index == 1 and res.min_magnitude == 0.5
    res_empty = worst_case_set(ch, 1.01)  # threshold ~0.97
    ok_empty = res_empty.survivors == () and res_empty.min_index is None
    ch_tie = SubchannelSet(2, (0.5, 0.5), ComplexGaussianSpec.iid(2, 2.0))
    ok_tie = worst_case_set(ch_tie, 2.0).min_index == 0
    lo = len(worst_case_set(ch, 1.2).survivors)
    hi = len(worst_case_set(ch, 3.0).survivors)
    ok_mono = lo <= hi
    ok = ok_basic and ok_empty and ok_tie and ok_mono
    report.add(
        "worst_case_set", ok,
        "selection %s, empty-set %s, tie-break %s, monotone %s"
        % (ok_basic, ok_empty, ok_tie, ok_mono),
    )


def _check_constellation(report):
    base = Constellation.square_grid(6.0)  # 64 points
    pc = build_permutation_constellation(base, 8, RngStream(23, 0))
    sets_ok = all(set(c.tolist()) == set(base.as_array().tolist()) for c in pc.constellations())
    card_ok = all(len(c) == len(base) for c in pc.constellations())
    ident = build_permutation_constellation(base, 4, RngStream(23, 1), identity=True)
    ident_ok = all(np.array_equal(c, base.as_array()) for c in ident.constellations())

    g = RngStream(23, 2).generator()
    l = 5
    pa, pb = g.standard_normal(l), g.standard_normal(l)
    a = 1.7
    pd = product_distance(pa, pb, 1.0, 1.0)
    pd_scaled = product_distance(a * pa, a * pb, 1.0, 1.0)
    scale_rel = abs(pd_scaled - a ** (2 * l) * pd) / (a ** (2 * l) * pd)
    bounds_ok = (
        product_distance_bound(1, 0.0, 1.0) == 1.0
        and product_distance_bound(2, 1.0, 1.0) == 0.0625
        and abs(product_distance_bound(3, 1.0, 2.0) - 1.0 / 27.0) < 1e-15
    )
    ok = sets_ok and card_ok and ident_ok and scale_rel <= 1e-12 and bounds_ok
    report.add(
        "constellation", ok,
        "set-equality %s, identity hook %s, scaling rel err %.3g, bound values %s"
        % (sets_ok, ident_ok, scale_rel, bounds_ok),
    )


def _check_closed_forms(report, config):
    worst = 0.0
    for snr in (2.0, 10.0, 100.0, 1e4):
        a = p_err_amqd_analytic(snr, 1, 0.0, include_factorial=True)
        s = p_err_single_analytic(snr, 0.0)
        worst = max(worst, abs(a - s) / s)
    spots = (
        abs(p_err_single_analytic(10.0, 0.6) - 10.0 ** -0.4) / 10.0 ** -0.4,
        abs(p_err_amqd_analytic(10.0, 5, 0.6) - 1e-2) / 1e-2,
        abs(p_err_amqd_analytic(10.0, 10, 0.6) - 1e-4) / 1e-4,
    )
    order_ok = True
    for snr in np.logspace(0.05, 4, 40):
        p1 = p_err_single_analytic(snr, 0.6)
        p5 = p_err_amqd_analytic(snr, 5, 0.6)
        p10 = p_err_amqd_analytic(snr, 10, 0.6)
        order_ok = order_ok and p10 < p5 < p1
    ok = worst <= 1e-14 and max(spots) <= 1e-12 and order_ok
    report.add(
        "closed_form_consistency", ok,
        "l=1 vs single rel err %.3g, reference spot rel errs %.3g, ordering %s"
        % (worst, max(spots), order_ok),
    )


def _check_outage_oracle(report):
    # imported here, the one check that integrates: scipy.integrate loads
    # scipy.optimize and scipy.sparse.linalg, which no other command needs
    from scipy import integrate

    worst = 0.0
    for l in range(1, 11):
        for t in (1e-4, 1e-2, 0.1, 1.0, 5.0):
            quad, _ = integrate.quad(
                lambda x: chi2_density(x, l), 0.0, t, epsabs=0.0, epsrel=1e-12, limit=200
            )
            exact = outage_cdf(t, l, "exact")
            worst = max(worst, abs(quad - exact) / exact)
    report.add(
        "outage_oracle", worst <= 1e-10,
        "max rel diff quadrature vs closed form %.3g (gate 1e-10)" % worst,
    )


def _check_outage_approx(report):
    form_ok = True
    ratio_ok = True
    for l in range(1, 7):
        for t in (1e-4, 1e-3, 0.01):
            approx = outage_cdf(t, l, "approx")
            form_ok = form_ok and approx == t**l / math.factorial(l)
            ratio = approx / outage_cdf(t, l, "exact")
            ratio_ok = ratio_ok and 1.0 <= ratio <= 1.0 + t
    report.add(
        "outage_approx", form_ok and ratio_ok,
        "approx formula exact: %s; approx/exact in [1, 1+t]: %s" % (form_ok, ratio_ok),
    )


# (l, threshold) of the threshold events mc_calibration samples, crude, at
# the configured trial count and seed
_MC_CALIBRATION_EVENTS = ((1, 0.1), (3, 1.0))


def _check_mc_calibration(report, config):
    model = TransmittanceModel.rayleigh(1.0)
    details = []
    ok = True
    for l, thr in _MC_CALIBRATION_EVENTS:
        mc = MonteCarloConfig(l=l, trials=config.trials, seed=config.seed, event="threshold",
                              threshold=thr)
        est = monte_carlo_p_err(mc, model, workers=config.workers)
        p = analytic_event_probability(model, "threshold", l, threshold=thr)
        if p * config.trials < 100.0:  # the only estimates validate compares with the truth
            report.warnings.append(
                "insufficient trials: ~%.3g expected errors at threshold=%g (l=%d); "
                "the mc_calibration estimate will be loose" % (p * config.trials, thr, l)
            )
        band = 4.5 * math.sqrt(p * (1.0 - p) / config.trials)
        ok = ok and abs(est.p_hat - p) <= band
        details.append("l=%d: p_hat %.5f vs %.5f (+- %.5f)" % (l, est.p_hat, p, band))
    allp = monte_carlo_p_err(
        MonteCarloConfig(l=1, trials=100, seed=config.seed, event="rate", snr=1.0, rate_bits=2.0),
        TransmittanceModel.fixed((1.0,)),
    )
    ok = ok and allp.p_hat == 1.0
    details.append("all-pass unreachable rate p_hat %.1f (expect 1.0)" % allp.p_hat)
    report.add("mc_calibration", ok, "; ".join(details))


def run_validation(config: ExperimentConfig) -> ValidationReport:
    """Run every invariant suite."""
    report = ValidationReport()
    _check_transform_unitarity(report)
    _check_transform_distribution(report)
    _check_transform_linearity(report)
    _check_source_moments(report)
    _check_noise_moments(report)
    _check_determinism(report, config)
    _check_channel_identity(report)
    _check_channel_second_moment(report)
    _check_rate_allocation(report)
    _check_worst_case_set(report)
    _check_constellation(report)
    _check_closed_forms(report, config)
    _check_outage_oracle(report)
    _check_outage_approx(report)
    _check_mc_calibration(report, config)
    return report
