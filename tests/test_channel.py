import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqd import (
    ComplexGaussianSpec,
    ConfigError,
    ModulatedVector,
    RateAllocation,
    RngStream,
    SubchannelSet,
    apply_channel,
    end_to_end_roundtrip,
    sample_modulation_block,
    secret_key_rate,
    worst_case_set,
)


def subcarrier(entries):
    return ModulatedVector(np.asarray(entries, dtype=complex))


class TestApplyChannel:
    def test_identity_channel(self):
        d = subcarrier([1 + 1j, 2.0, -3j, 0.5])
        out = apply_channel(d, SubchannelSet.all_pass(4), RngStream(0, 0))
        assert np.array_equal(out.entries, d.entries)

    def test_zero_gain_channel(self):
        d = subcarrier([1 + 1j, 2.0])
        out = apply_channel(d, SubchannelSet.scalar(2, 0.0), RngStream(0, 0))
        assert np.all(out.entries == 0.0)

    def test_scalar_gain_arithmetic(self):
        out = apply_channel(
            subcarrier([2.0]),
            SubchannelSet(1, (0.5,), ComplexGaussianSpec.iid(1, 0.0)),
            RngStream(0, 0),
        )
        assert out.entries[0] == 1.0 + 0.0j

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            apply_channel(subcarrier([1.0, 2.0]), SubchannelSet.all_pass(3), RngStream(0, 0))

    def test_noiseless_channel_is_linear(self):
        ch = SubchannelSet(3, (0.2 + 0.1j, 0.9, 0.4 - 0.3j), ComplexGaussianSpec.iid(3, 0.0))
        u = subcarrier([1.0, 2.0, 3.0])
        v = subcarrier([1j, -1j, 0.5])
        a, b = 1.5 - 0.5j, -2.0
        lhs = apply_channel(subcarrier(a * u.entries + b * v.entries), ch, RngStream(0, 0))
        rhs = a * apply_channel(u, ch, RngStream(0, 0)).entries + b * apply_channel(
            v, ch, RngStream(0, 0)
        ).entries
        assert np.max(np.abs(lhs.entries - rhs)) <= 1e-12

    def test_noise_is_reproducible_per_stream(self):
        ch = SubchannelSet(2, (1.0, 1.0), ComplexGaussianSpec.iid(2, 1.0))
        d = subcarrier([0.0, 0.0])
        a = apply_channel(d, ch, RngStream(3, 17))
        b = apply_channel(d, ch, RngStream(3, 17))
        c = apply_channel(d, ch, RngStream(3, 18))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_noise_is_a_draw_of_its_spec(self):
        ch = SubchannelSet(3, (1.0,) * 3, ComplexGaussianSpec.iid(3, 2.0))
        out = apply_channel(subcarrier([0.0, 0.0, 0.0]), ch, RngStream(6, 1))
        assert np.array_equal(out.entries,
                              sample_modulation_block(ch.noise, RngStream(6, 1), 1)[0])

    def test_noise_length_must_equal_l(self):
        with pytest.raises(ConfigError):
            SubchannelSet(2, (1.0, 1.0), ComplexGaussianSpec.iid(3, 1.0))


class TestEndToEndRoundtrip:
    def test_all_pass_noiseless_recovers_input(self):
        g = RngStream(21, 0).generator()
        z = ModulatedVector(g.standard_normal(64) + 1j * g.standard_normal(64))
        out = end_to_end_roundtrip(z, SubchannelSet.all_pass(64), RngStream(21, 1))
        assert np.max(np.abs(out.entries - z.entries)) <= 1e-12

    def test_scalar_channel_commutes_with_transform(self):
        g = RngStream(22, 0).generator()
        z = ModulatedVector(g.standard_normal(32) + 1j * g.standard_normal(32))
        c = 0.3 - 0.6j
        out = end_to_end_roundtrip(z, SubchannelSet.scalar(32, c), RngStream(22, 1))
        assert np.max(np.abs(out.entries - c * z.entries)) <= 1e-12

    def test_random_channel_output_power(self):
        # noiseless: E|out_i|^2 = sigma2_z * sigma2_F for every entry
        sigma2_z, sigma2_f = 1.0, 1.0
        l, trials = 4, 20000
        total = 0.0
        spec = ComplexGaussianSpec.iid(l, sigma2_z)
        zs = sample_modulation_block(spec, RngStream(23, 0), trials)
        fs = sample_modulation_block(ComplexGaussianSpec.iid(l, sigma2_f), RngStream(23, 1), trials)
        for i in range(trials):
            z = ModulatedVector(zs[i])
            ch = SubchannelSet(l, tuple(fs[i]), ComplexGaussianSpec.iid(l, 0.0))
            out = end_to_end_roundtrip(z, ch, RngStream(23, 2))
            total += float(np.sum(np.abs(out.entries) ** 2))
        mean = total / (trials * l)
        expect = sigma2_z * sigma2_f
        # Var(|F z|^2) = 3 (sigma2_z sigma2_f)^2 for the product of two
        # independent circular Gaussians
        band = 3.0 * np.sqrt(3.0) * expect / np.sqrt(trials * l)
        assert abs(mean - expect) <= band


class TestWorstCaseSet:
    @pytest.mark.parametrize("snr_star", [0.0, -1.0, float("nan")])
    def test_nonpositive_snr_rejected(self, snr_star):
        ch = SubchannelSet(1, (0.6,), ComplexGaussianSpec.iid(1, 2.0))
        with pytest.raises(ConfigError):
            worst_case_set(ch, snr_star)

    def test_selects_weakest_survivor(self):
        ch = SubchannelSet(3, (0.9, 0.5, 0.7), ComplexGaussianSpec.iid(3, 2.0))
        res = worst_case_set(ch, 2.0)  # threshold 1/8
        assert res.survivors == (0, 1, 2)
        assert res.min_index == 1
        assert res.min_magnitude == 0.5

    def test_empty_survivor_set_is_valid(self):
        for ch, snr_star in (
            (SubchannelSet(3, (0.9, 0.5, 0.7), ComplexGaussianSpec.iid(3, 2.0)), 1.01),  # ~0.97
            (SubchannelSet.all_pass(3), 1e-300),  # threshold 1e900, past the float range
        ):
            res = worst_case_set(ch, snr_star)
            assert res.survivors == ()
            assert res.min_index is None
            assert res.min_magnitude is None

    def test_tie_breaks_to_lowest_index(self):
        ch = SubchannelSet(2, (0.5, 0.5), ComplexGaussianSpec.iid(2, 2.0))
        res = worst_case_set(ch, 2.0)
        assert res.min_index == 0

    def test_threshold_is_on_squared_magnitude(self):
        # |F| = 0.6, l = 1, snr_star = 2: |F|^2 = 0.36 < 0.5 although |F| = 0.6 >= 0.5
        ch = SubchannelSet(1, (0.6,), ComplexGaussianSpec.iid(1, 2.0))
        assert worst_case_set(ch, 2.0).survivors == ()
        assert worst_case_set(ch, 2.8).survivors == (0,)  # 0.36 >= 1/2.8

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=8),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_survivor_count_monotone_in_snr(self, mags, snr_a, snr_b):
        lo, hi = sorted((snr_a, snr_b))
        l = len(mags)
        ch = SubchannelSet(l, tuple(m + 0j for m in mags), ComplexGaussianSpec.iid(l, 2.0))
        n_lo = len(worst_case_set(ch, lo).survivors)
        n_hi = len(worst_case_set(ch, hi).survivors)
        assert n_lo <= n_hi


class TestSecretKeyRate:
    def test_zero_zeta_gives_zero_rate(self):
        assert secret_key_rate(RateAllocation((0.0,), 1, 1, 5.0), 0) == 0.0

    def test_whole_channel_rate(self):
        # zeta/n_min * P' = 0.5/2 * 4
        assert secret_key_rate(RateAllocation((0.5,), 2, 3, 4.0), 0) == pytest.approx(1.0)

    def test_single_user_single_pair(self):
        assert secret_key_rate(RateAllocation((0.6,), 1, 1, 1.0), 0) == pytest.approx(0.6)

    def test_invalid_indices_rejected(self):
        alloc = RateAllocation((0.5,), 1, 1, 1.0)
        with pytest.raises(ConfigError):
            secret_key_rate(alloc, 1)
        with pytest.raises(ConfigError):
            secret_key_rate(alloc, -1)

    def test_zeta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            RateAllocation((1.0,), 1, 1, 1.0)

    @pytest.mark.parametrize("p_prime", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_p_prime_rejected(self, p_prime):
        # an infinite p_prime would make secret_key_rate nan at zeta = 0
        with pytest.raises(ConfigError):
            RateAllocation((0.5,), 1, 1, p_prime)

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_never_exceeds_aggregate(self, zeta, k_in, k_out, p_prime):
        alloc = RateAllocation((zeta,), k_in, k_out, p_prime)
        assert secret_key_rate(alloc, 0) <= p_prime
