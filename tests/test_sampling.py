import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqd import (
    ComplexGaussianSpec,
    ConfigError,
    RngStream,
    TransmittanceModel,
    sample_modulation_block,
)


class TestRngStream:
    def test_identical_keys_give_identical_draws(self):
        a = RngStream(123, 7).generator().standard_normal(64)
        b = RngStream(123, 7).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(64)
        b = RngStream(123, 1).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_keys_rejected(self, seed, stream):
        with pytest.raises(ConfigError):
            RngStream(seed, stream)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_determinism_any_key(self, seed, stream):
        a = RngStream(seed, stream).generator().standard_normal(8)
        b = RngStream(seed, stream).generator().standard_normal(8)
        assert np.array_equal(a, b)


class TestComplexGaussianSpec:
    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            ComplexGaussianSpec(())
        with pytest.raises(ConfigError):
            ComplexGaussianSpec.iid(0, 1.0)

    def test_negative_variance_rejected(self):
        # and a NaN or infinite one, which would draw nan+nanj or inf
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                ComplexGaussianSpec((1.0, bad))


class TestModulationSampling:
    def test_zero_variance_gives_exact_zeros(self):
        v = sample_modulation_block(ComplexGaussianSpec((0.0, 0.0, 0.0)), RngStream(9, 0), 1)
        assert np.all(v == 0.0)

    def test_repeat_draw_bit_identical(self):
        a = sample_modulation_block(ComplexGaussianSpec.iid(5, 1.0), RngStream(2, 3), 1)
        b = sample_modulation_block(ComplexGaussianSpec.iid(5, 1.0), RngStream(2, 3), 1)
        assert np.array_equal(a, b)

    def test_block_row0_matches_single_draw(self):
        spec = ComplexGaussianSpec.iid(4, 2.0)
        single = sample_modulation_block(spec, RngStream(7, 1), 1)
        block = sample_modulation_block(spec, RngStream(7, 1), 3)
        assert np.array_equal(block[0], single[0])

    def test_mean_magnitude_squared(self):
        # E|z|^2 = 2; |z|^2 is exponential so sd of the mean is 2/sqrt(N)
        block = sample_modulation_block(ComplexGaussianSpec.iid(1, 2.0), RngStream(11, 1), 10**6)
        mean = float(np.mean(np.abs(block) ** 2))
        assert 1.994 <= mean <= 2.006

    def test_quadratures_uncorrelated(self):
        block = sample_modulation_block(ComplexGaussianSpec.iid(1, 2.0), RngStream(11, 5), 10**6)
        cross = float(np.mean(block.real * block.imag))
        assert abs(cross) <= 3.0 / 1000.0

    def test_circular_symmetry_exact_under_quarter_turn(self):
        # multiplication by i permutes quadratures exactly, so |i*z| == |z| bitwise
        block = sample_modulation_block(ComplexGaussianSpec.iid(8, 1.0), RngStream(4, 0), 100)
        assert np.array_equal(np.abs(1j * block), np.abs(block))

    def test_unit_phase_rotation_preserves_magnitudes(self):
        block = sample_modulation_block(ComplexGaussianSpec.iid(8, 1.0), RngStream(4, 1), 100)
        c = np.exp(1j * 0.7331)
        assert np.max(np.abs(np.abs(c * block) - np.abs(block))) <= 1e-12


class TestNoiseSampling:
    # sub-channel noise is the complex Gaussian block of its spec, E|n_i|^2
    # per entry and half of it on each quadrature
    def test_per_quadrature_variance(self):
        # E|n|^2 = 2, so E[Re^2] = 1, sd of the mean sqrt(2/N)
        block = sample_modulation_block(ComplexGaussianSpec.iid(1, 2.0), RngStream(5, 1), 10**6)
        v = float(np.mean(block.real**2))
        assert 0.9958 <= v <= 1.0042

    def test_variance_ratio_across_subchannels(self):
        block = sample_modulation_block(ComplexGaussianSpec((2.0, 8.0)), RngStream(5, 2), 10**6)
        v0 = float(np.var(block[:, 0].real))
        v1 = float(np.var(block[:, 1].real))
        assert abs(v0 - 1.0) <= 3.0 * math.sqrt(2.0 / 10**6)
        assert abs(v1 - 4.0) <= 3.0 * 4.0 * math.sqrt(2.0 / 10**6)


class TestTransmittanceSampling:
    # Rayleigh gains of variance sigma2_f are the complex Gaussian block of
    # ComplexGaussianSpec.iid(l, sigma2_f)
    def test_rayleigh_exponential_tail(self):
        f = sample_modulation_block(ComplexGaussianSpec.iid(1, 1.0), RngStream(11, 2), 10**6)
        p_emp = float(np.mean(np.abs(f) ** 2 < 0.1))
        p_true = 1.0 - math.exp(-0.1)
        assert abs(p_emp - p_true) <= 3.0 * math.sqrt(p_true * (1 - p_true) / 10**6)

    def test_rayleigh_per_quadrature_variance(self):
        f = sample_modulation_block(ComplexGaussianSpec.iid(1, 1.0), RngStream(11, 3), 10**6)
        assert abs(float(np.var(f.real)) - 0.5) <= 3.0 * math.sqrt(0.5 / 10**6)

    def test_rayleigh_mean_power_scales(self):
        f = sample_modulation_block(ComplexGaussianSpec.iid(2, 3.0), RngStream(11, 4), 10**5)
        mean = float(np.mean(np.abs(f) ** 2))
        assert abs(mean - 3.0) <= 3.0 * 3.0 / math.sqrt(f.size)

    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex("1+nanj"),
                                       complex(0.5, float("-inf"))])
    def test_non_finite_fixed_gains_rejected(self, value):
        with pytest.raises(ConfigError):
            TransmittanceModel.fixed((0.5, value))

    @pytest.mark.parametrize("sigma2_f", [-1.0, float("nan"), float("inf")])
    def test_rayleigh_variance_must_be_finite_and_nonnegative(self, sigma2_f):
        with pytest.raises(ConfigError):
            TransmittanceModel.rayleigh(sigma2_f)

    def test_uniform_phase_magnitude_bounds(self):
        with pytest.raises(ConfigError):
            TransmittanceModel.uniform_phase(1.5)
        with pytest.raises(ConfigError):
            TransmittanceModel.uniform_phase(-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TransmittanceModel("lognormal")
