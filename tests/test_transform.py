import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqd import ConfigError, ModulatedVector, RngStream, unitary_dft, unitary_idft


def random_vector(n, seed=0):
    g = RngStream(seed, n).generator()
    return g.standard_normal(n) + 1j * g.standard_normal(n)


class TestForwardTransform:
    def test_zero_vector_stays_zero(self):
        assert np.all(unitary_dft(np.zeros(8, dtype=complex)) == 0.0)

    def test_unit_impulse_spreads_evenly(self):
        assert np.allclose(unitary_dft([1.0, 0.0, 0.0, 0.0]), 0.5, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 257, 1000, 4096])
    def test_roundtrip_is_identity(self, n):
        v = random_vector(n)
        assert np.max(np.abs(unitary_idft(unitary_dft(v)) - v)) <= 1e-12

    def test_norm_preserved(self):
        v = random_vector(64, seed=3)
        assert np.linalg.norm(unitary_dft(v)) == pytest.approx(np.linalg.norm(v), rel=1e-13)


class TestInverseTransform:
    def test_flat_vector_collapses_to_impulse(self):
        out = unitary_idft([0.5, 0.5, 0.5, 0.5])
        expected = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(out - expected)) <= 1e-15

    def test_parseval_large_vector(self):
        v = random_vector(1024, seed=7)
        e_in = np.sum(np.abs(v) ** 2)
        e_out = np.sum(np.abs(unitary_idft(v)) ** 2)
        assert abs(e_out - e_in) / e_in <= 1e-12


class TestVectorValidation:
    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigError):
            ModulatedVector(np.array([], dtype=complex))

    def test_matrix_rejected(self):
        with pytest.raises(ConfigError):
            ModulatedVector(np.zeros((2, 2), dtype=complex))


finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@given(
    st.lists(finite_complex, min_size=1, max_size=32),
    st.lists(finite_complex, min_size=1, max_size=32),
    finite_complex,
    finite_complex,
)
@settings(max_examples=60, deadline=None)
def test_transform_linearity(u, v, a, b):
    n = min(len(u), len(v))
    uu = np.array(u[:n])
    vv = np.array(v[:n])
    lhs = unitary_dft(a * uu + b * vv)
    rhs = a * unitary_dft(uu) + b * unitary_dft(vv)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


@given(st.integers(min_value=1, max_value=512))
@settings(max_examples=40, deadline=None)
def test_roundtrip_any_length(n):
    v = random_vector(n, seed=1)
    assert np.max(np.abs(unitary_idft(unitary_dft(v)) - v)) <= 1e-12


def test_gaussian_statistics_preserved():
    # a unitary map of an i.i.d. circular Gaussian vector is identically
    # distributed; check first and second moments at 1e5 samples
    sigma2 = 2.0
    g = RngStream(314159, 0).generator()
    block = (g.standard_normal((100, 1000)) + 1j * g.standard_normal((100, 1000))) * np.sqrt(
        sigma2 / 2.0
    )
    out = unitary_dft(block)
    n_samples = out.size
    mean_energy = float(np.mean(np.abs(out) ** 2))
    assert abs(mean_energy - sigma2) <= 3.0 * sigma2 / np.sqrt(n_samples)
    cross = float(np.mean(out.real * out.imag))
    assert abs(cross) <= 3.0 * (sigma2 / 2.0) / np.sqrt(n_samples)
