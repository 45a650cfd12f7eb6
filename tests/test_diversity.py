import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amqd import (
    ConfigError,
    Constellation,
    RngStream,
    build_permutation_constellation,
    fit_diversity_slope,
    p_err_amqd_analytic,
    p_err_single_analytic,
    product_distance,
    product_distance_bound,
)
from amqd.diversity import constellation_size


class TestConstellation:
    @pytest.mark.parametrize(
        "rate,expected",
        [(1.0, 2), (0.0, 2), (0.5, 2), (2.0, 4), (3.9, 15), (4.0, 16), (8.0, 256)],
    )
    def test_point_count_follows_rate(self, rate, expected):
        assert len(Constellation.square_grid(rate)) == expected

    def test_points_distinct_and_normalized(self):
        c = Constellation.square_grid(4.0)
        pts = c.as_array()
        assert len(set(c.points)) == len(c.points)
        assert float(np.mean(np.abs(pts) ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_count_rate_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Constellation((1.0, -1.0, 1j), 1.0)  # 3 points, rate says 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(ConfigError):
            Constellation((1.0, 1.0), 1.0)

    def test_single_point_rejected(self):
        with pytest.raises(ConfigError):
            Constellation((1.0,), 1.0)

    @pytest.mark.parametrize("rate", [1024.0, 2000.0, 1e4, math.inf, -math.inf, math.nan])
    def test_rate_past_float_range_rejected(self, rate):
        # 2^rate leaves the float range; each is rejected before any point is made
        with pytest.raises(ConfigError):
            constellation_size(rate)
        with pytest.raises(ConfigError):
            Constellation.square_grid(rate)


class TestPermutationConstellation:
    def test_l_equals_one_is_just_the_base(self):
        base = Constellation.square_grid(2.0)
        pc = build_permutation_constellation(base, 1, RngStream(0, 0))
        assert pc.perms == ()
        assert len(pc.constellations()) == 1
        assert np.array_equal(pc.constellations()[0], base.as_array())

    def test_each_derived_constellation_is_a_permutation(self):
        base = Constellation.square_grid(2.0)
        pc = build_permutation_constellation(base, 3, RngStream(5, 0))
        base_set = set(base.points)
        for c in pc.constellations():
            assert set(c.tolist()) == base_set
            assert len(c) == len(base)

    def test_identity_hook_gives_identical_constellations(self):
        base = Constellation.square_grid(3.0)
        pc = build_permutation_constellation(base, 4, RngStream(5, 1), identity=True)
        for c in pc.constellations():
            assert np.array_equal(c, base.as_array())

    def test_deterministic_given_stream(self):
        base = Constellation.square_grid(4.0)
        a = build_permutation_constellation(base, 5, RngStream(9, 2))
        b = build_permutation_constellation(base, 5, RngStream(9, 2))
        assert a.perms == b.perms

    def test_non_bijection_rejected(self):
        from amqd import PermutationConstellation

        base = Constellation.square_grid(1.0)
        with pytest.raises(ConfigError):
            PermutationConstellation(base, ((0, 0),))


class TestNormalizedDifference:
    """One-component product distances: |(a - b) / sqrt(sigma2_omega' / sigma2_n)|^2."""

    def test_equal_inputs_give_zero(self):
        assert product_distance([0.7], [0.7], 1.0, 1.0) == 0.0

    def test_scaling_by_snr_root(self):
        # (2) / sqrt(4/1) = 1
        assert product_distance([3.0], [1.0], 4.0, 1.0) == pytest.approx(1.0)
        # (1) / sqrt(1/4) = 2, squared
        assert product_distance([1.0], [0.0], 1.0, 4.0) == pytest.approx(4.0)
        # sigma2_omega' / sigma2_n underflows to 0: an infinite factor, or 0
        # for equal components
        assert product_distance([1.0], [0.0], 1e-300, 1e300) == math.inf
        assert product_distance([1.0], [1.0], 1e-300, 1e300) == 0.0

    def test_zero_variance_rejected(self):
        # and a NaN or infinite one, which gave nan or a ZeroDivisionError
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                product_distance([1.0], [0.0], bad, 1.0)
            with pytest.raises(ConfigError):
                product_distance([1.0], [0.0], 1.0, bad)
            with pytest.raises(ConfigError):
                product_distance([1.0, 2.0], [0.0, 0.0], 1.0, (1.0, bad))


class TestProductDistance:
    def test_any_equal_component_zeroes_the_product(self):
        assert product_distance([1.0, 2.0], [1.0, 5.0], 1.0, 1.0) == 0.0

    def test_direct_product(self):
        # deltas 1 and 2 -> product 4 with unit variances
        assert product_distance([1.0, 2.0], [0.0, 0.0], 1.0, 1.0) == pytest.approx(4.0)

    def test_composed_from_per_subchannel_factors(self):
        val = product_distance([3.0, 1.0], [1.0, 0.0], 4.0, (1.0, 16.0))
        d1 = product_distance([3.0], [1.0], 4.0, 1.0)  # (2 / sqrt(4))^2 = 1
        d2 = product_distance([1.0], [0.0], 4.0, 16.0)  # (1 / sqrt(1/4))^2 = 4
        assert val == pytest.approx(d1 * d2)
        assert val == pytest.approx(4.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            product_distance([1.0], [1.0, 2.0], 1.0, 1.0)

    @pytest.mark.parametrize("pa, pb, expected", [
        # |1e200|^2 leaves the float range: inf, not an OverflowError
        ([1e200], [0.0], math.inf),
        ([1e200, 3.0], [0.0, 1.0], math.inf),
        # a zero factor zeroes the product next to an infinite one: an equal
        # component after it or before it, a square or a product that underflows
        ([1e200, 1.0], [0.0, 1.0], 0.0),
        ([1.0, 1e200], [1.0, 0.0], 0.0),
        ([1e-200, 1e200], [0.0, 0.0], 0.0),
        ([1e-100, 1e-100, 1e-100, 1e200], [0.0, 0.0, 0.0, 0.0], 0.0),
    ])
    def test_square_past_the_float_range(self, pa, pb, expected):
        assert product_distance(pa, pb, 1.0, 1.0) == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_law(self, l, a, seed):
        g = RngStream(seed, 0).generator()
        pa = g.standard_normal(l)
        pb = pa + g.uniform(0.5, 1.5, l)  # keep components distinct
        base = product_distance(pa, pb, 1.0, 1.0)
        scaled = product_distance(a * pa, a * pb, 1.0, 1.0)
        assert scaled == pytest.approx(a ** (2 * l) * base, rel=1e-9)


class TestProductDistanceBound:
    @pytest.mark.parametrize(
        "l,rate,c,expected",
        [
            (1, 0.0, 1.0, 1.0), (2, 1.0, 1.0, 0.0625), (3, 1.0, 2.0, 1.0 / 27.0),
            # bounds past the float range: 2^rate overflows, 2^rate underflows
            # to 0, the power overflows
            (1, 2000.0, 1.0, 0.0), (2, -2000.0, 1.0, math.inf), (2, 1.0, 1e300, math.inf),
            # a bound inside the float range whose 2^rate is not
            (1, 1030.0, 1e300, math.ldexp(1e300, -1030)),
        ],
    )
    def test_known_values(self, l, rate, c, expected):
        assert product_distance_bound(l, rate, c) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_c_rejected(self):
        # and a non-finite c or rate
        for rate, c in ((1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
                        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ConfigError):
                product_distance_bound(2, rate, c)

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_rate(self, l, r1, r2):
        lo, hi = sorted((r1, r2))
        if hi - lo < 1e-9:
            return
        assert product_distance_bound(l, hi, 1.0) < product_distance_bound(l, lo, 1.0)


SNR_GRID = (10.0, 100.0, 1000.0)


def order_of(p_err):
    """Diversity order of a closed form, read off its log-log slope."""
    return fit_diversity_slope([(s, p_err(s)) for s in SNR_GRID])


class TestDiversityOrder:
    """The closed forms decay as snr^-(1-zeta) (one carrier) and snr^-(l(1-zeta))."""

    def test_single_carrier_full_diversity(self):
        assert order_of(lambda s: p_err_single_analytic(s, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_single_carrier_reduced(self):
        assert order_of(lambda s: p_err_single_analytic(s, 0.6)) == pytest.approx(0.4)

    @pytest.mark.parametrize("l,zeta,expected", [(5, 0.6, 2.0), (10, 0.6, 4.0), (7, 0.0, 7.0)])
    def test_multicarrier_orders(self, l, zeta, expected):
        assert order_of(lambda s: p_err_amqd_analytic(s, l, zeta)) == pytest.approx(expected)

    def test_zeta_one_rejected(self):
        with pytest.raises(ConfigError):
            p_err_amqd_analytic(10.0, 2, 1.0)

    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_zeta(self, l, z1, z2):
        lo, hi = sorted((z1, z2))
        if hi - lo < 1e-12:
            return
        assert order_of(lambda s: p_err_amqd_analytic(s, l, hi)) < order_of(
            lambda s: p_err_amqd_analytic(s, l, lo)
        )

    @given(st.integers(min_value=1, max_value=31), st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_l(self, l, zeta):
        assert order_of(lambda s: p_err_amqd_analytic(s, l + 1, zeta)) > order_of(
            lambda s: p_err_amqd_analytic(s, l, zeta)
        )
