import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zpdistill.errors import DegenerateInputError, DomainError, InsufficientDataError
from zpdistill.kernel import (
    SCHEMES,
    ZpdMoments,
    at_flat_boundary,
    raw_weights,
    select_exponents,
    unit_mean,
    zpd_moments,
)


def _beta_mean_var(alpha: float, beta: float) -> tuple[float, float]:
    # Closed-form moments of Beta(alpha+1, beta+1): the independent oracle
    # for the moment-matching round trip.
    a, b = alpha + 1.0, beta + 1.0
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, var


def _beta(p, alpha, beta, floor=0.0):
    return raw_weights(np.array(p, dtype=np.float64), "beta", alpha, beta, floor=floor)


class TestBetaWeight:
    """The beta scheme of raw_weights: w(p) = p^alpha (1-p)^beta."""

    def test_default_kernel_values(self):
        w = _beta([0.5, 0.2, 0.0, 1.0], 1.0, 1.0)
        assert w[:2] == pytest.approx([0.25, 0.16], abs=1e-15)
        assert w[2:].tolist() == [0.0, 0.0]

    def test_flat_kernel_uses_zero_power_convention(self):
        # 0^0 = 1: the flat kernel weighs the boundary like everything else.
        assert _beta([0.0, 0.3, 1.0], 0.0, 0.0).tolist() == [1.0, 1.0, 1.0]

    def test_one_sided_exponents(self):
        assert _beta([0.0, 1.0], 0.0, 2.0).tolist() == [1.0, 0.0]
        assert _beta([1.0], 3.0, 0.0).tolist() == [1.0]

    def test_rejects_negative_exponents_and_bad_p(self):
        with pytest.raises(DomainError, match=re.escape("(-0.5, 1.0)")):
            _beta([0.5], -0.5, 1.0)
        with pytest.raises(DomainError, match="1.2"):
            _beta([1.2], 1.0, 1.0)

    @given(
        # Keep p away from the denormal range where 1-p rounds to 1.
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0 - 1e-6)),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
    )
    def test_reflection_symmetry(self, p, a, b):
        assert _beta([p], a, b)[0] == pytest.approx(
            _beta([1.0 - p], b, a)[0], rel=1e-9, abs=1e-12
        )

    @given(st.floats(0.001, 0.999), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_nonnegative_and_bounded_by_one(self, p, a, b):
        assert 0.0 <= _beta([p], a, b)[0] <= 1.0


class TestNormalizeWeights:
    def test_unit_mean_includes_zero_entries(self):
        w = unit_mean(np.array([1.0, 0.0, 2.0]))
        assert np.mean(w) == pytest.approx(1.0, abs=1e-12)
        assert w[1] == 0.0

    def test_preserves_order(self):
        w = unit_mean(np.array([2.0, 1.0]))
        assert w[0] == pytest.approx(2.0 * w[1])

    def test_all_zero_stays_zero(self):
        assert np.array_equal(unit_mean(np.zeros(2)), [0.0, 0.0])

    @pytest.mark.parametrize(
        "raw, want",
        [
            ([1e308, 1e308], [1.0, 1.0]),  # the mean overflows
            ([5e-324, 0.0], [2.0, 0.0]),  # the mean underflows to 0
            ([1.7e308, 0.0, 1.7e308 / 2], [2.0, 0.0, 1.0]),
        ],
    )
    def test_mean_out_of_range_divides_by_the_maximum_first(self, raw, want):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = unit_mean(np.array(raw))
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(DomainError):
            unit_mean(np.array([-0.1]))
        with pytest.raises(DomainError):
            unit_mean(np.array([math.nan]))

    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            unit_mean(np.array([]))

    @given(
        # Subnormals excluded: w * c can underflow to exactly 0.0 and turn a
        # nonzero vector into an all-zero one, a float artifact rather than
        # the scale law.
        st.lists(st.floats(0.0, 100.0, allow_subnormal=False), min_size=1, max_size=30),
        st.floats(0.01, 100.0),
    )
    def test_scale_invariance(self, raw, c):
        a = unit_mean(np.array(raw))
        b = unit_mean(np.array(raw) * c)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=30))
    def test_equals_per_entry_division_by_the_mean(self, raw):
        # The per-entry rule the array function replaced, zeros included.
        # A mean that underflows beside a nonzero entry is the out-of-range
        # case above, which that rule zeroed.
        weights = np.array(raw, dtype=np.float64)
        mean = float(weights.mean())
        assume(mean != 0.0 or not weights.any())
        want = [0.0 if mean == 0.0 else float(w / mean) for w in weights]
        assert np.array_equal(unit_mean(weights), want)


class TestRawWeights:
    @settings(max_examples=80)
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=30),
        st.integers(12, 16),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.one_of(st.floats(0.0, 1.0), st.just(-0.0), st.floats(1.0, 10.0)),
        st.floats(0.0, 0.5),
        st.floats(0.5, 1.0),
    )
    @example([3, 3, 6], 12, 1.0, 1.0, -0.0, 0.25, 0.75)
    @example([3, 3, 6], 12, 1.0, 1.0, 2.5, 0.25, 0.75)
    def test_bit_identical_to_scalar_rules(self, counts, k, alpha, beta, floor, lo, hi):
        # Oracle: each scheme's rule in Python floats, one pass rate at a time,
        # with the floor as a minimum. Counts repeat, and 0 and k give p = 0, 1.
        counts = [*counts, 0, k, *counts]
        ps = [c / k for c in counts]
        p = np.array(counts) / k
        want = {
            "beta": [max(v**alpha * (1.0 - v) ** beta, floor) for v in ps],
            "hard": [max(1.0 if lo <= v <= hi else 0.0, floor) for v in ps],
            "unweighted": [max(1.0, floor) for _ in ps],
        }
        for scheme, rule in want.items():
            got = raw_weights(p, scheme, alpha, beta, lo, hi, floor)
            assert got.tobytes() == np.array(rule).tobytes(), scheme

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_floor_above_one_is_the_minimum_under_every_scheme(self, scheme):
        p = np.array([0.125, 0.5, 1.0, 0.5])
        assert raw_weights(p, scheme, floor=2.0).tolist() == [2.0] * 4

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            raw_weights(np.array([0.5]), "softmax")
        with pytest.raises(DomainError):
            raw_weights(np.array([0.5, 1.5]), "beta")
        with pytest.raises(DomainError):
            raw_weights(np.array([0.5]), "hard", lo=0.8, hi=0.2)
        for scheme in SCHEMES:
            for floor in (math.nan, -1.0, math.inf):
                with pytest.raises(DomainError, match="floor"):
                    raw_weights(np.array([0.5]), scheme, floor=floor)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [math.nan, -0.25, 1.5, math.inf, -math.inf])
    def test_error_names_the_pass_rate_outside_the_unit_interval(self, scheme, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            raw_weights(np.array([0.5, bad, 0.25, bad]), scheme)

    @pytest.mark.parametrize("p", [np.array([0.5]), np.array([])])
    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"alpha": -0.5}, "(-0.5, 1.0)"),
            ({"beta": math.inf}, "(1.0, inf)"),
            ({"alpha": math.nan}, "(nan, 1.0)"),
        ],
    )
    def test_error_names_the_bad_exponent_even_for_no_pass_rates(self, p, kwargs, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            raw_weights(p, "beta", **kwargs)

    @pytest.mark.parametrize("p", [np.array([0.5]), np.array([])])
    @pytest.mark.parametrize("lo, hi", [(0.8, 0.2), (-0.1, 0.5), (0.2, 1.5), (math.nan, 0.8)])
    def test_error_names_the_bad_band_even_for_no_pass_rates(self, p, lo, hi):
        with pytest.raises(DomainError, match=re.escape(f"({lo!r}, {hi!r})")):
            raw_weights(p, "hard", lo=lo, hi=hi)

    def test_other_schemes_ignore_the_parameters_they_do_not_use(self):
        # A hard-scheme simulator config may carry any alpha and beta.
        p = np.array([0.5])
        assert raw_weights(p, "hard", alpha=-1.0, beta=math.nan).tolist() == [1.0]
        assert raw_weights(p, "beta", lo=0.9, hi=0.1).tolist() == [0.25]
        assert raw_weights(p, "unweighted", -1.0, -1.0, 0.9, 0.1).tolist() == [1.0]


class TestZpdMoments:
    def test_band_is_inclusive_and_uses_population_variance(self):
        m = zpd_moments(np.array([1, 2, 4, 6, 7]) / 8, 0.125)
        # 1/8 and 7/8 are exactly on the band edges and must be included.
        inside = np.array([1 / 8, 2 / 8, 4 / 8, 6 / 8, 7 / 8])
        assert m.count == 5
        assert m.mean_p == pytest.approx(float(inside.mean()), abs=1e-15)
        assert m.var_p == pytest.approx(float(np.var(inside)), abs=1e-15)

    def test_excludes_outside_band(self):
        m = zpd_moments(np.array([0, 4, 5, 8]) / 8, 0.125)
        assert m.count == 2

    def test_too_few_in_band(self):
        with pytest.raises(InsufficientDataError):
            zpd_moments(np.array([0, 8, 4]) / 8, 0.125)

    def test_bad_epsilon(self):
        for eps in (0.0, 0.5, -0.1):
            with pytest.raises(DomainError):
                zpd_moments(np.full(3, 0.5), eps)

    def test_matches_in_order_scalar_filter_bit_for_bit(self):
        # Oracle: keep each in-band pass rate in input order with scalar
        # comparisons, then take the same numpy mean and variance.
        rng = np.random.default_rng(3)
        k = rng.integers(1, 17, 5000)
        p = rng.integers(0, k + 1) / k
        for eps in (0.125, 0.2, 1 / 3):
            m = zpd_moments(p, eps)
            inside = np.array([x for x in p.tolist() if eps <= x <= 1.0 - eps])
            mean = float(inside.mean())
            assert (m.count, m.mean_p) == (inside.size, mean)
            assert m.var_p == float(np.mean((inside - mean) ** 2))


class TestSelectExponents:
    def test_symmetric_case_gives_flat_one_one(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=1 / 20, count=10)
        alpha, beta = select_exponents(m)
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert beta == pytest.approx(1.0, abs=1e-10)

    def test_flat_boundary_detection(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=1 / 12, count=10)
        alpha, beta = select_exponents(m)
        assert at_flat_boundary(m)
        assert alpha == pytest.approx(0.0, abs=1e-9)
        assert beta == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("mean", [0.125, 0.3, 0.5, 0.6, 0.875])
    def test_flat_boundary_gives_opposite_exponents_2m_minus_1(self, mean):
        # At var = mean(1-mean)/3 the exponents sum to 0: the flat kernel
        # only at mean 0.5, a one-sided one elsewhere.
        m = ZpdMoments(epsilon=0.125, mean_p=mean, var_p=mean * (1.0 - mean) / 3.0, count=10)
        alpha, beta = select_exponents(m)
        assert at_flat_boundary(m)
        assert alpha == pytest.approx(2.0 * mean - 1.0, abs=1e-12)
        assert beta == pytest.approx(1.0 - 2.0 * mean, abs=1e-12)

    def test_not_at_boundary(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=1 / 20, count=10)
        assert not at_flat_boundary(m)

    def test_variance_beyond_boundary_rejected(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=0.1, count=10)
        with pytest.raises(DomainError):
            select_exponents(m)

    def test_zero_variance_degenerate(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=0.0, count=10)
        with pytest.raises(DegenerateInputError):
            select_exponents(m)

    def test_valid_skewed_moments_can_give_negative_exponent(self):
        # mean 0.1, var 0.02 < 0.1*0.9/3 = 0.03 is valid yet alpha* < 0.
        m = ZpdMoments(epsilon=0.05, mean_p=0.1, var_p=0.02, count=10)
        alpha, beta = select_exponents(m)
        assert alpha < 0.0
        assert alpha + beta > -2.0
        with pytest.raises(DomainError):
            raw_weights(np.array([0.5]), "beta", alpha, beta)

    def test_round_trip_against_beta_moments(self):
        # Derive (mean, var) from known exponents via the closed-form Beta
        # moments, then recover the exponents.
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = rng.uniform(0.0, 6.0, size=2)
            mean, var = _beta_mean_var(float(a), float(b))
            m = ZpdMoments(epsilon=0.01, mean_p=mean, var_p=var, count=10)
            assert select_exponents(m) == pytest.approx((a, b), abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0.15, 0.85), st.floats(1e-4, 0.03))
    def test_matched_kernel_reproduces_moments(self, mean, var):
        bound = mean * (1.0 - mean) / 3.0
        if var >= bound:
            var = bound * 0.999
        m = ZpdMoments(epsilon=0.1, mean_p=mean, var_p=var, count=5)
        got_mean, got_var = _beta_mean_var(*select_exponents(m))
        assert got_mean == pytest.approx(mean, abs=1e-8)
        assert got_var == pytest.approx(var, abs=1e-8)
