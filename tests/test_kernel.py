import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zpdistill.errors import DegenerateInputError, DomainError, InsufficientDataError
from zpdistill.kernel import (
    SCHEMES,
    KernelParams,
    ZpdMoments,
    at_flat_boundary,
    beta_weight,
    kernel_peak,
    raw_weights,
    select_exponents,
    unit_mean,
    zpd_moments,
)
from zpdistill.passrate import hard_filter


def _beta_mean_var(alpha: float, beta: float) -> tuple[float, float]:
    # Closed-form moments of Beta(alpha+1, beta+1): the independent oracle
    # for the moment-matching round trip.
    a, b = alpha + 1.0, beta + 1.0
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, var


class TestBetaWeight:
    def test_default_kernel_values(self):
        k = KernelParams(1.0, 1.0)
        assert beta_weight(0.5, k) == pytest.approx(0.25, abs=1e-15)
        assert beta_weight(0.2, k) == pytest.approx(0.16, abs=1e-15)
        assert beta_weight(0.0, k) == 0.0
        assert beta_weight(1.0, k) == 0.0

    def test_flat_kernel_uses_zero_power_convention(self):
        # 0^0 = 1: the flat kernel weighs the boundary like everything else.
        k = KernelParams(0.0, 0.0)
        for p in (0.0, 0.3, 1.0):
            assert beta_weight(p, k) == 1.0

    def test_one_sided_exponents(self):
        assert beta_weight(0.0, KernelParams(0.0, 2.0)) == 1.0
        assert beta_weight(1.0, KernelParams(0.0, 2.0)) == 0.0
        assert beta_weight(1.0, KernelParams(3.0, 0.0)) == 1.0

    def test_rejects_negative_exponents_and_bad_p(self):
        with pytest.raises(DomainError):
            beta_weight(0.5, KernelParams(-0.5, 1.0))
        with pytest.raises(DomainError):
            beta_weight(1.2, KernelParams(1.0, 1.0))

    @given(
        # Keep p away from the denormal range where 1-p rounds to 1.
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0 - 1e-6)),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
    )
    def test_reflection_symmetry(self, p, a, b):
        assert beta_weight(p, KernelParams(a, b)) == pytest.approx(
            beta_weight(1.0 - p, KernelParams(b, a)), rel=1e-9, abs=1e-12
        )

    @given(st.floats(0.001, 0.999), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_nonnegative_and_bounded_by_one(self, p, a, b):
        w = beta_weight(p, KernelParams(a, b))
        assert 0.0 <= w <= 1.0


class TestKernelPeak:
    def test_symmetric_peak_at_half(self):
        assert kernel_peak(KernelParams(1.0, 1.0)) == pytest.approx(0.5)
        assert kernel_peak(KernelParams(2.0, 2.0)) == pytest.approx(0.5)

    def test_peak_formula_against_grid_argmax(self):
        # Oracle: dense grid argmax of the kernel itself.
        grid = np.linspace(0.0, 1.0, 200001)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.uniform(0.2, 4.0, size=2)
            k = KernelParams(float(a), float(b))
            w = grid**a * (1.0 - grid) ** b
            assert kernel_peak(k) == pytest.approx(grid[np.argmax(w)], abs=1e-5)

    def test_flat_kernel_has_no_peak(self):
        with pytest.raises(DegenerateInputError):
            kernel_peak(KernelParams(0.0, 0.0))

    def test_one_sided_peaks_at_boundary(self):
        assert kernel_peak(KernelParams(0.0, 2.0)) == 0.0
        assert kernel_peak(KernelParams(3.0, 0.0)) == 1.0


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
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.floats(0.5, 1.0),
    )
    def test_bit_identical_to_scalar_rules(self, counts, k, alpha, beta, floor, lo, hi):
        ps = [c / k for c in counts]
        p = np.array(counts) / k
        params = KernelParams(alpha, beta)
        want_beta = [max(beta_weight(v, params), floor) for v in ps]
        want_hard = [1.0 if hard_filter(v, lo, hi) else max(0.0, floor) for v in ps]
        assert np.array_equal(raw_weights(p, "beta", alpha, beta, floor=floor), want_beta)
        assert np.array_equal(raw_weights(p, "hard", lo=lo, hi=hi, floor=floor), want_hard)
        assert np.array_equal(raw_weights(p, "unweighted", floor=floor), np.ones(len(ps)))

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
        k = select_exponents(m)
        assert k.alpha == pytest.approx(1.0, abs=1e-10)
        assert k.beta == pytest.approx(1.0, abs=1e-10)

    def test_flat_boundary_detection(self):
        m = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=1 / 12, count=10)
        k = select_exponents(m)
        assert at_flat_boundary(m)
        assert k.alpha == pytest.approx(0.0, abs=1e-9)
        assert k.beta == pytest.approx(0.0, abs=1e-9)

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
        k = select_exponents(m)
        assert k.alpha < 0.0
        assert k.alpha + k.beta > -2.0
        with pytest.raises(DomainError):
            beta_weight(0.5, k)

    def test_round_trip_against_beta_moments(self):
        # Derive (mean, var) from known exponents via the closed-form Beta
        # moments, then recover the exponents.
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = rng.uniform(0.0, 6.0, size=2)
            mean, var = _beta_mean_var(float(a), float(b))
            m = ZpdMoments(epsilon=0.01, mean_p=mean, var_p=var, count=10)
            k = select_exponents(m)
            assert k.alpha == pytest.approx(a, abs=1e-9)
            assert k.beta == pytest.approx(b, abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0.15, 0.85), st.floats(1e-4, 0.03))
    def test_matched_kernel_reproduces_moments(self, mean, var):
        bound = mean * (1.0 - mean) / 3.0
        if var >= bound:
            var = bound * 0.999
        m = ZpdMoments(epsilon=0.1, mean_p=mean, var_p=var, count=5)
        k = select_exponents(m)
        got_mean, got_var = _beta_mean_var(k.alpha, k.beta)
        assert got_mean == pytest.approx(mean, abs=1e-8)
        assert got_var == pytest.approx(var, abs=1e-8)
