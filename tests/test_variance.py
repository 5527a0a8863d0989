import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from zpdistill.distill_sim import SimConfig, build_world
from zpdistill.errors import DegenerateInputError, DomainError
from zpdistill.kernel import raw_weights
from zpdistill import variance
from zpdistill.numerics import log_softmax
from zpdistill.variance import (
    EmpiricalBatchStats,
    VarianceSpec,
    cov_condition,
    gamma_from_signal,
    smoothness_constant,
    variance_ratio_beta,
    variance_ratio_empirical,
)

from sim_oracles import outcomes


def _two_point_stats(weights, mus, ds) -> EmpiricalBatchStats:
    """Records whose gradient is mu +- d with probability 1/2 each."""
    mus = np.asarray(mus, dtype=np.float64)
    ds = np.asarray(ds, dtype=np.float64)
    s2 = np.sum(mus * mus, axis=1) + np.sum(ds * ds, axis=1)
    return EmpiricalBatchStats(
        weights=np.asarray(weights, dtype=np.float64),
        second_moments=s2,
        mean_gradients=mus,
    )


def _enumerated_ratio(weights, mus, ds) -> float:
    """Brute-force tr Cov(w g) / tr Cov(g) over all 2M equally likely outcomes."""
    mus = np.asarray(mus, dtype=np.float64)
    ds = np.asarray(ds, dtype=np.float64)
    w = np.concatenate([weights, weights])
    g = np.concatenate([mus + ds, mus - ds], axis=0)
    wg = w[:, None] * g

    def tr_cov(x):
        return float(np.sum(np.mean(x * x, axis=0) - np.mean(x, axis=0) ** 2))

    return tr_cov(wg) / tr_cov(g)


def _quad_moment(e1: float, e2: float, lo: float = 0.0, hi: float = 1.0) -> float:
    if lo == 0.0 and hi == 1.0:
        # QUADPACK algebraic-weight rule handles the endpoint singularities.
        val, _ = integrate.quad(lambda p: 1.0, 0.0, 1.0, weight="alg", wvar=(e1, e2))
        return val
    with warnings.catch_warnings():
        # quad flags roundoff when pushed past float64 resolution; 1e-13 is
        # still far tighter than the 1e-9 assertions that consume this.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda p: p**e1 * (1.0 - p) ** e2,
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )
    return val


def _quad_ratio(spec: VarianceSpec, epsilon: float = 0.0) -> float:
    lo, hi = epsilon, 1.0 - epsilon
    num = _quad_moment(
        2.0 * spec.alpha + spec.gamma1, 2.0 * spec.beta + spec.gamma2, lo, hi
    )
    den_w = _quad_moment(spec.alpha, spec.beta, lo, hi)
    den_s = _quad_moment(spec.gamma1, spec.gamma2, lo, hi)
    return num / (den_w * den_w * den_s)


_records = st.integers(2, 5).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(0.1, 3.0), min_size=m, max_size=m),
        st.lists(
            st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
            min_size=m,
            max_size=m,
        ),
        st.lists(
            st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
            min_size=m,
            max_size=m,
        ),
    )
)


class TestEmpiricalRatio:
    def test_two_point_enumeration_exact(self):
        weights = np.array([1.5, 0.5, 1.0])
        mus = [[1.0, 0.0], [0.2, -0.4], [0.0, 0.3]]
        ds = [[0.5, 0.5], [1.0, 0.0], [0.2, 0.9]]
        got = variance_ratio_empirical(_two_point_stats(weights, mus, ds)).ratio
        want = _enumerated_ratio(weights, mus, ds)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_trace_covariance_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m, dim = rng.integers(2, 8), rng.integers(1, 5)
            raw = rng.uniform(0.05, 4.0, m)
            weights = raw / raw.mean()
            mus = rng.normal(0.0, 1.0, (m, dim))
            ds = rng.uniform(0.1, 1.5, (m, dim))
            got = variance_ratio_empirical(_two_point_stats(weights, mus, ds)).ratio
            assert got == pytest.approx(_enumerated_ratio(weights, mus, ds), abs=1e-10)

    @settings(max_examples=60)
    @given(_records)
    def test_enumeration_property(self, rec):
        raw, mus, ds = rec
        weights = np.asarray(raw) / np.mean(raw)
        got = variance_ratio_empirical(_two_point_stats(weights, mus, ds)).ratio
        want = _enumerated_ratio(weights, mus, ds)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_unit_weights_give_ratio_one(self):
        stats = _two_point_stats(
            np.ones(3), [[0.5, 0.1], [0.0, 0.2], [0.3, 0.0]], [[0.4, 0.2]] * 3
        )
        assert variance_ratio_empirical(stats).ratio == pytest.approx(1.0, abs=1e-14)

    def test_downweighting_noisy_records_denoises(self):
        # Record 0 is pure noise with a large second moment; shifting its
        # weight to the clean record must push R below 1.
        mus = [[0.0, 0.0], [1.0, 0.5]]
        ds = [[3.0, 3.0], [0.3, 0.3]]
        skewed = variance_ratio_empirical(
            _two_point_stats(np.array([0.2, 1.8]), mus, ds)
        ).ratio
        assert skewed < 1.0
        cond = cov_condition(_two_point_stats(np.array([0.2, 1.8]), mus, ds))
        assert cond.holds
        assert cond.lhs > cond.rhs

    def test_cov_condition_quantities(self):
        stats = _two_point_stats(
            np.array([0.5, 1.5]), [[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.5, 0.5]]
        )
        w, s2 = stats.weights, stats.second_moments
        cond = cov_condition(stats)
        w2 = w * w
        assert cond.lhs == pytest.approx(
            -(np.mean(w2 * s2) - w2.mean() * s2.mean()), rel=1e-12
        )
        assert cond.rhs == pytest.approx(np.var(w) * s2.mean(), rel=1e-12)

    def test_validation(self):
        mus = [[1.0, 0.0], [0.0, 1.0]]
        ds = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(DomainError, match="mean 1"):
            _two_point_stats(np.array([1.0, 3.0]), mus, ds)
        with pytest.raises(DomainError, match="nonnegative"):
            _two_point_stats(np.array([-0.5, 2.5]), mus, ds)
        with pytest.raises(DomainError, match="shape"):
            EmpiricalBatchStats(
                weights=np.ones(2),
                second_moments=np.ones(3),
                mean_gradients=np.zeros((2, 2)),
            )
        with pytest.raises(DomainError, match="second moment"):
            EmpiricalBatchStats(
                weights=np.ones(2),
                second_moments=np.array([0.1, 0.1]),
                mean_gradients=np.array([[1.0, 0.0], [0.0, 1.0]]),
            )
        with pytest.raises(DomainError, match="batch_size"):
            EmpiricalBatchStats(
                weights=np.ones(2),
                second_moments=np.array([2.0, 2.0]),
                mean_gradients=np.array([[1.0, 0.0], [0.0, 1.0]]),
                batch_size=0,
            )

    def test_degenerate_unweighted_variance(self):
        # A single deterministic gradient has zero baseline variance.
        stats = EmpiricalBatchStats(
            weights=np.array([1.0]),
            second_moments=np.array([1.0]),
            mean_gradients=np.array([[1.0, 0.0]]),
        )
        with pytest.raises(DegenerateInputError):
            variance_ratio_empirical(stats)


class TestBetaRatio:
    def test_uniform_kernel_exact(self):
        got = variance_ratio_beta(VarianceSpec(1.0, 1.0, 0.0, 0.0))
        assert got == pytest.approx(1.2, rel=1e-12)

    def test_negative_gamma_exact(self):
        got = variance_ratio_beta(VarianceSpec(1.0, 1.0, -0.5, -0.5))
        assert got == pytest.approx(27.0 / 32.0, rel=1e-12)
        assert got < 1.0

    def test_quadrature_oracle(self):
        specs = [
            VarianceSpec(1.0, 1.0, 0.0, 0.0),
            VarianceSpec(1.0, 1.0, -0.5, -0.5),
            VarianceSpec(2.0, 1.0, 0.3, -0.2),
            VarianceSpec(0.5, 1.5, 1.0, 0.5),
            VarianceSpec(0.0, 0.0, -0.3, 0.7),
        ]
        for spec in specs:
            got = variance_ratio_beta(spec)
            assert got == pytest.approx(_quad_ratio(spec), rel=1e-9)

    def test_crossover_in_expected_band(self):
        def f(g):
            return variance_ratio_beta(VarianceSpec(1.0, 1.0, g, g)) - 1.0

        lo, hi = -0.499, -1e-6
        assert f(lo) < 0.0 < f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        crossover = 0.5 * (lo + hi)
        assert -0.5 < crossover < 0.0
        assert crossover == pytest.approx(-0.319, abs=5e-3)
        assert f(crossover) == pytest.approx(0.0, abs=1e-9)

    def test_truncated_matches_quadrature(self):
        cases = [
            (VarianceSpec(1.0, 1.0, -0.5, -0.5), 0.05),
            (VarianceSpec(1.0, 1.0, 0.0, 0.0), 0.01),
            (VarianceSpec(2.0, 1.0, 0.3, -0.2), 0.02),
        ]
        for spec, eps in cases:
            got = variance_ratio_beta(spec, epsilon=eps)
            assert got == pytest.approx(_quad_ratio(spec, eps), rel=1e-9)

    def test_truncation_vanishes_for_bounded_integrand(self):
        spec = VarianceSpec(1.0, 1.0, 0.5, 0.5)
        full = variance_ratio_beta(spec)
        assert variance_ratio_beta(spec, epsilon=1e-5) == pytest.approx(full, abs=1e-3)

    def test_validation_names_offending_argument(self):
        with pytest.raises(DomainError, match="kernel exponents"):
            VarianceSpec(-0.1, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match=re.escape("2*alpha+gamma1+1")):
            VarianceSpec(0.2, 1.0, -1.5, 0.0)
        with pytest.raises(DomainError, match=re.escape("gamma1+1")):
            VarianceSpec(0.5, 1.0, -1.0, 0.0)
        with pytest.raises(DomainError, match=re.escape("2*beta+gamma2+1")):
            VarianceSpec(1.0, 0.2, 0.0, -1.5)
        with pytest.raises(DomainError, match=re.escape("gamma2+1")):
            VarianceSpec(1.0, 0.5, 0.0, -1.0)
        with pytest.raises(DomainError, match="finite"):
            VarianceSpec(math.nan, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match=re.escape("2*alpha+gamma1+1 = inf")):
            VarianceSpec(1e308, 0.0, 0.0, 0.0)

    def test_epsilon_range(self):
        spec = VarianceSpec(1.0, 1.0, 0.0, 0.0)
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(DomainError):
                variance_ratio_beta(spec, epsilon=eps)

    @pytest.mark.parametrize("alpha", [1e3, 1e9, 1e15, 1e300])
    def test_huge_kernel_exponent_closed_form(self, alpha):
        # Oracle: B(x, 1) = 1/x, so R = (alpha + 1)^2 / (2 alpha + 1).
        got = variance_ratio_beta(VarianceSpec(alpha, 0.0, 0.0, 0.0))
        assert got == pytest.approx((alpha + 1.0) / (2.0 * alpha + 1.0) * (alpha + 1.0), rel=1e-13)

    def test_closed_form_ratio_below_the_double_range_is_named(self):
        # log R is about -1893: E[w^2 s^2] is tiny beside E[w]^2 E[s^2].
        with pytest.raises(DegenerateInputError, match="variance ratio e\\^-189"):
            variance_ratio_beta(VarianceSpec(0.0, 1000.0, 1000.0, 0.0))

    @pytest.mark.parametrize(
        "alpha, moment",
        [(1e300, "numerator"), (3400.0, "numerator"), (3300.0, "denominator")],
    )
    def test_truncated_moment_below_the_normal_range_is_named(self, alpha, moment):
        # p^alpha on [0.1, 0.9] is at most 0.9^alpha: 0 at 1e300, subnormal
        # for the numerator's p^(2 alpha) at 3400, and the product
        # kernel^2 * signal is subnormal at 3300.
        spec = VarianceSpec(alpha, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateInputError, match=f"truncated {moment}"):
            variance_ratio_beta(spec, epsilon=0.1)


class TestGammaFromSignal:
    def test_algebra(self):
        assert gamma_from_signal(1.0, 1.5, 1.3, 0.7) == (
            pytest.approx(0.7),
            pytest.approx(2.3),
        )

    @given(
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(0.1, 3),
        st.floats(0.1, 3),
    )
    def test_signal_round_trip(self, a_s, b_s, a_p, b_p):
        g1, g2 = gamma_from_signal(a_s, b_s, a_p, b_p)
        # The defining identity: snr^2 = signal^2 / second moment.
        assert 2.0 * a_s - g1 == pytest.approx(a_p, abs=1e-12)
        assert 2.0 * b_s - g2 == pytest.approx(b_p, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            gamma_from_signal(math.inf, 0.0, 1.0, 1.0)


def _golden_weights():
    """The golden world and unit-mean beta weights from its step-0 rollouts."""
    world = build_world(SimConfig())
    raw = raw_weights(outcomes(world, 8, "rollout").mean(axis=0), "beta", alpha=1.0, beta=1.0)
    return world, raw / raw.mean()


class TestSmoothnessConstant:
    def test_matches_eigvalsh_on_golden_world(self):
        world, w = _golden_weights()
        gram = sum(wi * np.outer(x, x) for wi, x in zip(w, world.features)) / len(w)
        want = 0.5 * np.linalg.eigvalsh(gram)[-1]
        assert smoothness_constant(world.features, w) == pytest.approx(want, rel=1e-12)
        # eta = 6 on this world gives the documented eta * L of about 0.32.
        assert 6.0 * want == pytest.approx(0.32, abs=0.01)

    def test_bounds_the_forward_kl_gradient_change(self):
        # L is a Lipschitz constant of the weighted forward-KL gradient in theta.
        world, w = _golden_weights()
        pt = np.exp(world.teacher_log_probs)

        def grad(theta):
            ps = np.exp(log_softmax(world.features @ theta, axis=1))
            return world.features.T @ ((w / len(w))[:, None] * (ps - pt))

        L = smoothness_constant(world.features, w)
        rng = np.random.default_rng(5)
        for scale in (1e-3, 0.1, 3.0):
            theta = world.theta + rng.standard_normal(world.theta.shape)
            step = scale * rng.standard_normal(world.theta.shape)
            change = np.linalg.norm(grad(theta + step) - grad(theta))
            assert change <= L * np.linalg.norm(step)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 3, 7, 4096]),
    )
    def test_matches_eigvalsh_on_random_rows(self, n, f, seed, zero_share, rows):
        # Rank-deficient, zero-weighted and scaled-column cases included, and
        # the Gram sum over row blocks of 1, 3, 7 and the default width.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, f)) * rng.uniform(0.0, 3.0, size=f)
        w = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) >= zero_share)
        want = 0.5 * np.linalg.eigvalsh((x.T * w) @ x / n)[-1]
        with mock.patch.object(variance, "_GRAM_ROWS", rows):
            got = smoothness_constant(x, w)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_tied_top_eigenvalue_off_the_first_axis(self):
        # Rows e_2 and e_3 with equal weight: lambda_max = 1/2 twice, and
        # the top eigenspace has no e_1 component.
        x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert smoothness_constant(x, np.ones(2)) == pytest.approx(0.25, rel=1e-15)

    def test_zero_weights(self):
        assert smoothness_constant(np.ones((3, 2)), np.zeros(3)) == 0.0

    @pytest.mark.parametrize(
        "features, weights",
        [
            (np.ones((3, 2)), np.ones(2)),
            (np.ones(3), np.ones(3)),
            (np.ones((0, 2)), np.ones(0)),
            (np.ones((2, 2)), np.array([1.0, -1.0])),
        ],
    )
    def test_rejects_mismatched_shapes(self, features, weights):
        with pytest.raises(DomainError):
            smoothness_constant(features, weights)
