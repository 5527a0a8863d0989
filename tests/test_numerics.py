import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpdistill.errors import DomainError
from zpdistill.numerics import (
    beta_fn,
    log_beta_fn,
    log_gamma,
    log_softmax,
    sech,
    sech2,
    softmax,
    stream,
    stream_uniforms,
)

scipy_special = pytest.importorskip("scipy.special")


class TestLogGamma:
    def test_matches_scipy_over_wide_range(self):
        xs = np.concatenate([np.linspace(1e-3, 10, 200), [50.0, 170.0, 1e4]])
        for x in xs:
            assert log_gamma(float(x)) == pytest.approx(
                float(scipy_special.gammaln(x)), rel=1e-13, abs=1e-13
            )

    def test_integer_factorials(self):
        for n in range(1, 10):
            assert log_gamma(float(n)) == pytest.approx(math.log(math.factorial(n - 1)), abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestBetaFn:
    def test_known_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        # B(1/2, 1/2) = pi.
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_matches_quadrature(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(0.2, 4.0, size=2)
            val, err = scipy_integrate.quad(
                lambda p: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0)
            )
            assert beta_fn(float(a), float(b)) == pytest.approx(val, rel=1e-10)

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    def test_symmetry(self, a, b):
        assert log_beta_fn(a, b) == pytest.approx(log_beta_fn(b, a), rel=1e-12)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_recurrence(self, a, b):
        # B(a+1, b) = B(a, b) * a / (a + b).
        lhs = log_beta_fn(a + 1.0, b)
        rhs = log_beta_fn(a, b) + math.log(a / (a + b))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSech:
    def test_values(self):
        assert sech(0.0) == 1.0
        assert sech(math.log(2.0)) == pytest.approx(0.8, rel=1e-14)
        assert sech2(math.log(2.0)) == pytest.approx(0.64, rel=1e-13)

    @given(st.floats(-30.0, 30.0))
    def test_matches_cosh_and_even(self, x):
        assert sech(x) == pytest.approx(1.0 / math.cosh(x), rel=1e-13)
        assert sech(x) == pytest.approx(sech(-x), rel=1e-13)

    def test_no_overflow_for_large_arguments(self):
        assert sech(1000.0) == 0.0 or sech(1000.0) < 1e-300


class TestSoftmax:
    def test_row_normalization_and_stability(self):
        logits = np.array([[1000.0, 1000.0, 999.0], [-1000.0, 0.0, 1.0]])
        p = softmax(logits, axis=1)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7)) * 10
        assert np.allclose(np.exp(log_softmax(logits, axis=1)), softmax(logits, axis=1))

    def test_shift_invariance(self):
        logits = np.array([0.5, -1.0, 2.0])
        assert np.allclose(softmax(logits + 123.0), softmax(logits), atol=1e-12)


class TestStream:
    def test_deterministic_and_order_free(self):
        a = stream(7, "rollout", 3, "p0001").random(5)
        b = stream(7, "rollout", 3, "p0001").random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_give_distinct_streams(self):
        base = stream(7, "rollout", 3, "p0001").random(4)
        for key in [(8, "rollout", 3, "p0001"), (7, "eval", 3, "p0001"),
                    (7, "rollout", 4, "p0001"), (7, "rollout", 3, "p0002")]:
            assert not np.array_equal(stream(*key).random(4), base)

    def test_string_int_tokens_do_not_collide(self):
        # "1" as text and 1 as a number must key different streams.
        assert not np.array_equal(stream(1, "x").random(4), stream("1", "x").random(4))

    def test_rejects_unsupported_parts(self):
        with pytest.raises(DomainError):
            stream(1.5)
        with pytest.raises(DomainError):
            stream(True)


_labels = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80), st.text(max_size=12)
)


class TestStreamUniforms:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        purpose=st.text(max_size=10),
        step=st.integers(min_value=0, max_value=10**6),
        labels=st.lists(_labels, max_size=12),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_rows_equal_single_streams(self, seed, purpose, step, labels, k):
        u = stream_uniforms((seed, purpose, step), labels, k)
        assert u.shape == (len(labels), k) and u.dtype == np.float64
        for row, label in zip(u, labels):
            assert np.array_equal(row, stream(seed, purpose, step, label).random(k))

    def test_empty_prefix_is_one_part_keys(self):
        u = stream_uniforms((), ["p0000", 3], 6)
        assert np.array_equal(u[0], stream("p0000").random(6))
        assert np.array_equal(u[1], stream(3).random(6))

    @pytest.mark.parametrize("bad", [True, False, 1.5, None, b"p0"])
    def test_rejects_unsupported_labels(self, bad):
        with pytest.raises(DomainError):
            stream_uniforms((7, "rollout", 0), ["p0000", bad], 4)
        with pytest.raises(DomainError):
            stream_uniforms((7, bad, 0), ["p0000"], 4)

    @pytest.mark.parametrize("k", [-1, 2.0, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(DomainError):
            stream_uniforms((7,), ["p0000"], k)

