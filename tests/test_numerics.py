import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpdistill.errors import DomainError
from zpdistill.numerics import (
    beta_fn,
    key_uniforms,
    label_keys,
    label_tokens,
    log_beta_fn,
    log_softmax,
    sech,
    sech2,
    stream,
)
from zpdistill.numerics import _philox4x64, _sum_axis0, _token

scipy_special = pytest.importorskip("scipy.special")


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

    def test_matches_betaln_over_log_grid(self):
        # Oracle: scipy.special.betaln on a, b in {1e-300, 1e-280, ..., 1e300},
        # within 1e-12 of max(1, |log B|). betaln returns nan or -inf once
        # the smaller argument p reaches 1e80 and the larger q is 1e10 p or
        # more; there the oracle is lgamma(p) - p log q - (p - 1) p / (2 q),
        # whose omitted terms are below 1e-19 relative.
        grid = 10.0 ** np.arange(-300, 301, 20)
        a, b = np.meshgrid(grid, grid)
        for x, y, want in zip(a.ravel().tolist(), b.ravel().tolist(),
                              scipy_special.betaln(a, b).ravel().tolist()):
            p, q = min(x, y), max(x, y)
            if not math.isfinite(want):
                assert p >= 1e80 and q >= 1e10 * p
                want = math.lgamma(p) - p * math.log(q) - (p - 1.0) * (p / (2.0 * q))
            got = log_beta_fn(x, y)
            assert math.isfinite(want)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, y, got, want)

    @pytest.mark.parametrize("x", [10.0, 1e9, 1e15, 2e300 + 1.0, 1e308])
    def test_large_argument_against_one(self, x):
        # B(x, 1) = 1/x exactly, where lgamma(x) - lgamma(x + 1) cancels.
        assert log_beta_fn(x, 1.0) == pytest.approx(-math.log(x), rel=1e-15)
        assert log_beta_fn(1.0, x) == log_beta_fn(x, 1.0)

    @given(st.floats(0.0, 15.0), st.floats(-300.0, 300.0))
    def test_recurrence_for_large_arguments(self, log_a, log_b):
        # B(a+1, b) = B(a, b) * a / (a + b), within and across the branches.
        a, b = 10.0**log_a, 10.0**log_b
        lhs = log_beta_fn(a + 1.0, b)
        rhs = log_beta_fn(a, b) + math.log(a / (a + b))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-12)

    def test_rejects_arguments_outside_the_domain(self):
        for a, b in [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0), (1e308, 1e308)]:
            with pytest.raises(DomainError, match="log_beta_fn"):
                log_beta_fn(a, b)


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

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, x):
        with pytest.raises(DomainError, match="sech requires finite x"):
            sech(x)


def _moveaxis_log_softmax(
    logits: np.ndarray,
    axis: int = -1,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """log_softmax as written with np.max, np.moveaxis and np.expand_dims,
    kept as the bit-for-bit oracle."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    shifted = np.subtract(z, zmax, out=out)
    exps = np.exp(shifted, out=work)
    lse = np.log(np.expand_dims(_sum_axis0(np.moveaxis(exps, axis, 0)), axis))
    return np.subtract(shifted, lse, out=shifted)


@st.composite
def _logits_and_axis(draw):
    """1-3-D float64 logits, C- or Fortran-ordered, with optional -inf
    entries and optionally constant along the drawn axis (any valid axis,
    negative ones included)."""
    shape = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 4, 8, 9, 17)), min_size=1, max_size=3)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from((1.0, 30.0, 1e3)))
    if draw(st.booleans()):
        x = np.broadcast_to(np.take(x, [0], axis=axis), shape)
    if draw(st.booleans()):
        x = np.where(rng.random(shape) < 0.3, -np.inf, x)
    order = draw(st.sampled_from("CF"))
    return np.array(x, order=order), axis


class TestSoftmax:
    def test_row_normalization_and_stability(self):
        logits = np.array([[1000.0, 1000.0, 999.0], [-1000.0, 0.0, 1.0]])
        p = np.exp(log_softmax(logits, axis=1))
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vocabulary_major_equals_problem_major_bit_for_bit(self, data):
        # Oracle: the plain numpy formula on the C-ordered (N, V) logits,
        # reducing along axis 1.
        x = data.draw(_rows_strategy(allow_special=False))
        shifted = x - np.max(x, axis=1, keepdims=True)
        want = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
        assert np.array_equal(log_softmax(x, axis=1), want)
        vn = np.ascontiguousarray(x.T)
        assert np.array_equal(log_softmax(vn, axis=0), want.T)
        out, work = np.empty_like(vn), np.empty_like(vn)
        assert log_softmax(vn, axis=0, out=out, work=work) is out
        assert np.array_equal(out, want.T)

    def test_shift_invariance(self):
        logits = np.array([0.5, -1.0, 2.0])
        assert np.allclose(log_softmax(logits + 123.0), log_softmax(logits), atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(case=_logits_and_axis(), buffers=st.sampled_from(("none", "fresh", "alias", "alias-only")))
    def test_matches_moveaxis_oracle_bit_for_bit(self, case, buffers):
        # buffers: no out/work, fresh out and work, out aliasing the logits
        # with a fresh work, or out aliasing the logits alone.
        x, axis = case
        results = []
        for f in (_moveaxis_log_softmax, log_softmax):
            z = x.copy(order="K")
            out = {"none": None, "fresh": np.empty_like(z)}.get(buffers, z)
            work = np.empty_like(z) if buffers in ("fresh", "alias") else None
            got = f(z, axis, out=out, work=work)
            assert out is None or got is out
            results.append((got, work))
        (want, want_work), (got, got_work) = results
        assert got.shape == want.shape == x.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if work is not None:
            assert np.array_equal(got_work.view(np.uint64), want_work.view(np.uint64))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4)])
    def test_out_of_range_axis_raises_as_oracle(self, shape):
        x = np.zeros(shape)
        for axis in (len(shape), -len(shape) - 1):
            with pytest.raises(IndexError) as want:  # numpy's AxisError
                _moveaxis_log_softmax(x, axis)
            with pytest.raises(IndexError) as got:
                log_softmax(x, axis)
            assert type(got.value) is type(want.value)
            assert type(got.value).__name__ == "AxisError"
            assert str(got.value) == str(want.value)


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

    def test_requires_a_key_part(self):
        with pytest.raises(DomainError, match="stream requires at least one key part"):
            stream()

    def test_string_int_tokens_do_not_collide(self):
        # "1" as text and 1 as a number must key different streams.
        assert not np.array_equal(stream(1, "x").random(4), stream("1", "x").random(4))

    def test_rejects_unsupported_parts(self):
        with pytest.raises(DomainError):
            stream(1.5)
        with pytest.raises(DomainError):
            stream(True)


_labels = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=12),
    # Embedded and trailing NULs and multi-byte UTF-8.
    st.text(alphabet="\x00a\x1fé☃𝄞", max_size=6),
)
_prefix = st.tuples(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.text(max_size=10),
    st.integers(min_value=0, max_value=10**6),
)


class TestStreamUniforms:
    @given(prefix=_prefix, labels=st.lists(_labels, max_size=12), k=st.integers(0, 40))
    def test_columns_equal_single_streams(self, prefix, labels, k):
        u = key_uniforms(label_keys(prefix, label_tokens(labels)), k)
        assert u.shape == (k, len(labels)) and u.dtype == np.float64
        for column, label in zip(u.T, labels):
            assert np.array_equal(column, stream(*prefix, label).random(k))

    @given(prefix=_prefix, labels=st.lists(_labels, max_size=12), k=st.integers(1, 17),
           data=st.data())
    def test_a_subset_of_tokens_gives_the_same_columns(self, prefix, labels, k, data):
        # What a minibatch relies on: its rows of the world's tokens draw
        # what the full set draws in those columns.
        tokens = label_tokens(labels)
        rows = data.draw(st.lists(st.integers(0, max(len(labels) - 1, 0)),
                                  max_size=len(labels)))
        full = key_uniforms(label_keys(prefix, tokens), k)
        assert np.array_equal(key_uniforms(label_keys(prefix, tokens[rows]), k), full[:, rows])

    @given(groups=st.lists(st.tuples(_prefix, st.lists(_labels, max_size=6)), min_size=1,
                           max_size=5),
           k=st.integers(0, 23))
    def test_one_pass_over_several_prefixes_keys_equals_each_prefix_alone(self, groups, k):
        # What the simulator's shared reverse-KL passes rely on; groups may
        # be empty and k need not be a multiple of 4.
        keys = [label_keys(prefix, label_tokens(labels)) for prefix, labels in groups]
        u = key_uniforms(np.concatenate(keys), k)
        edges = np.cumsum([len(labels) for _, labels in groups])
        assert u.shape == (k, edges[-1])
        for (prefix, labels), part in zip(groups, np.split(u, edges[:-1], axis=1)):
            assert np.array_equal(part, key_uniforms(label_keys(prefix, label_tokens(labels)), k))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 13])
    def test_one_pass_with_an_empty_group_and_odd_k(self, k):
        groups = [((7, "revkl", 3), ["p0000", "p0001"]), ((7, "revkl", 4), []),
                  ((7, "revkl", 5), ["p0001", "p0002", "p0003"])]
        keys = np.concatenate([label_keys(p, label_tokens(labels)) for p, labels in groups])
        u = key_uniforms(keys, k)
        columns = [(p, label) for p, labels in groups for label in labels]
        assert u.shape == (k, 5)
        for column, (prefix, label) in zip(u.T, columns):
            assert np.array_equal(column, stream(*prefix, label).random(k))

    @pytest.mark.parametrize("k", [-1, 2.0, True])
    def test_key_uniforms_rejects_bad_k(self, k):
        with pytest.raises(DomainError, match="key_uniforms"):
            key_uniforms(label_keys((7,), label_tokens(["p0000"])), k)

    def test_mixed_labels_and_no_labels(self):
        labels = [3, -7, 0, "p0000", "a\x00b", "\x00", "é☃", ""]
        u = key_uniforms(label_keys((7, "rollout", 2), label_tokens(labels)), 6)
        for j, label in enumerate(labels):
            assert np.array_equal(u[:, j], stream(7, "rollout", 2, label).random(6))
        assert key_uniforms(label_keys((7,), label_tokens([])), 5).shape == (5, 0)

    def test_empty_prefix_is_one_part_keys(self):
        u = key_uniforms(label_keys((), label_tokens(["p0000", 3])), 6)
        assert np.array_equal(u[:, 0], stream("p0000").random(6))
        assert np.array_equal(u[:, 1], stream(3).random(6))

    @given(labels=st.lists(_labels, max_size=12))
    def test_tokens_read_back_exactly(self, labels):
        # numpy strips trailing NULs from S items; every token ends in 0x1f.
        assert label_tokens(labels).tolist() == [_token(label) for label in labels]

    def test_tokens_of_chunks_with_differing_widths_read_back_exactly(self):
        # Tokens are made 1 024 at a time; the widest sets the array's width.
        labels = [f"p{i}" for i in range(1500)] + [2**70] + [f"q{i}" for i in range(1500)]
        assert label_tokens(labels).tolist() == [_token(label) for label in labels]

    @pytest.mark.parametrize("bad", [True, False, 1.5, None, b"p0"])
    def test_rejects_unsupported_labels(self, bad):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            label_tokens(["p0000", bad])
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            key_uniforms(label_keys((7, bad, 0), label_tokens(["p0000"])), 4)

    @pytest.mark.parametrize("tokens", [["p0000"], [b"str:p0000\x1f"], np.array(["p0000"])])
    def test_takes_only_label_tokens(self, tokens):
        with pytest.raises(DomainError, match="label_tokens"):
            key_uniforms(label_keys((7,), tokens), 4)

    @pytest.mark.parametrize("k", [-1, 2.0, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(DomainError):
            key_uniforms(label_keys((7,), label_tokens(["p0000"])), k)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
    def test_philox_matches_numpy_philox(self, blocks):
        # An oracle independent of stream(): numpy's own Philox4x64-10 on
        # the same 128-bit keys, low word first.
        rng = np.random.default_rng(blocks)
        keys = rng.integers(0, 2**64, size=(7, 2), dtype=np.uint64)
        keys[0] = 0
        keys[1] = np.iinfo(np.uint64).max
        words = _philox4x64(keys, blocks)
        assert words.shape == (4 * blocks, 7)
        for column, (lo, hi) in zip(words.T, keys):
            raw = np.random.Philox(key=int(lo) | int(hi) << 64).random_raw(4 * blocks)
            assert np.array_equal(column, raw)


_SUM_WIDTHS = (2, 5, 7, 8, 9, 16, 17, 128, 129, 300)


@st.composite
def _rows_strategy(draw, allow_special=True, max_exp=300):
    """(N, V) float64 rows for V in _SUM_WIDTHS: signed values across many
    magnitudes, and optionally rows of -0.0 and entries of +-inf and nan."""
    v = draw(st.sampled_from(_SUM_WIDTHS))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from((0.0, 0.01, 0.1, 1.0)))
    exponents = spread * rng.integers(-max_exp, max_exp + 1, size=(n, v))
    x = rng.standard_normal((n, v)) * 10.0**exponents
    if allow_special:
        for row in range(n):
            kind = draw(st.sampled_from(("plain", "negzero", "special")))
            if kind == "negzero":
                x[row] = -0.0
            elif kind == "special":
                picks = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=3))
                x[row, picks] = draw(st.sampled_from((np.inf, -np.inf, np.nan, -0.0)))
    return x


class TestSumAxis0:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(x=_rows_strategy())
    def test_equals_numpy_row_sum_bit_for_bit(self, x):
        # Oracle: np.sum along axis 1 of the C-ordered (N, V) rows.
        want = np.sum(x, axis=1)
        for a in (np.ascontiguousarray(x.T), x.T):
            got = _sum_axis0(a)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rows_of_negative_zero_sum_to_positive_zero(self):
        for v in _SUM_WIDTHS:
            got = _sum_axis0(np.full((v, 3), -0.0))
            assert np.array_equal(got, np.zeros(3)) and not np.signbit(got).any()
