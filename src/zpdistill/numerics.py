"""Special functions and numeric plumbing used by the closed-form theory.

log_gamma routes through the platform lgamma (~1e-15 relative error). Beta
values are assembled in log space, from lgamma below 10 and from Stirling's
series above, where an lgamma difference would cancel (as in R's lbeta).

stream() is the deterministic RNG contract for the simulator: a counter-based
Philox generator keyed by a tuple of labels. Equal key tuples give equal
streams regardless of creation order or how many other streams exist, which
is what makes per-problem sampling order-independent.

stream_uniforms() draws the first k uniforms of many such streams at once,
one per label under a shared key prefix, and reproduces stream() bit for
bit; stream() remains the contract and the test oracle. The labels come as
label_tokens(), built once (per world in the simulator). It runs
Philox4x64-10 in numpy over all keys together (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011) on (blocks, N) words, with
round 0 folded, and returns (k, N) uniforms, one column per label.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "beta_fn",
    "log_beta_fn",
    "sech",
    "sech2",
    "log_softmax",
    "stream",
    "label_tokens",
    "stream_uniforms",
]


def _u64_halves(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m, its low 32 bits and its high 32 bits, as 0-d uint64 arrays."""
    return np.array(m, np.uint64), np.array(m & 0xFFFFFFFF, np.uint64), np.array(m >> 32, np.uint64)


# Philox4x64-10 multipliers, with their 32-bit halves, and Weyl key
# increments, as numpy's Philox uses. The constants are 0-d uint64 arrays,
# not numpy scalars: a ufunc converts a scalar operand on every call, which
# cost 0.3-0.8 us of a 1-1.5 us call on a (200,) uint64 array (numpy 2.4),
# but takes a 0-d array as it is.
_PHILOX_M0 = _u64_halves(0xD2E7470EE14C6C93)
_PHILOX_M1 = _u64_halves(0xCA5A826395121157)
_PHILOX_W0 = np.array(0x9E3779B97F4A7C15, np.uint64)
_PHILOX_W1 = np.array(0xBB67AE8584CAA73B, np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.array(0xFFFFFFFF, np.uint64)
_U32 = np.array(32, np.uint64)
_U11 = np.array(11, np.uint64)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _stirling(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x) for x >= 10, by Stirling's series to 3e-17."""
    t = 1.0 / (x * x)
    return 0.5 * math.log(2.0 * math.pi) + (1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (
        1 / 1680 - t * (1 / 1188 - t * (691 / 360360 - t / 156)))))) / x


def log_beta_fn(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0 with a finite sum, to ~1e-15 of max(1, |log B|)."""
    s = a + b
    if not (a > 0.0 and b > 0.0 and math.isfinite(s)):
        raise DomainError(f"log_beta_fn requires a, b > 0 with a finite sum, got ({a!r}, {b!r})")
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return log_gamma(a) + log_gamma(b) - log_gamma(s)
    # By Stirling's series lgamma(q) - lgamma(s) = p - p log s + common; for
    # p >= 10 the last line is lgamma(p) + p - p log s, with nothing cancelled.
    common = (q - 0.5) * math.log1p(-p / s) + _stirling(q) - _stirling(s)
    if p < 10.0:
        return math.lgamma(p) + p - p * math.log(s) + common
    return _stirling(p) + (p - 0.5) * math.log(p / s) - 0.5 * math.log(s) + common


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for a, b > 0, evaluated in log space."""
    return math.exp(log_beta_fn(a, b))


def sech(x: float) -> float:
    """Hyperbolic secant, safe for large |x|."""
    if not math.isfinite(x):
        raise DomainError(f"sech requires finite x, got {x!r}")
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def sech2(x: float) -> float:
    """Squared hyperbolic secant, safe for large |x|."""
    s = sech(x)
    return s * s


def log_softmax(
    logits: np.ndarray,
    axis: int = -1,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Row-stable log softmax.

    out receives the result and may be logits itself; work receives the
    exponentials of the shifted logits. Both are float64 arrays shaped like
    logits, or None for fresh ones; the arithmetic is the same either way.
    The normaliser adds along axis in numpy's pairwise order whatever the
    memory layout, so log_softmax(x.T, axis=0) is log_softmax(x, axis=1).T
    bit for bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=axis, keepdims=True)
    shifted = np.subtract(z, zmax, out=out)
    exps = np.exp(shifted, out=work)
    ax = axis % z.ndim  # z.max has checked the axis
    front = exps.transpose((ax, *(i for i in range(z.ndim) if i != ax)))
    lse = np.log(_sum_axis0(front).reshape(zmax.shape))
    return np.subtract(shifted, lse, out=shifted)


def _sum_axis0(a: np.ndarray) -> np.ndarray:
    """a summed over axis 0, bit for bit as np.sum adds one contiguous row.

    np.sum(x, axis=1) on a C-ordered x adds each row in numpy's pairwise
    order, while a sum over axis 0 adds in sequence. This adds a's slices
    in the pairwise order, so _sum_axis0(x.T) equals np.sum(x, axis=1) for
    any layout: fewer than 8 slices in sequence; up to 128 in 8 running
    sums r0..r7 over blocks of 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover slices; more
    split in two at a multiple of 8. Like np.sum it starts from 0.0, so
    slices of -0.0 sum to 0.0.
    """
    n = a.shape[0]
    if n < 8:
        total = np.zeros(a.shape[1:])
        for row in a:
            total += row
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_axis0(a[:half]) + _sum_axis0(a[half:])
    end = n - n % 8
    r = a[:8] + a[8:16] if end >= 16 else a[:8].copy()
    for i in range(16, end, 8):
        r += a[i : i + 8]
    for step in (1, 2, 4):
        r[:: 2 * step] += r[step :: 2 * step]
    total = r[0]
    for row in a[end:]:
        total += row
    return total + 0.0


def _check_key_parts(parts: Sequence[int | str]) -> None:
    """Every key part is an int or a str (never a bool), checked once per type;
    the error names the first offending part."""
    for kind in dict.fromkeys(map(type, parts)):
        if kind is bool or not issubclass(kind, (int, str)):
            bad = next(part for part in parts if type(part) is kind)
            raise DomainError(f"stream key parts must be int or str, got {bad!r}")


def _token(part: int | str) -> bytes:
    """A key part's typed token, b"<type>:<part>\x1f"."""
    return f"{type(part).__name__}:{part}\x1f".encode()


def _hash_key(h: hashlib.blake2b, key_parts: Sequence[int | str]) -> hashlib.blake2b:
    """Feed each key part's typed token into the blake2b state h."""
    _check_key_parts(key_parts)
    for part in key_parts:
        h.update(_token(part))
    return h


def stream(*key_parts: int | str) -> np.random.Generator:
    """Counter-based generator for a labelled stream.

    The key tuple is hashed with blake2b into a 128-bit Philox key, so the
    stream depends only on the labels, not on creation order. Labels may be
    ints or strings; mixed tuples are fine.
    """
    if not key_parts:
        raise DomainError("stream requires at least one key part")
    h = _hash_key(hashlib.blake2b(digest_size=16), key_parts)
    key = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(
    multiplier: tuple[np.ndarray, np.ndarray, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, for
    multiplier = (m, low 32 bits of m, high 32 bits of m).

    The high word is built from 32-bit halves as in Warren, Hacker's Delight
    (2nd ed.), section 8-2, in place in four buffers of x's shape; no
    partial sum can exceed 2**64 - 1, so every step is exact.
    """
    m, m_lo, m_hi = multiplier
    x_lo = x & _LOW32
    hi = x >> _U32
    w = m_lo * x_lo
    x_lo *= m_hi
    t = m_lo * hi
    hi *= m_hi
    w >>= _U32
    t += w
    np.bitwise_and(t, _LOW32, out=w)
    t >>= _U32
    w += x_lo
    hi += t
    w >>= _U32
    hi += w
    return hi, np.multiply(m, x, out=t)


def _philox4x64(keys: np.ndarray, blocks: int) -> np.ndarray:
    """(4 * blocks, N) output words of Philox4x64-10 for the (N, 2) keys.

    Row j is word j of each key's stream. numpy increments the counter
    before generating a block, so a fresh generator's b-th block is keyed at
    counter b + 1 with the other three counter words zero. Round 0 is
    therefore folded: it leaves c0 = k0, c1 = 0, c2 = hi(M0 * ctr) ^ k1 and
    c3 = lo(M0 * ctr), where the products are (blocks, 1) constants.
    """
    k0, k1 = keys[:, 0], keys[:, 1]
    hi, lo = _mulhilo(_PHILOX_M0, np.arange(1, blocks + 1, dtype=np.uint64)[:, None])
    c0, c1, c2, c3 = k0, np.uint64(0), hi ^ k1, lo
    for _ in range(1, _PHILOX_ROUNDS):
        k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= k0
        c2 = hi0 ^ c3  # c3 is (blocks, 1) and hi0 (N,) in round 1
        c2 ^= k1
        c0, c1, c3 = hi1, lo1, lo0
    return np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, keys.shape[0])


def label_tokens(labels: Sequence[int | str]) -> np.ndarray:
    """(N,) bytes array of each label's typed key token, for stream_uniforms.

    numpy drops trailing NULs from an S item, but every token ends in
    b"\x1f", so each item reads back as its token exactly.
    """
    _check_key_parts(labels)
    width = max(map(len, map(_token, labels)), default=1)
    return np.fromiter(map(_token, labels), dtype=f"S{width}", count=len(labels))


def stream_uniforms(prefix: Sequence[int | str], tokens: np.ndarray, k: int) -> np.ndarray:
    """(k, N) uniforms; column j is stream(*prefix, labels[j]).random(k)
    for tokens = label_tokens(labels).

    The shared prefix is hashed once and each token is added to a copy of
    that state, which gives stream()'s keys. Philox then runs over all keys
    at once, and each output word x becomes (x >> 11) * 2**-53, numpy's
    double conversion, so the columns match stream() bit for bit.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"stream_uniforms requires an integer k >= 0, got {k!r}")
    if not isinstance(tokens, np.ndarray) or tokens.dtype.kind != "S" or tokens.ndim != 1:
        raise DomainError("stream_uniforms takes the 1-d array of label_tokens(labels)")
    words = _philox4x64(_label_keys(prefix, tokens), -(-k // 4))[:k]
    words >>= _U11
    return words * 2.0**-53


def _label_keys(prefix: Sequence[int | str], tokens: np.ndarray) -> np.ndarray:
    """(N, 2) Philox keys: the blake2b digests of prefix + (label,)."""
    shared = _hash_key(hashlib.blake2b(digest_size=16), prefix)
    keys = np.fromiter(_digests(shared, tokens), dtype="S16", count=len(tokens))
    return keys.view("<u8").reshape(-1, 2)


def _digests(shared: hashlib.blake2b, tokens: np.ndarray) -> Iterator[bytes]:
    """shared extended by each token, digested; one at a time, so no list."""
    for token in tokens:
        h = shared.copy()
        h.update(token)
        yield h.digest()
