"""Special functions and numeric plumbing used by the closed-form theory.

log_gamma and beta_fn route through the platform lgamma, which is accurate
to ~1e-15 relative error over the ranges used here. Beta values are always
assembled in log space so large arguments cannot overflow prematurely.

stream() is the deterministic RNG contract for the simulator: a counter-based
Philox generator keyed by a tuple of labels. Equal key tuples give equal
streams regardless of creation order or how many other streams exist, which
is what makes per-problem sampling order-independent.

stream_uniforms() draws the first k uniforms of many such streams at once,
one per label under a shared key prefix. It runs Philox4x64-10 in numpy over
all keys together (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
3", SC 2011) and reproduces stream() bit for bit; stream() remains the
contract and the test oracle.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "beta_fn",
    "log_beta_fn",
    "sech",
    "sech2",
    "log_softmax",
    "softmax",
    "stream",
    "stream_uniforms",
]

# Philox4x64-10 multipliers and Weyl key increments, as numpy's Philox uses.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta_fn(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


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
    zmax = np.max(z, axis=axis, keepdims=True)
    shifted = np.subtract(z, zmax, out=out)
    exps = np.exp(shifted, out=work)
    lse = np.log(np.expand_dims(_sum_axis0(np.moveaxis(exps, axis, 0)), axis))
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
    r = a[:8].copy()
    for i in range(8, end, 8):
        r += a[i : i + 8]
    for step in (1, 2, 4):
        r[:: 2 * step] += r[step :: 2 * step]
    total = r[0]
    for row in a[end:]:
        total += row
    return total + 0.0


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.exp(log_softmax(logits, axis=axis))


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


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x.

    The 32-bit partial products are combined in place (uint64 arithmetic is
    exact modulo 2**64, so the order of the additions does not matter).
    """
    m_lo, m_hi = m & _LOW32, m >> _U32
    x_lo, x_hi = x & _LOW32, x >> _U32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = m_lo * x_lo
    mid >>= _U32
    mid += lh & _LOW32
    mid += hl & _LOW32
    mid >>= _U32
    hi = m_hi * x_hi
    lh >>= _U32
    hl >>= _U32
    hi += lh
    hi += hl
    hi += mid
    return hi, m * x


def _philox4x64(keys: np.ndarray, blocks: int) -> np.ndarray:
    """(N, 4 * blocks) output words of Philox4x64-10 for N 128-bit keys.

    numpy increments the counter before generating a block, so a fresh
    generator's first block is keyed at counter 1, not 0.
    """
    n = keys.shape[0]
    k0, k1 = keys[:, :1], keys[:, 1:]
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (n, 1))
    c1, c2, c3 = (np.zeros((n, blocks), dtype=np.uint64) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=2).reshape(n, 4 * blocks)


def stream_uniforms(
    prefix: Sequence[int | str], labels: Sequence[int | str], k: int
) -> np.ndarray:
    """(len(labels), k) uniforms; row i is stream(*prefix, labels[i]).random(k).

    The shared prefix is hashed once and each label is added to a copy of
    that state, which gives the same keys as stream(). Philox then runs over
    all keys at once, and each output word x becomes (x >> 11) * 2**-53,
    numpy's double conversion, so the rows match stream() bit for bit.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"stream_uniforms requires an integer k >= 0, got {k!r}")
    words = _philox4x64(_label_keys(prefix, labels), -(-k // 4))[:, :k]
    words >>= _U11
    return words * 2.0**-53


def _label_keys(prefix: Sequence[int | str], labels: Sequence[int | str]) -> np.ndarray:
    """(len(labels), 2) Philox keys: the blake2b digests of prefix + (label,)."""
    shared = _hash_key(hashlib.blake2b(digest_size=16), prefix)
    _check_key_parts(labels)
    digests = []
    for label in labels:
        h = shared.copy()
        h.update(_token(label))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64).reshape(-1, 2)

