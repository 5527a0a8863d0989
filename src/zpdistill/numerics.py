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
from typing import Iterable, Sequence

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


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable log softmax."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.exp(log_softmax(logits, axis=axis))


def _hash_key(h: hashlib.blake2b, key_parts: Iterable[int | str]) -> hashlib.blake2b:
    """Feed each key part's typed token into the blake2b state h."""
    for part in key_parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise DomainError(f"stream key parts must be int or str, got {part!r}")
        token = f"{type(part).__name__}:{part}"
        h.update(token.encode("utf-8"))
        h.update(b"\x1f")
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
    """High and low 64-bit words of the 128-bit product m * x."""
    m_lo, m_hi = m & _LOW32, m >> _U32
    x_lo, x_hi = x & _LOW32, x >> _U32
    ll, lh = m_lo * x_lo, m_lo * x_hi
    hl, hh = m_hi * x_lo, m_hi * x_hi
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return hh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), m * x


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
    shared = _hash_key(hashlib.blake2b(digest_size=16), prefix)
    digests = b"".join(_hash_key(shared.copy(), (label,)).digest() for label in labels)
    keys = np.frombuffer(digests, dtype="<u8").astype(np.uint64).reshape(-1, 2)
    words = _philox4x64(keys, -(-k // 4))[:, :k]
    return (words >> _U11) * 2.0**-53

