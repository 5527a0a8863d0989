"""Beta-kernel sample weighting and the surrounding closed-form machinery.

The weight of a problem with pass rate p is w(p) = p^alpha (1-p)^beta with
the convention 0^0 = 1, so alpha = 0 or beta = 0 degrades to a one-sided
kernel and alpha = beta = 0 is the flat kernel w(p) = 1. For positive
exponents the kernel is exactly zero at p in {0, 1}. The hard baseline
weighs 1 inside its keep band and 0 outside it; the band is inclusive on
both ends, so with the default (0.2, 0.8) band and K = 8 rollouts exactly
2..6 successes are kept. Under every scheme the floor is the minimum raw
weight; it is 0 unless a caller passes one.

Pass rates and weights are arrays: raw_weights() is the one weighting rule
of the CLI, the simulator and minimax_weight(), unit_mean() scales its (N,)
result to unit mean, and zpd_moments() takes the (N,) pass rates of a
RolloutTable. unit_mean() divides by the mean over ALL entries, zero weights
included, so dropping problems lowers the mean and raises the surviving
weights.

select_exponents() inverts (mean, variance) of the in-band pass rates into
kernel exponents by matching the moments of Beta(alpha+1, beta+1). The
result is returned raw: strongly skewed moments can produce one negative
exponent even when the validity condition var < mean(1-mean)/3 holds, and
callers that need an evaluable kernel must check for that (raw_weights
rejects negative exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError

__all__ = [
    "SCHEMES",
    "ZpdMoments",
    "raw_weights",
    "unit_mean",
    "zpd_moments",
    "select_exponents",
    "at_flat_boundary",
]

# Relative slack for accepting the flat-kernel boundary var = mean(1-mean)/3.
_FLAT_BOUNDARY_RTOL = 1e-9

SCHEMES = ("beta", "hard", "unweighted")


@dataclass(frozen=True)
class ZpdMoments:
    """Mean and population variance of the pass rates p < 1 inside [eps, 1-eps]."""

    epsilon: float
    mean_p: float
    var_p: float
    count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if not (self.epsilon <= self.mean_p <= 1.0 - self.epsilon and self.mean_p < 1.0):
            raise DomainError("mean_p must lie inside the [eps, 1-eps] band")
        if self.var_p < 0.0:
            raise DomainError(f"var_p must be >= 0, got {self.var_p}")
        if self.count < 2:
            raise DomainError(f"count must be >= 2, got {self.count}")

    @property
    def var_bound(self) -> float:
        """mean_p (1 - mean_p) / 3, the largest var_p select_exponents matches."""
        return self.mean_p * (1.0 - self.mean_p) / 3.0


def raw_weights(
    p: np.ndarray, scheme: str, alpha: float = 1.0, beta: float = 1.0,
    lo: float = 0.2, hi: float = 0.8, floor: float = 0.0,
) -> np.ndarray:
    """Raw weight max(rule(p), floor) of each pass rate in p.

    The rule is the scheme's: beta, the Beta kernel p^alpha (1-p)^beta with
    0^0 = 1 (alpha, beta finite and >= 0); hard, 1 inside the inclusive
    band lo <= p <= hi and 0 outside it (0 <= lo <= hi <= 1); unweighted, 1.
    floor must be finite and >= 0. The rule runs in Python floats once per
    distinct pass rate, and the table is indexed back.
    """
    if not (math.isfinite(floor) and floor >= 0.0):
        raise DomainError(f"floor must be finite and >= 0, got {floor!r}")
    values, inverse = np.unique(np.asarray(p, dtype=np.float64), return_inverse=True)
    # values is sorted with any NaN last, so its two ends bound every entry.
    if values.size and not (values[0] >= 0.0 and values[-1] <= 1.0):
        bad = values[0] if not values[0] >= 0.0 else values[-1]
        raise DomainError(f"pass rate must lie in [0,1], got {float(bad)!r}")
    ps = values.tolist()
    if scheme == "beta":
        if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):
            raise DomainError(
                f"kernel exponents must be finite and >= 0, got ({alpha!r}, {beta!r})"
            )
        # Python's 0.0 ** 0.0 is already 1.0, which is exactly the convention.
        rule = [v**alpha * (1.0 - v) ** beta for v in ps]
    elif scheme == "hard":
        if not 0.0 <= lo <= hi <= 1.0:
            raise DomainError(
                f"keep band must satisfy 0 <= lo <= hi <= 1, got ({lo!r}, {hi!r})"
            )
        rule = [1.0 if lo <= v <= hi else 0.0 for v in ps]
    elif scheme == "unweighted":
        rule = [1.0] * len(ps)
    else:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    # max keeps the rule's value on a tie, so a floor of -0.0 gives 0.0.
    return np.array([max(w, floor) for w in rule], dtype=np.float64)[inverse]


def unit_mean(raw: np.ndarray) -> np.ndarray:
    """raw divided by its mean over all entries, zeros included.

    All-zero weights stay all zero. When the mean overflows, or underflows
    to 0 beside a nonzero entry, raw is divided by its maximum first; every
    other input takes raw / mean as it is.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        raise InsufficientDataError("unit_mean requires at least one weight")
    if not np.isfinite(raw).all() or (raw < 0.0).any():
        raise DomainError("raw weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        mean = raw.mean()
    if mean == 0.0 and not raw.any():
        return np.zeros_like(raw)
    if mean == 0.0 or not math.isfinite(mean):
        raw = raw / raw.max()
        mean = raw.mean()
    return raw / mean


def zpd_moments(p: np.ndarray, epsilon: float) -> ZpdMoments:
    """Moments of the pass rates p restricted to the band [eps, 1-eps], less
    p = 1, which the band holds where 1 - eps rounds to 1 (eps <= 2^-54)."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    p = np.asarray(p, dtype=np.float64)
    in_band = p[(p >= epsilon) & (p <= 1.0 - epsilon) & (p < 1.0)]
    if in_band.size < 2:
        raise InsufficientDataError(
            f"need at least 2 pass rates p < 1 inside [{epsilon}, {1.0 - epsilon}], "
            f"got {in_band.size}"
        )
    mean = float(in_band.mean())
    var = float(np.mean((in_band - mean) ** 2))
    return ZpdMoments(epsilon=epsilon, mean_p=mean, var_p=var, count=int(in_band.size))


def select_exponents(m: ZpdMoments) -> tuple[float, float]:
    """Moment-matched kernel exponents (alpha, beta) from in-band pass-rate
    statistics.

    Matches mean and variance of Beta(alpha+1, beta+1) to (mean_p, var_p).
    Valid only while var_p < mean_p(1-mean_p)/3; the boundary is accepted
    within a relative tolerance, and there alpha = -beta = 2 mean_p - 1, the
    flat kernel (0, 0) only at mean_p = 0.5. Beyond it the moments are
    inconsistent with a concave kernel and the documented fallback is the
    flat kernel, reported here as an error.
    """
    if m.var_p == 0.0:
        raise DegenerateInputError(
            "zero pass-rate variance: moment matching is degenerate"
        )
    if m.var_p > m.var_bound * (1.0 + _FLAT_BOUNDARY_RTOL):
        raise DomainError(
            f"validity condition var_p < mean_p(1-mean_p)/3 failed "
            f"({m.var_p} >= {m.var_bound}); use the flat kernel w(p) = 1 instead"
        )
    concentration = m.mean_p * (1.0 - m.mean_p) / m.var_p - 1.0
    alpha = m.mean_p * concentration - 1.0
    beta = (1.0 - m.mean_p) * concentration - 1.0
    return alpha, beta


def at_flat_boundary(m: ZpdMoments) -> bool:
    """True when var_p sits at the flat-kernel boundary m.var_bound."""
    return math.isclose(m.var_p, m.var_bound, rel_tol=_FLAT_BOUNDARY_RTOL)
