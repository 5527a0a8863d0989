"""Beta-kernel sample weighting and the surrounding closed-form machinery.

The weight of a problem with pass rate p is w(p) = p^alpha (1-p)^beta with
the convention 0^0 = 1, so alpha = 0 or beta = 0 degrades to a one-sided
kernel and alpha = beta = 0 is the flat kernel w(p) = 1. For positive
exponents the kernel is exactly zero at p in {0, 1}; no floor is applied
unless a caller passes one explicitly.

Pass rates and weights are arrays: raw_weights() is the one weighting rule
of the CLI and the simulator, unit_mean() scales its (N,) result to unit
mean, and zpd_moments() takes the (N,) pass rates of a RolloutTable.
unit_mean() divides by the mean over ALL entries, zero weights included,
so dropping problems lowers the mean and raises the surviving weights.

select_exponents() inverts (mean, variance) of the in-band pass rates into
kernel exponents by matching the moments of Beta(alpha+1, beta+1). The
result is returned raw: strongly skewed moments can produce one negative
exponent even when the validity condition var < mean(1-mean)/3 holds, and
callers that need an evaluable kernel must check for that (beta_weight and
kernel_peak reject negative exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError
from .passrate import hard_filter

__all__ = [
    "SCHEMES",
    "KernelParams",
    "ZpdMoments",
    "beta_weight",
    "kernel_peak",
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
class KernelParams:
    """Beta-kernel exponents (alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(
                f"kernel exponents must be finite, got ({self.alpha}, {self.beta})"
            )

    @property
    def flat(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0


@dataclass(frozen=True)
class ZpdMoments:
    """Mean and population variance of pass rates inside [eps, 1-eps]."""

    epsilon: float
    mean_p: float
    var_p: float
    count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if not self.epsilon <= self.mean_p <= 1.0 - self.epsilon:
            raise DomainError("mean_p must lie inside the [eps, 1-eps] band")
        if self.var_p < 0.0:
            raise DomainError(f"var_p must be >= 0, got {self.var_p}")
        if self.count < 2:
            raise DomainError(f"count must be >= 2, got {self.count}")


def _require_nonnegative(params: KernelParams) -> None:
    if params.alpha < 0.0 or params.beta < 0.0:
        raise DomainError(
            "kernel evaluation requires nonnegative exponents, got "
            f"({params.alpha}, {params.beta})"
        )


def beta_weight(p: float, params: KernelParams) -> float:
    """w(p) = p^alpha (1-p)^beta with 0^0 = 1."""
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise DomainError(f"pass rate must lie in [0,1], got {p!r}")
    _require_nonnegative(params)
    # Python's 0.0 ** 0.0 is already 1.0, which is exactly the convention.
    return p**params.alpha * (1.0 - p) ** params.beta


def kernel_peak(params: KernelParams) -> float:
    """Argmax alpha/(alpha+beta) of the kernel on [0,1]."""
    _require_nonnegative(params)
    total = params.alpha + params.beta
    if total == 0.0:
        raise DegenerateInputError("flat kernel (alpha=beta=0) has no unique peak")
    return params.alpha / total


def raw_weights(
    p: np.ndarray, scheme: str, alpha: float = 1.0, beta: float = 1.0,
    lo: float = 0.2, hi: float = 0.8, floor: float = 0.0,
) -> np.ndarray:
    """Raw weight of each pass rate in p under one weighting scheme.

    beta: max(w(p), floor) with w the Beta kernel. hard: 1 inside the
    inclusive band [lo, hi], else floor. unweighted: 1. floor must be
    finite and >= 0. The scalar rule runs once per distinct pass rate and
    is indexed back, so each weight is exactly the scalar function's value.
    """
    if not (math.isfinite(floor) and floor >= 0.0):
        raise DomainError(f"floor must be finite and >= 0, got {floor!r}")
    values, inverse = np.unique(np.asarray(p, dtype=np.float64), return_inverse=True)
    if scheme == "beta":
        params = KernelParams(alpha, beta)
        table = [max(beta_weight(v, params), floor) for v in values.tolist()]
    elif scheme == "hard":
        # max turns a floor of -0.0 into 0.0, as the beta rule's max does.
        table = [
            1.0 if hard_filter(v, lo, hi) else max(0.0, floor) for v in values.tolist()
        ]
    elif scheme == "unweighted":
        table = [1.0] * values.size
    else:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return np.array(table, dtype=np.float64)[inverse]


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
    """Moments of the pass rates p restricted to the band [eps, 1-eps]."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    p = np.asarray(p, dtype=np.float64)
    in_band = p[(p >= epsilon) & (p <= 1.0 - epsilon)]
    if in_band.size < 2:
        raise InsufficientDataError(
            f"need at least 2 pass rates inside [{epsilon}, {1.0 - epsilon}], "
            f"got {in_band.size}"
        )
    mean = float(in_band.mean())
    var = float(np.mean((in_band - mean) ** 2))
    return ZpdMoments(epsilon=epsilon, mean_p=mean, var_p=var, count=int(in_band.size))


def select_exponents(m: ZpdMoments) -> KernelParams:
    """Moment-matched kernel exponents from in-band pass-rate statistics.

    Matches mean and variance of Beta(alpha+1, beta+1) to (mean_p, var_p).
    Valid only while var_p < mean_p(1-mean_p)/3; at the boundary the result
    is the flat kernel (0, 0), accepted within a relative tolerance. Beyond
    it the moments are inconsistent with a concave kernel and the documented
    fallback is the flat kernel, reported here as an error.
    """
    if m.var_p == 0.0:
        raise DegenerateInputError(
            "zero pass-rate variance: moment matching is degenerate"
        )
    bound = m.mean_p * (1.0 - m.mean_p) / 3.0
    if m.var_p > bound * (1.0 + _FLAT_BOUNDARY_RTOL):
        raise DomainError(
            f"validity condition var_p < mean_p(1-mean_p)/3 failed "
            f"({m.var_p} >= {bound}); use the flat kernel w(p) = 1 instead"
        )
    concentration = m.mean_p * (1.0 - m.mean_p) / m.var_p - 1.0
    alpha = m.mean_p * concentration - 1.0
    beta = (1.0 - m.mean_p) * concentration - 1.0
    return KernelParams(alpha=alpha, beta=beta)


def at_flat_boundary(m: ZpdMoments) -> bool:
    """True when var_p sits at the flat-kernel boundary mean(1-mean)/3."""
    bound = m.mean_p * (1.0 - m.mean_p) / 3.0
    return math.isclose(m.var_p, bound, rel_tol=_FLAT_BOUNDARY_RTOL)
