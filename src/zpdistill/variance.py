"""Batch-level variance analysis of weighted gradient estimators.

The variance ratio R compares the minibatch gradient variance under
unit-mean weights w~ against the unweighted baseline. R < 1 means the
weighting denoises the batch. Two routes are provided:

- variance_ratio_empirical: the moment expansion over explicit per-problem
  records (weight, second moment, mean gradient), exactly equivalent to
  tr Cov(w~ g) / tr Cov(g) when the weights have mean 1.
- variance_ratio_beta: the closed form under power-law models
  w(p) = p^alpha (1-p)^beta and s^2(p) prop. to p^gamma1 (1-p)^gamma2 with
  p uniform, reduced to three Beta functions evaluated in log space. An
  epsilon argument switches to the band-restricted integral over
  [eps, 1-eps] by Gauss-Legendre quadrature, as a diagnostic for how much
  the open-interval tails contribute.

All moments are population moments: the ratio is defined over the sampling
distribution, not an estimator of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError
from .numerics import log_beta_fn

__all__ = [
    "VarianceSpec",
    "EmpiricalBatchStats",
    "VarianceRatioResult",
    "CovConditionResult",
    "variance_ratio_empirical",
    "cov_condition",
    "variance_ratio_beta",
    "gamma_from_signal",
    "smoothness_constant",
]

_WEIGHT_MEAN_TOL = 1e-9
# Squarings in smoothness_constant: the power 2^64 takes every eigenvalue
# ratio below 1 that float64 holds (at most 1 - 2^-53) to zero. The loop
# stops early once a squaring moves no entry by more than _SETTLED: then
# every eigenvalue of the rescaled power is within F * _SETTLED of 0 or of
# the top one, so the Rayleigh quotient is within about F * _SETTLED of
# lambda_max, relatively; rounding moves a settled power by ~F * 1e-16.
_SQUARINGS = 64
_SETTLED = 1e-14
_LOG_MAX = math.log(np.finfo(np.float64).max)  # math.exp is finite below it
# Rows per block of smoothness_constant's Gram sum and its weighted copy.
_GRAM_ROWS = 4096


@dataclass(frozen=True)
class VarianceSpec:
    """Exponents of the kernel and of the gradient second-moment law."""

    alpha: float
    beta: float
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.gamma1, self.gamma2)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"VarianceSpec entries must be finite, got {vals}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DomainError(
                f"kernel exponents must be >= 0, got ({self.alpha}, {self.beta})"
            )
        for name, value in self._beta_arguments():
            if not 0.0 < value < math.inf:
                raise DomainError(
                    f"Beta-function argument {name} = {value} must be positive and finite"
                )

    def _beta_arguments(self) -> list[tuple[str, float]]:
        return [
            ("2*alpha+gamma1+1", 2.0 * self.alpha + self.gamma1 + 1.0),
            ("2*beta+gamma2+1", 2.0 * self.beta + self.gamma2 + 1.0),
            ("alpha+1", self.alpha + 1.0),
            ("beta+1", self.beta + 1.0),
            ("gamma1+1", self.gamma1 + 1.0),
            ("gamma2+1", self.gamma2 + 1.0),
        ]


@dataclass(frozen=True)
class EmpiricalBatchStats:
    """Per-problem weighting records observed on one batch distribution.

    weights: unit-mean normalized weights w~ (one per record)
    second_moments: E[||g||^2] per record
    mean_gradients: E[g] per record, shape (records, dim)
    batch_size: minibatch size n (R itself is n-free; kept for sigma^2 use)
    """

    weights: np.ndarray
    second_moments: np.ndarray
    mean_gradients: np.ndarray
    batch_size: int = 1

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        s2 = np.asarray(self.second_moments, dtype=np.float64)
        mg = np.asarray(self.mean_gradients, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a non-empty 1-d array")
        if s2.shape != w.shape:
            raise DomainError("second_moments must match weights in shape")
        if mg.ndim != 2 or mg.shape[0] != w.size:
            raise DomainError("mean_gradients must have shape (records, dim)")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if np.any(~np.isfinite(w)) or np.any(w < 0.0):
            raise DomainError("weights must be finite and nonnegative")
        if not math.isclose(float(w.mean()), 1.0, abs_tol=_WEIGHT_MEAN_TOL):
            raise DomainError(
                f"weights must have mean 1 within {_WEIGHT_MEAN_TOL}, "
                f"got {float(w.mean())}"
            )
        norms_sq = np.sum(mg * mg, axis=1)
        if np.any(s2 < norms_sq * (1.0 - 1e-12)):
            raise DomainError(
                "each second moment must be >= the squared mean-gradient norm"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "second_moments", s2)
        object.__setattr__(self, "mean_gradients", mg)


class VarianceRatioResult(NamedTuple):
    ratio: float
    numerator_terms: dict[str, float]
    denominator_terms: dict[str, float]


class CovConditionResult(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def variance_ratio_empirical(stats: EmpiricalBatchStats) -> VarianceRatioResult:
    """Variance ratio R from the moment expansion over the records."""
    w = stats.weights
    s2 = stats.second_moments
    mg = stats.mean_gradients

    mean_s2 = float(s2.mean())
    if mean_s2 <= 0.0:
        raise DegenerateInputError("mean second moment must be positive")
    var_w = float(np.mean((w - w.mean()) ** 2))
    w2 = w * w
    cov_w2_s2 = float(np.mean(w2 * s2) - w2.mean() * s2.mean())
    weighted_signal = float(np.sum(np.mean(w[:, None] * mg, axis=0) ** 2))
    baseline_signal = float(np.sum(np.mean(mg, axis=0) ** 2))

    numerator = 1.0 + var_w + cov_w2_s2 / mean_s2 - weighted_signal / mean_s2
    denominator = 1.0 - baseline_signal / mean_s2
    if denominator <= 0.0:
        raise DegenerateInputError(
            f"unweighted variance is not positive (denominator {denominator})"
        )
    return VarianceRatioResult(
        ratio=numerator / denominator,
        numerator_terms={
            "var_weight": var_w,
            "cov_w2_s2_over_mean_s2": cov_w2_s2 / mean_s2,
            "weighted_signal_over_mean_s2": weighted_signal / mean_s2,
            "numerator": numerator,
        },
        denominator_terms={
            "baseline_signal_over_mean_s2": baseline_signal / mean_s2,
            "mean_s2": mean_s2,
            "denominator": denominator,
        },
    )


def cov_condition(stats: EmpiricalBatchStats) -> CovConditionResult:
    """Sufficient condition for R < 1: -Cov(w~^2, s^2) > Var(w~) E[s^2]."""
    w = stats.weights
    s2 = stats.second_moments
    w2 = w * w
    cov_w2_s2 = float(np.mean(w2 * s2) - w2.mean() * s2.mean())
    var_w = float(np.mean((w - w.mean()) ** 2))
    lhs = -cov_w2_s2
    rhs = var_w * float(s2.mean())
    return CovConditionResult(holds=lhs > rhs, lhs=lhs, rhs=rhs)


def variance_ratio_beta(spec: VarianceSpec, epsilon: float | None = None) -> float:
    """Closed-form variance ratio for Beta kernel and power-law second moment.

    With epsilon=None the three moments are full Beta functions. A positive
    epsilon restricts every moment integral to [eps, 1-eps] (numerical
    quadrature); this is a diagnostic knob, not part of the closed form.
    A moment or ratio outside the normal double range raises DegenerateInputError.
    """
    if epsilon is None:
        log_num = log_beta_fn(
            2.0 * spec.alpha + spec.gamma1 + 1.0,
            2.0 * spec.beta + spec.gamma2 + 1.0,
        )
        log_den = 2.0 * log_beta_fn(spec.alpha + 1.0, spec.beta + 1.0)
        log_den += log_beta_fn(spec.gamma1 + 1.0, spec.gamma2 + 1.0)
        log_ratio = log_num - log_den
        ratio = math.exp(log_ratio) if log_ratio < _LOG_MAX else math.inf
        return _normal(f"variance ratio e^{log_ratio!r}", ratio)

    if not (0.0 < epsilon < 0.5):
        raise DomainError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    nodes, weights = np.polynomial.legendre.leggauss(400)
    lo, hi = epsilon, 1.0 - epsilon
    p = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    scale = 0.5 * (hi - lo)

    def moment(e1: float, e2: float) -> float:
        return float(scale * np.sum(weights * p**e1 * (1.0 - p) ** e2))

    num = moment(2.0 * spec.alpha + spec.gamma1, 2.0 * spec.beta + spec.gamma2)
    den_w = moment(spec.alpha, spec.beta)
    den_s = moment(spec.gamma1, spec.gamma2)
    den = den_w * den_w * den_s
    moments = (("numerator", num), ("kernel", den_w), ("signal", den_s), ("denominator", den))
    for name, value in moments:
        _normal(f"truncated {name} moment", value)
    return _normal("variance ratio", num / den)


def _normal(name: str, value: float) -> float:
    """value if it is a finite normal double, else DegenerateInputError naming it."""
    if not np.finfo(np.float64).tiny <= value < math.inf:
        raise DegenerateInputError(f"the {name} is {value!r}, not a finite normal double")
    return value


def gamma_from_signal(
    a_s: float, b_s: float, a_prime: float, b_prime: float
) -> tuple[float, float]:
    """Second-moment exponents gamma = 2*signal - snr from the exponent algebra."""
    vals = (a_s, b_s, a_prime, b_prime)
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"gamma_from_signal requires finite inputs, got {vals}")
    return 2.0 * a_s - a_prime, 2.0 * b_s - b_prime


def smoothness_constant(features: np.ndarray, weights: np.ndarray) -> float:
    """L = 1/2 lambda_max((1/N) sum_i w_i x_i x_i^T) for rows x_i of features.

    The weighted forward-KL objective (1/N) sum_i w_i KL_i(theta) of a
    linear softmax student has an L-Lipschitz gradient in theta: each
    logit Hessian diag(p) - p p^T has spectral norm at most 1/2 (Boehning,
    "Multinomial logistic regression algorithm", AISM 1992). The descent
    lemma then guarantees that a gradient step of size eta decreases it
    while eta * L < 2, and no longer guarantees it beyond.

    lambda_max comes from repeated squaring of the (F, F) Gram matrix G,
    rescaled each time: G^(2^k) tends to lambda_max^(2^k) times the
    projector onto the top eigenspace, whose columns are top eigenvectors,
    and the Rayleigh quotient of one gives lambda_max (6-12 squarings on
    the simulator's worlds and on random rows). This uses only matmul:
    the first call of a LAPACK eigensolver made about 0.6 MB more of the
    BLAS library resident, which raised a simulate run's peak RSS. G is
    summed over row blocks, so past one it can differ in its last bits.
    """
    x = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or w.shape != x.shape[:1] or w.size == 0:
        raise DomainError(
            f"features must be (N, F) and weights (N,) with N >= 1, got {x.shape} and {w.shape}"
        )
    if np.any(w < 0.0):
        raise DomainError("weights must be nonnegative")
    gram = np.zeros((x.shape[1], x.shape[1]))
    for i in range(0, w.size, _GRAM_ROWS):
        xb = x[i : i + _GRAM_ROWS]
        gram += (xb.T * w[i : i + _GRAM_ROWS]) @ xb
    gram /= w.size
    # gram and its powers are positive semidefinite, so their largest
    # entry is on the diagonal and is > 0 unless the matrix is zero.
    top = gram.max()
    if top == 0.0:
        return 0.0
    power = gram / top
    for _ in range(_SQUARINGS):
        squared = power @ power
        squared /= squared.max()
        settled = np.abs(squared - power).max() <= _SETTLED
        power = squared
        if settled:
            break
    v = power[:, np.argmax(np.diag(power))]
    return 0.5 * float(v @ gram @ v / (v @ v))
