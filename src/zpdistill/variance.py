"""Batch-level variance analysis of weighted gradient estimators.

The variance ratio R compares the minibatch gradient variance under
unit-mean weights w~ against the unweighted baseline. R < 1 means the
weighting denoises the batch. Two routes are provided:

- variance_ratio_empirical: the moment expansion over (M,) weights, (M,)
  second moments and (M, D) mean gradients, exactly equivalent to
  tr Cov(w~ g) / tr Cov(g) when the weights have mean 1, with its terms.
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
    "EmpiricalRatio",
    "variance_ratio_empirical",
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
        names = ("2*alpha+gamma1", "2*beta+gamma2", "alpha", "beta", "gamma1", "gamma2")
        for name, e in zip(names, (e for pair in self.moments() for e in pair)):
            if not 0.0 < e + 1.0 < math.inf:
                raise DomainError(
                    f"Beta-function argument {name}+1 = {e + 1.0} must be positive and finite"
                )

    def moments(self) -> tuple[tuple[float, float], ...]:
        """(e1, e2) of the numerator, kernel and signal moments int p^e1 (1-p)^e2 dp."""
        return (
            (2.0 * self.alpha + self.gamma1, 2.0 * self.beta + self.gamma2),
            (self.alpha, self.beta),
            (self.gamma1, self.gamma2),
        )


class EmpiricalRatio(NamedTuple):
    """Variance ratio R and the population moments it is built from."""

    ratio: float
    var_w: float
    cov_w2_s2: float
    mean_s2: float
    weighted_signal: float
    baseline_signal: float

    @property
    def cov_condition(self) -> bool:
        """Sufficient condition for R < 1: -Cov(w~^2, s^2) > Var(w~) E[s^2]."""
        return -self.cov_w2_s2 > self.var_w * self.mean_s2


def variance_ratio_empirical(
    weights: np.ndarray, second_moments: np.ndarray, mean_gradients: np.ndarray
) -> EmpiricalRatio:
    """R from (M,) unit-mean weights w~, (M,) second moments E[||g||^2] and
    (M, D) mean gradients E[g]; R does not depend on the minibatch size."""
    w = np.asarray(weights, dtype=np.float64)
    s2 = np.asarray(second_moments, dtype=np.float64)
    mg = np.asarray(mean_gradients, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-d array")
    if s2.shape != w.shape:
        raise DomainError("second_moments must match weights in shape")
    if mg.ndim != 2 or mg.shape[0] != w.size:
        raise DomainError("mean_gradients must have shape (records, dim)")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise DomainError("weights must be finite and nonnegative")
    if not math.isclose(float(w.mean()), 1.0, abs_tol=_WEIGHT_MEAN_TOL):
        raise DomainError(
            f"weights must have mean 1 within {_WEIGHT_MEAN_TOL}, got {float(w.mean())}"
        )
    if not (np.isfinite(s2).all() and np.isfinite(mg).all()):
        raise DomainError("second_moments and mean_gradients must be finite")
    norms_sq = np.sum(mg * mg, axis=1)
    if np.any(s2 < norms_sq * (1.0 - 1e-12)):
        raise DomainError("each second moment must be >= the squared mean-gradient norm")

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
    return EmpiricalRatio(
        numerator / denominator, var_w, cov_w2_s2, mean_s2, weighted_signal, baseline_signal
    )


def variance_ratio_beta(spec: VarianceSpec, epsilon: float | None = None) -> float:
    """Closed-form variance ratio for Beta kernel and power-law second moment.

    With epsilon=None the three moments are full Beta functions. A positive
    epsilon restricts every moment integral to [eps, 1-eps] (numerical
    quadrature); this is a diagnostic knob, not part of the closed form.
    A moment or ratio outside the normal double range raises DegenerateInputError.
    """
    if epsilon is None:
        log_num, log_w, log_s = (log_beta_fn(e1 + 1.0, e2 + 1.0) for e1, e2 in spec.moments())
        log_ratio = log_num - (2.0 * log_w + log_s)
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

    num, den_w, den_s = (moment(e1, e2) for e1, e2 in spec.moments())
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
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise DomainError("features and weights must be finite")
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
