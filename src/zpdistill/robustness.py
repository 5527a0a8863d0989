"""Minimax robustness of the kernel scale, and the SNR^2 power-law fit.

A weight scaled by rho times the optimum keeps 2*rho - rho^2 of the optimal
one-step descent, so when SNR^2 is only known up to a factor e^{+-delta},
the scale sech(delta) equalizes the two extremes at efficiency sech^2(delta).

fit_snr_model estimates the power-law representation
snr^2(p) = c * p^{a'} (1-p)^{b'} * e^{r(p)} by least squares in log space.
delta is the sup of the median-centered remainder: a constant multiplicative
offset in SNR^2 is absorbed into the learning rate, so only variation around
the fitted law counts as misspecification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FitError, InsufficientDataError, ZpdistillError
from .kernel import raw_weights
from .numerics import sech, sech2

__all__ = [
    "SnrModelFit",
    "minimax_scale",
    "minimax_weight",
    "fit_snr_model",
    "robustness_rows",
]


@dataclass(frozen=True)
class SnrModelFit:
    """Least-squares power-law fit of an SNR^2 profile.

    ps/remainders keep the fitted grid and per-point log remainders
    (model-and-intercept removed) so the fit can be reconstructed exactly.
    """

    a_prime: float
    b_prime: float
    c0: float
    c1: float
    delta: float
    intercept: float
    ps: tuple[float, ...]
    remainders: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.a_prime > 0.0 and self.b_prime > 0.0):
            raise FitError(
                f"fitted exponents must be positive, got "
                f"({self.a_prime}, {self.b_prime})"
            )
        if not (self.c0 > 0.0 and self.c1 > 0.0):
            raise FitError(f"boundary constants must be positive, got ({self.c0}, {self.c1})")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise FitError(f"delta must be finite and >= 0, got {self.delta}")


def minimax_scale(delta: float) -> float:
    """Equalizing scale sech(delta) for a multiplicative SNR^2 band e^{+-delta}."""
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError(f"delta must be finite and >= 0, got {delta!r}")
    return sech(delta)


def minimax_weight(p: np.ndarray, a_prime: float, b_prime: float, delta: float) -> np.ndarray:
    """Robust kernel sech(delta) * p^{a'} (1-p)^{b'} of each pass rate in p."""
    if a_prime <= 0.0 or b_prime <= 0.0:
        raise DomainError(
            f"minimax_weight requires positive exponents, got ({a_prime}, {b_prime})"
        )
    return minimax_scale(delta) * raw_weights(p, "beta", a_prime, b_prime)


def fit_snr_model(points: Sequence[tuple[float, float]]) -> SnrModelFit:
    """Fit log snr^2 ~ a' log p + b' log(1-p) + c by least squares.

    Requires at least 4 interior points covering both halves of (0,1) and
    finite, positive snr_sq everywhere. delta is the sup of the median-centered
    residuals; c0/c1 exponentiate the intercept adjusted by the median
    residual of the lower/upper half, giving the boundary constants.
    """
    if len(points) < 4:
        raise InsufficientDataError(
            f"fit_snr_model needs at least 4 points, got {len(points)}"
        )
    ps = np.array([p for p, _ in points], dtype=np.float64)
    snr_sq = np.array([s for _, s in points], dtype=np.float64)
    if np.any(~np.isfinite(ps)) or np.any((ps <= 0.0) | (ps >= 1.0)):
        raise DomainError("fit points must have p strictly inside (0,1)")
    if np.any(~np.isfinite(snr_sq)) or np.any(snr_sq <= 0.0):
        raise DomainError("fit points must have snr_sq finite and > 0")
    if not (ps.min() < 0.5 and ps.max() > 0.5):
        raise FitError("fit points must span both halves of (0,1)")

    y = np.log(snr_sq)
    design = np.column_stack([np.log(ps), np.log1p(-ps), np.ones_like(ps)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise FitError("degenerate design: fit points do not identify the model")
    a_prime, b_prime, intercept = (float(c) for c in coef)

    resid = y - design @ coef
    med = float(np.median(resid))
    delta = float(np.max(np.abs(resid - med)))
    log_c0 = intercept + float(np.median(resid[ps <= 0.5]))
    log_c1 = intercept + float(np.median(resid[ps >= 0.5]))

    return SnrModelFit(
        a_prime=a_prime,
        b_prime=b_prime,
        c0=_exp(log_c0, FitError, f"boundary constant c0 = e^{log_c0!r}"),
        c1=_exp(log_c1, FitError, f"boundary constant c1 = e^{log_c1!r}"),
        delta=delta,
        intercept=intercept,
        ps=tuple(float(p) for p in ps),
        remainders=tuple(float(r) for r in resid),
    )


def robustness_rows(deltas: Sequence[float]) -> list[tuple[float, float, float, float, float]]:
    """(delta, e^-delta, e^delta, sech(delta), sech2(delta)) per requested delta."""
    rows = []
    for d in deltas:
        scale = minimax_scale(d)  # checks that d is finite and >= 0
        hi = _exp(d, DomainError, f"e^delta at delta = {d!r}")
        rows.append((d, math.exp(-d), hi, scale, sech2(d)))
    return rows


def _exp(x: float, error: type[ZpdistillError], what: str) -> float:
    """math.exp(x), raising error with a message naming what if it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise error(f"{what} overflows a double") from None
