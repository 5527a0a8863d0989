"""Minimax robustness of the kernel scale, and the SNR^2 power-law fit.

A weight scaled by rho times the optimum keeps 2*rho - rho^2 of the optimal
one-step descent, so when SNR^2 is only known up to a factor e^{+-delta},
the scale sech(delta) equalizes the two extremes at efficiency sech^2(delta).

fit_snr_model estimates the power-law representation
snr^2(p) = c * p^{a'} (1-p)^{b'} * e^{r(p)} by least squares in log space,
from an SNR profile's mean_p and snr columns; it picks the bins it can fit
and keeps a', b', the boundary constants c0 and c1, and delta, the sup of the
median-centered remainder r (c and r themselves are not kept). A constant
multiplicative offset in SNR^2 is absorbed into the learning rate, so only
variation around the fitted law counts as misspecification.
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
    """What fit_snr_model keeps of a power-law fit: exponents, boundary
    constants and the misspecification radius delta."""

    a_prime: float
    b_prime: float
    c0: float
    c1: float
    delta: float

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


def fit_snr_model(mean_p: np.ndarray, snr: np.ndarray) -> SnrModelFit:
    """Fit 2 log snr ~ a' log p + b' log(1-p) + c by least squares over a
    profile's (B,) mean_p and snr columns, NaN where a value is undefined.

    Only bins with a defined snr and 0 < mean_p < 1 are fitted; each of
    their snr must be finite and > 0, and at least 4 of them must cover
    both halves of (0,1). delta is the sup of the median-centered
    residuals; c0/c1 exponentiate the intercept adjusted by the median
    residual of the lower/upper half, giving the boundary constants.
    """
    mean_p, snr = np.asarray(mean_p, dtype=np.float64), np.asarray(snr, dtype=np.float64)
    if mean_p.ndim != 1 or mean_p.shape != snr.shape:
        raise DomainError(
            f"mean_p and snr must be 1-d and of one length, got {mean_p.shape} and {snr.shape}"
        )
    usable = ~np.isnan(snr) & (mean_p > 0.0) & (mean_p < 1.0)
    bad = usable & ~((snr > 0.0) & (snr < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"bin {i}: snr must be finite and > 0, got {float(snr[i])!r}")
    ps = mean_p[usable]
    if ps.size < 4:
        raise InsufficientDataError(
            f"fit_snr_model needs at least 4 fittable bins, got {ps.size}"
        )
    if not (ps.min() < 0.5 and ps.max() > 0.5):
        raise FitError("fit points must span both halves of (0,1)")

    y = 2.0 * np.log(snr[usable])
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
    """math.exp(x), raising error with a message naming what if it
    overflows or underflows to 0."""
    try:
        y = math.exp(x)
    except OverflowError:
        raise error(f"{what} overflows a double") from None
    if y == 0.0:
        raise error(f"{what} underflows a double")
    return y
