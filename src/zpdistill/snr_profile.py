"""Cross-problem gradient signal-to-noise profiles over pass-rate bins.

A GradientTable holds one gradient row per problem with its estimated pass
rate, as arrays validated once at construction. Rows are grouped into
equal-width pass-rate bins by passrate.bin_indices (left-closed, final bin
closed) and each bin reports

    snr = ||mean gradient|| / sqrt(mean ||g_i - mean||^2)

with a population variance in the denominator. A profile is a set of
per-bin arrays (SnrProfile), with NaN for a value that is undefined, which
fileio writes as an empty field. Bins can be undefined two ways: empty
(count 0, NaN mean_p and snr) or degenerate (all gradients in the bin
identical, however their mean rounds: NaN snr). Undefined SNRs are
excluded from the empirical normalization maximum; empty bins are excluded
from the theoretical one as well, since they have no mean pass rate to
evaluate.

The theoretical curve is sqrt(mean_p (1 - mean_p)) per bin, normalized by
its own maximum, evaluated at bin mean pass rates rather than bin centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError
from .passrate import bin_indices, equal_edges

__all__ = [
    "GradientTable",
    "SnrProfile",
    "compute_snr_bins",
    "normalize_profile",
    "bell_shape_score",
]


@dataclass(frozen=True)
class GradientTable:
    """Per-problem gradient rows: problem_ids (N,), pass rates p (N,) and
    gradients (N, D), with N >= 1 and D >= 1.

    Every value is finite and every p lies in [0, 1]; a table that breaks
    this cannot be built.
    """

    problem_ids: tuple[str, ...]
    p: np.ndarray
    gradients: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.problem_ids)
        p = np.asarray(self.p, dtype=np.float64)
        grads = np.asarray(self.gradients, dtype=np.float64)
        object.__setattr__(self, "problem_ids", ids)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gradients", grads)
        rows_match = (len(ids),) == p.shape == grads.shape[:1]
        if grads.ndim != 2 or 0 in grads.shape or not rows_match:
            raise DomainError(
                "need N >= 1 ids, p of shape (N,) and gradients of shape (N, D >= 1), "
                f"got {len(ids)} ids, p {p.shape}, gradients {grads.shape}"
            )
        if not all(ids):
            raise DomainError("problem ids must be non-empty")
        bad = self.invalid_rows(p, grads)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"row {i} ({ids[i]!r}) has a non-finite value or p outside [0,1]"
            )

    @staticmethod
    def invalid_rows(p: np.ndarray, gradients: np.ndarray) -> np.ndarray:
        """(N,) mask of rows with a non-finite value or p outside [0, 1]."""
        in_range = (p >= 0.0) & (p <= 1.0)
        return ~(in_range & np.isfinite(gradients).all(axis=1))


@dataclass(frozen=True)
class SnrProfile:
    """An SNR profile over B pass-rate bins, as per-bin arrays.

    edges (B+1,) bound the bins and count (B,) holds their sizes. mean_p,
    snr, snr_norm and theory_norm (B,) are NaN where undefined: an empty bin
    has no mean_p and no snr, a degenerate bin no snr. snr_norm and
    theory_norm stay NaN until normalize_profile sets them.
    """

    edges: np.ndarray
    count: np.ndarray
    mean_p: np.ndarray
    snr: np.ndarray
    snr_norm: np.ndarray
    theory_norm: np.ndarray


def _signal_spread(g: np.ndarray, norm: Callable[[np.ndarray], float]) -> tuple[float, float]:
    """(norm of the mean row, mean squared distance of a row from it) of a
    bin's own copy g of its gradients, whose deviations are squared in place."""
    g_bar = g.mean(axis=0)
    signal = norm(g_bar)
    g -= g_bar
    g *= g
    return signal, float(np.mean(np.sum(g, axis=1)))


def compute_snr_bins(table: GradientTable, num_bins: int) -> SnrProfile:
    """Per-bin cross-problem SNR, before normalization. A bin whose norms
    overflow is computed again at g / max|g|, a scale that leaves snr as it
    is, with math.hypot's signal, which does not underflow if the mean cancels.
    An snr above the double range raises DomainError naming its bin."""
    ps, grads = table.p, table.gradients
    edges = np.asarray(equal_edges(num_bins))
    idx = bin_indices(ps, edges)
    count = np.bincount(idx, minlength=num_bins)
    mean_p, snr = np.full(num_bins, math.nan), np.full(num_bins, math.nan)
    for j in np.flatnonzero(count):
        mask = idx == j
        with np.errstate(over="ignore", invalid="ignore"):
            signal, spread_sq = _signal_spread(grads[mask], np.linalg.norm)
        if not (math.isfinite(signal) and math.isfinite(spread_sq)):
            g = grads[mask]
            signal, spread_sq = _signal_spread(g / np.abs(g).max(), lambda v: math.hypot(*v))
        mean_p[j] = ps[mask].mean()
        # Identical gradients leave the bin's SNR undefined. Their mean can
        # round, so a spread within rounding of zero is checked row by row.
        spread = math.sqrt(spread_sq)
        if spread > count[j] * 2**-52 * signal or spread and not (
                (g := grads[mask]) == g[0]).all():
            snr[j] = float(signal) / spread
            if math.isinf(snr[j]):
                raise DomainError(f"bin {j}: snr is above the double range")
    unset = np.full(num_bins, math.nan)
    return SnrProfile(edges, count, mean_p, snr, unset, unset.copy())


def normalize_profile(profile: SnrProfile) -> SnrProfile:
    """Divide empirical and theoretical bin values by their own maxima."""
    if np.isnan(profile.snr).all():
        raise DegenerateInputError("no bin has a defined SNR")
    snr_max = np.nanmax(profile.snr)
    if snr_max <= 0.0:
        raise DegenerateInputError("all defined SNR values are zero")
    theory = np.sqrt(profile.mean_p * (1.0 - profile.mean_p))
    theory_max = np.nanmax(theory)
    if theory_max <= 0.0:
        raise DegenerateInputError("all theoretical bin values are zero")
    return replace(profile, snr_norm=profile.snr / snr_max, theory_norm=theory / theory_max)


def bell_shape_score(profile: SnrProfile) -> tuple[bool, float]:
    """(is_bell, mid/edge ratio) of normalized SNR heights.

    Mid bins have mean_p in [0.35, 0.65]; edge bins have mean_p < 0.2 or
    > 0.8. The ratio is scale-invariant, so an un-normalized profile is
    normalized internally first.
    """
    defined = ~np.isnan(profile.snr)
    n_defined = int(defined.sum())
    if n_defined < 3:
        raise InsufficientDataError(
            f"bell_shape_score needs >= 3 defined bins, got {n_defined}"
        )
    if np.isnan(profile.snr_norm[defined]).any():
        profile = normalize_profile(profile)

    # A NaN mean_p fails every comparison, so empty bins fall in neither group.
    mean_p, heights = profile.mean_p, profile.snr_norm
    has_height = ~np.isnan(heights)
    mid = heights[has_height & (0.35 <= mean_p) & (mean_p <= 0.65)]
    edge = heights[has_height & ((mean_p < 0.2) | (mean_p > 0.8))]
    if not mid.size or not edge.size:
        raise InsufficientDataError(
            "bell_shape_score needs at least one mid bin (mean_p in [0.35, 0.65]) "
            "and one edge bin (mean_p < 0.2 or > 0.8)"
        )
    edge_mean = float(np.mean(edge))
    if edge_mean == 0.0:
        return True, math.inf
    ratio = float(np.mean(mid)) / edge_mean
    return ratio > 1.0, ratio
