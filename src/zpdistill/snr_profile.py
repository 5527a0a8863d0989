"""Cross-problem gradient signal-to-noise profiles over pass-rate bins.

A GradientTable holds one gradient row per problem with its estimated pass
rate, as arrays validated once at construction. Rows are grouped into
equal-width pass-rate bins by passrate.bin_indices (left-closed, final bin
closed) and each bin reports

    snr = ||mean gradient|| / sqrt(mean ||g_i - mean||^2)

with a population variance in the denominator. Bins can be undefined two
ways: empty (count 0, no values at all) or degenerate (all gradients in the
bin identical, zero spread). Undefined SNRs are excluded from the empirical
normalization maximum; empty bins are excluded from the theoretical one as
well, since they have no mean pass rate to evaluate.

The theoretical curve is sqrt(mean_p (1 - mean_p)) per bin, normalized by
its own maximum, evaluated at bin mean pass rates rather than bin centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError
from .passrate import bin_indices, equal_edges

__all__ = [
    "GradientTable",
    "SnrBin",
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
class SnrBin:
    """One pass-rate bin of an SNR profile.

    snr is None when the bin is empty or degenerate; mean_p is None only
    when the bin is empty. Normalized fields stay None until
    normalize_profile runs.
    """

    lo: float
    hi: float
    mean_p: float | None
    count: int
    snr: float | None
    degenerate: bool = False
    snr_norm: float | None = None
    theory_norm: float | None = None


@dataclass(frozen=True)
class SnrProfile:
    bins: tuple[SnrBin, ...]

    @property
    def num_bins(self) -> int:
        return len(self.bins)


def compute_snr_bins(table: GradientTable, num_bins: int) -> SnrProfile:
    """Per-bin cross-problem SNR, before normalization."""
    ps, grads = table.p, table.gradients
    edges = np.asarray(equal_edges(num_bins))
    idx = bin_indices(ps, edges)

    bins: list[SnrBin] = []
    for j in range(num_bins):
        mask = idx == j
        lo, hi = float(edges[j]), float(edges[j + 1])
        count = int(mask.sum())
        if count == 0:
            bins.append(SnrBin(lo=lo, hi=hi, mean_p=None, count=0, snr=None))
            continue
        g = grads[mask]  # the bin's one copy: its deviations are squared in place
        g_bar = g.mean(axis=0)
        signal = np.linalg.norm(g_bar)
        g -= g_bar
        g *= g
        spread_sq = float(np.mean(np.sum(g, axis=1)))
        # Zero spread (identical gradients) leaves the bin's SNR undefined.
        snr = float(signal / math.sqrt(spread_sq)) if spread_sq else None
        bins.append(
            SnrBin(lo=lo, hi=hi, mean_p=float(ps[mask].mean()), count=count,
                   snr=snr, degenerate=snr is None)
        )
    return SnrProfile(bins=tuple(bins))


def _theory_value(mean_p: float) -> float:
    return math.sqrt(mean_p * (1.0 - mean_p))


def normalize_profile(profile: SnrProfile) -> SnrProfile:
    """Divide empirical and theoretical bin values by their own maxima."""
    defined = [b.snr for b in profile.bins if b.snr is not None and b.count > 0]
    if not defined:
        raise DegenerateInputError("no bin has a defined SNR")
    snr_max = max(defined)
    if snr_max <= 0.0:
        raise DegenerateInputError("all defined SNR values are zero")
    theory_values = [
        _theory_value(b.mean_p) for b in profile.bins if b.mean_p is not None
    ]
    theory_max = max(theory_values)
    if theory_max <= 0.0:
        raise DegenerateInputError("all theoretical bin values are zero")

    out = []
    for b in profile.bins:
        snr_norm = None if b.snr is None else b.snr / snr_max
        theory_norm = (
            None if b.mean_p is None else _theory_value(b.mean_p) / theory_max
        )
        out.append(replace(b, snr_norm=snr_norm, theory_norm=theory_norm))
    return SnrProfile(bins=tuple(out))


def bell_shape_score(profile: SnrProfile) -> tuple[bool, float]:
    """(is_bell, mid/edge ratio) of normalized SNR heights.

    Mid bins have mean_p in [0.35, 0.65]; edge bins have mean_p < 0.2 or
    > 0.8. The ratio is scale-invariant, so an un-normalized profile is
    normalized internally first.
    """
    n_defined = sum(1 for b in profile.bins if b.snr is not None)
    if n_defined < 3:
        raise InsufficientDataError(
            f"bell_shape_score needs >= 3 defined bins, got {n_defined}"
        )
    if any(b.snr is not None and b.snr_norm is None for b in profile.bins):
        profile = normalize_profile(profile)

    mid = [
        b.snr_norm
        for b in profile.bins
        if b.snr_norm is not None and b.mean_p is not None and 0.35 <= b.mean_p <= 0.65
    ]
    edge = [
        b.snr_norm
        for b in profile.bins
        if b.snr_norm is not None
        and b.mean_p is not None
        and (b.mean_p < 0.2 or b.mean_p > 0.8)
    ]
    if not mid or not edge:
        raise InsufficientDataError(
            "bell_shape_score needs at least one mid bin (mean_p in [0.35, 0.65]) "
            "and one edge bin (mean_p < 0.2 or > 0.8)"
        )
    edge_mean = float(np.mean(edge))
    if edge_mean == 0.0:
        return True, math.inf
    ratio = float(np.mean(mid)) / edge_mean
    return ratio > 1.0, ratio
