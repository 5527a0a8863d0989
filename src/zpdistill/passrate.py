"""Pass-rate estimation, hard filtering, and pass-rate histograms.

Two bin conventions coexist on purpose and are both part of the contract:

- histogram(): bins are left-closed, right-open, except the final bin which
  is closed on both ends so p = 1 is counted.
- hard_filter(): the keep band is inclusive on both ends, so with the default
  (0.2, 0.8) band and K = 8 rollouts exactly 2..6 successes are kept.

The three-bin reporting edges (0, 0.2, 0.8, 1) are exported as
THREE_BIN_EDGES; under the histogram convention the middle bin is [0.2, 0.8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError

__all__ = [
    "RolloutRecord",
    "PassRate",
    "PassRateHistogram",
    "THREE_BIN_EDGES",
    "estimate_pass_rate",
    "hard_filter",
    "histogram",
    "equal_edges",
]

THREE_BIN_EDGES: tuple[float, ...] = (0.0, 0.2, 0.8, 1.0)


@dataclass(frozen=True)
class RolloutRecord:
    """Correctness outcomes of K student rollouts on one problem."""

    problem_id: str
    outcomes: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.problem_id:
            raise DomainError("RolloutRecord requires a non-empty problem_id")
        outcomes = tuple(bool(o) for o in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if len(outcomes) == 0:
            raise DomainError(f"RolloutRecord {self.problem_id!r} has no outcomes")


@dataclass(frozen=True)
class PassRate:
    """Fraction of correct rollouts; p = successes / k exactly."""

    p: float
    k: int
    successes: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"PassRate requires k >= 1, got {self.k}")
        if not 0 <= self.successes <= self.k:
            raise DomainError(
                f"PassRate successes must lie in [0, {self.k}], got {self.successes}"
            )
        if self.p != self.successes / self.k:
            raise DomainError(
                f"PassRate p={self.p!r} does not equal successes/k = "
                f"{self.successes}/{self.k}"
            )

    @classmethod
    def from_counts(cls, successes: int, k: int) -> "PassRate":
        if k < 1:
            raise DomainError(f"PassRate requires k >= 1, got {k}")
        return cls(p=successes / k, k=k, successes=successes)


@dataclass(frozen=True)
class PassRateHistogram:
    """Binned pass-rate fractions plus the un-binned arithmetic mean."""

    bin_edges: tuple[float, ...]
    fractions: tuple[float, ...]
    mean_p: float

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.bin_edges)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        _validate_edges(edges)
        if len(self.fractions) != len(edges) - 1:
            raise DomainError("fractions length must be len(bin_edges) - 1")
        if any(f < 0 for f in self.fractions):
            raise DomainError("histogram fractions must be nonnegative")
        if not math.isclose(sum(self.fractions), 1.0, abs_tol=1e-9):
            raise DomainError("histogram fractions must sum to 1 within 1e-9")
        if not 0.0 <= self.mean_p <= 1.0:
            raise DomainError(f"mean_p must lie in [0,1], got {self.mean_p}")


def _validate_edges(edges: Sequence[float]) -> None:
    if len(edges) < 2:
        raise DomainError("bin edges need at least two entries")
    if edges[0] != 0.0 or edges[-1] != 1.0:
        raise DomainError("bin edges must start at 0 and end at 1")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DomainError("bin edges must be strictly increasing")


def equal_edges(num_bins: int) -> tuple[float, ...]:
    """num_bins equal-width edges over [0, 1]."""
    if num_bins < 2:
        raise DomainError(f"num_bins must be >= 2, got {num_bins}")
    return tuple(np.linspace(0.0, 1.0, num_bins + 1))


def estimate_pass_rate(record: RolloutRecord) -> PassRate:
    """Pass rate of one problem: correct rollouts over total rollouts."""
    successes = sum(1 for o in record.outcomes if o)
    return PassRate.from_counts(successes, len(record.outcomes))


def hard_filter(p: float, lo: float = 0.2, hi: float = 0.8) -> bool:
    """Keep decision for the inclusive band lo <= p <= hi."""
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise DomainError(f"pass rate must lie in [0,1], got {p!r}")
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
        raise DomainError(f"filter bounds must lie in [0,1], got ({lo}, {hi})")
    if lo > hi:
        raise DomainError(f"filter bounds must satisfy lo <= hi, got ({lo}, {hi})")
    return lo <= p <= hi


def histogram(p: np.ndarray, edges: Sequence[float]) -> PassRateHistogram:
    """Bin an array of pass rates into the given edges (last bin closed on
    both ends)."""
    values = np.asarray(p, dtype=np.float64)
    if values.size == 0:
        raise InsufficientDataError("histogram requires at least one pass rate")
    edges_t = tuple(float(e) for e in edges)
    _validate_edges(edges_t)
    # np.histogram uses exactly the required convention: half-open bins with
    # the final bin closed.
    counts, _ = np.histogram(values, bins=np.array(edges_t))
    fractions = counts / values.size
    return PassRateHistogram(
        bin_edges=edges_t,
        fractions=tuple(fractions),
        mean_p=float(values.mean()),
    )
