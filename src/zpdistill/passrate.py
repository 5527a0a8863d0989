"""Rollout counts and pass-rate bins.

A RolloutTable holds each problem's successes out of k rollouts as integer
arrays validated once at construction; its pass rates are p = successes / k.

bin_indices() bins are left-closed, right-open, except the final bin which
is closed on both ends so p = 1 is counted (np.histogram's rule). The
three-bin reporting edges (0, 0.2, 0.8, 1) are exported as THREE_BIN_EDGES;
under this convention the middle bin is [0.2, 0.8), while the hard scheme's
keep band in kernel.raw_weights is inclusive on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "RolloutTable",
    "THREE_BIN_EDGES",
    "bin_indices",
    "equal_edges",
]

THREE_BIN_EDGES: tuple[float, ...] = (0.0, 0.2, 0.8, 1.0)


@dataclass(frozen=True)
class RolloutTable:
    """Per-problem rollout counts: problem_ids (N,), and integer arrays
    successes (N,) and k (N,), each problem's correct rollouts out of k.

    Ids are non-empty and unique, k >= 1 and 0 <= successes <= k; a table
    that breaks this cannot be built. N = 0 is a valid, empty table.
    """

    problem_ids: tuple[str, ...]
    successes: np.ndarray
    k: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.problem_ids)
        successes = np.asarray(self.successes)
        k = np.asarray(self.k)
        object.__setattr__(self, "problem_ids", ids)
        object.__setattr__(self, "successes", successes)
        object.__setattr__(self, "k", k)
        integers = successes.dtype.kind in "iu" and k.dtype.kind in "iu"
        if not ((len(ids),) == successes.shape == k.shape and integers):
            raise DomainError(
                "need N ids and integer arrays successes and k of shape (N,), got "
                f"{len(ids)} ids, successes {successes.dtype} {successes.shape}, "
                f"k {k.dtype} {k.shape}"
            )
        if not all(ids) or len(set(ids)) != len(ids):
            raise DomainError("problem ids must be non-empty and unique")
        bad = (k < 1) | (successes < 0) | (successes > k)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"row {i} ({ids[i]!r}) needs k >= 1 and successes in [0, k], "
                f"got {successes[i]} of {k[i]}"
            )

    @property
    def p(self) -> np.ndarray:
        """Pass rates successes / k, each exactly Python's int / int."""
        return self.successes / self.k


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


def bin_indices(p: np.ndarray, edges: Sequence[float]) -> np.ndarray:
    """Bin index of each pass rate: bins are left-closed, right-open, except
    the final bin, which also holds p = 1."""
    _validate_edges(edges)
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise DomainError(f"pass rates must lie in [0,1], got {float(p[bad][0])!r}")
    idx = np.searchsorted(edges, p, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)
