"""Deterministic data-parallel substrate: row partitioning and histogram reduction.

The engine's determinism contract is that a trained model is a pure function
of (data, config, seed) and never of the degree of parallelism. IEEE float
addition is not associative, so that contract cannot be met by re-chunking
sums per worker count. Instead the summation structure is *fixed*: node rows
are always partitioned into ``N_HIST_PARTS`` contiguous ranges, per-partition
sums always accumulate in ascending row order, and partial histograms are
always combined by the same fixed-shape pairwise tree. Worker count only
decides how many partitions are computed concurrently, so results are
bit-identical for any ``n_workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from jamcast.errors import ConfigError, ValidationError

if TYPE_CHECKING:  # importing the grower here would be circular at run time
    from jamcast.trees.grower import GradHistogram

# Fixed data-parallel grain. Part of the deterministic summation structure:
# changing it changes float sums, changing n_workers does not.
N_HIST_PARTS = 8


@dataclass(frozen=True)
class PartitionPlan:
    """Contiguous, balanced row ranges assigned to workers in index order."""

    n_rows: int
    n_workers: int
    ranges: tuple[tuple[int, int], ...]

    def sizes(self) -> list[int]:
        return [hi - lo for lo, hi in self.ranges]


def partition_rows(n_rows: int, n_workers: int) -> PartitionPlan:
    """Split 0..n_rows into n_workers contiguous ranges, sizes differing by <= 1.

    Earlier workers take the larger shares: (10, 4) -> sizes [3, 3, 2, 2].
    """
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if n_rows < 0:
        raise ValidationError(f"n_rows must be >= 0, got {n_rows}")
    base, extra = divmod(n_rows, n_workers)
    ranges = []
    lo = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        ranges.append((lo, lo + size))
        lo += size
    return PartitionPlan(n_rows=n_rows, n_workers=n_workers, ranges=tuple(ranges))


def reduce_histograms(parts: Sequence[GradHistogram]) -> GradHistogram:
    """Cell-wise sum of partial histograms by a fixed-shape pairwise tree.

    The reduction shape depends only on len(parts) and the given order
    (worker/partition index), never on the wall-clock order in which the
    parts were produced, so the output is bit-reproducible.
    """
    if len(parts) == 0:
        raise ValidationError("reduce_histograms needs at least one histogram")
    first = parts[0]
    for p in parts[1:]:
        if p.sums.shape != first.sums.shape:
            raise ValidationError(
                f"histogram shape mismatch: {p.sums.shape} vs {first.sums.shape}"
            )
        if (p.n_real_bins != first.n_real_bins).any():
            raise ValidationError("histogram bin layout mismatch")
    arrays = [p.sums for p in parts]
    while len(arrays) > 1:
        merged = [arrays[i] + arrays[i + 1] for i in range(0, len(arrays) - 1, 2)]
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return replace(first, sums=arrays[0])
