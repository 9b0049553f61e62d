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

import os
from typing import Sequence

import numpy as np

from jamcast.errors import ConfigError, ValidationError

# Fixed data-parallel grain. Part of the deterministic summation structure:
# changing it changes float sums, changing n_workers does not.
N_HIST_PARTS = 8


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one.

    os.cpu_count() counts the host's CPUs, which a cpuset or a container
    may not grant this process.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def partition_rows(n_rows: int, n_workers: int) -> list[tuple[int, int]]:
    """Split 0..n_rows into n_workers contiguous (lo, hi) ranges, sizes differing by <= 1.

    Earlier workers take the larger shares: (10, 4) -> sizes [3, 3, 2, 2].
    """
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if n_rows < 0:
        raise ValidationError(f"n_rows must be >= 0, got {n_rows}")
    base, extra = divmod(n_rows, n_workers)
    cuts = [w * base + min(w, extra) for w in range(n_workers + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def reduce_histograms(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Cell-wise sum of partial histogram arrays by a fixed-shape pairwise tree.

    `parts` is a sequence of same-shape arrays, such as the engine's
    (n_parts, F, B, 3) stack of per-partition histograms. Each level adds
    part 2i to part 2i+1, and an odd last part passes up unchanged. The
    reduction shape depends only on len(parts) and the given order
    (worker/partition index), never on the wall-clock order in which the
    parts were produced, so the output is bit-reproducible.
    """
    sums = np.asarray(parts, dtype=np.float64)
    if sums.ndim == 0 or len(sums) == 0:
        raise ValidationError("reduce_histograms needs at least one histogram")
    while len(sums) > 1:
        paired = sums[0:-1:2] + sums[1::2]
        sums = np.concatenate([paired, sums[-1:]]) if len(sums) % 2 else paired
    return sums[0]
