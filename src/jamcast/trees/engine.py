"""The training engine: one training state per process, the parent's included.

A PartitionState owns a contiguous run of the fixed partitions (see
jamcast.parallel): their labels, margins, gradients and per-node row sets,
and each of its methods is one training step. The engine splits the
N_HIST_PARTS partitions into one contiguous run per process, at most one
per usable CPU: the parent holds the first run's state and each worker of
a jamcast.parallel.Pool, forked after the binned matrix exists, a later
run's. With one process nothing is forked. A state builds a node's
histograms for all of its partitions in one cache-blocked pass (see
build_histograms), in place into its slots of one (N_HIST_PARTS, F, B, 3)
block, a shared_array when workers exist, so no histogram is piped. The
engine's primitive is `_run(method, args, build_id, row_args)`: PartitionState
`method(*args, *row_args)` on every state, each on its own rows of the
arrays in `row_args`, then, when `build_id` is not None, node `build_id`'s
histogram: always the fixed-shape reduction of the block in partition
order, so every process count produces bit-identical trees. A split and
the child histogram it asks for are one round-trip of a few bytes.
InlineSource and PoolSource are this one engine under the two names that
tracing tells apart: opened for one worker or for several.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from jamcast.parallel import (
    N_HIST_PARTS,
    Pool,
    fork_context,
    partition_rows,
    reduce_histograms,
    shared_array,
    usable_cpus,
)
from jamcast.trees.grower import GradHistogram, build_histograms, logistic_grad_hess, split_rows


class PartitionState:
    """Training state of one process over a contiguous run of partitions.

    `bounds` are the partitions' row edges b_0 <= ... <= b_P; the state owns
    rows b_0..b_P. `hist` is the (P, F, B, 3) block its node histograms are
    written into. Each method is one training step.
    """

    def __init__(self, bounds: Sequence[int], binned, labels: np.ndarray, hist: np.ndarray):
        self.bounds = tuple(bounds)
        self.hist = hist
        self.lo = self.bounds[0]
        self.hi = self.bounds[-1]
        self.binned = binned
        self.y = np.asarray(labels[self.lo : self.hi], dtype=np.float64)
        self.margin: np.ndarray | None = None
        self.g: np.ndarray | None = None
        self.h: np.ndarray | None = None
        self.nodes: dict[int, np.ndarray] = {}

    def init_boost(self, base_margin: float) -> None:
        self.margin = np.full(self.hi - self.lo, base_margin, dtype=np.float64)

    def begin_round(self, second_order: bool) -> None:
        self.g, self.h = logistic_grad_hess(self.margin, self.y)
        if not second_order:
            self.h = None  # the unit hessian: histograms copy its column from counts
        self.nodes = {0: np.arange(self.lo, self.hi, dtype=np.int64)}

    def begin_tree_weighted(self, w: np.ndarray) -> None:
        """Bootstrap-weighted tree start from this state's rows' weights: g = y * w, h = w."""
        w = np.asarray(w, dtype=np.float64)
        self.g = self.y * w
        self.h = w
        rows = np.flatnonzero(w > 0).astype(np.int64, copy=False)
        rows += self.lo
        self.nodes = {0: rows}

    def node_hist(self, node_id: int) -> np.ndarray:
        """Node `node_id`'s histograms, one per partition, written into `hist`."""
        rows = self.nodes[node_id]
        return build_histograms(self.binned, rows, self.g, self.h, self.bounds, out=self.hist)

    def apply_split(
        self,
        node_id: int,
        feature: int,
        bin_threshold: int,
        missing_goes_left: bool,
        left_id: int,
        right_id: int,
    ) -> None:
        rows, n_real = self.nodes.pop(node_id), self.binned.n_real_bins[feature]
        self.nodes[left_id], self.nodes[right_id] = split_rows(
            rows, self.binned.codes[feature], bin_threshold, n_real, missing_goes_left
        )

    def finalize_tree(self, deltas: Sequence[tuple[int, float]]) -> None:
        """Add each leaf's margin delta to its rows, then drop the tree's row sets and g/h.

        Dropped here, the old g and h are not alive beside the next tree's
        while those are computed, which would be the state's memory peak.
        """
        for nid, delta in deltas:
            rows = self.nodes.get(nid)
            if rows is not None and rows.size:
                self.margin[rows - self.lo] += delta
        self.nodes = {}
        self.g = self.h = None


def _step(state: PartitionState, method: str | None, args: tuple, build_id) -> None:
    """One training step on `state`, then its node `build_id` histograms, if asked."""
    if method is not None:
        getattr(state, method)(*args)
    if build_id is not None:
        state.node_hist(build_id)


def _exact_sums(labels: np.ndarray, mult: np.ndarray) -> bool:
    """Whether a weighted tree's histogram sums are exact in float64 in any order.

    Its rows carry g = y * w and h = w, and counts are exact anyway. With 0/1
    labels and non-negative integer weights (an integer dtype) whose total is
    below 2**53, every g and h sum, and every difference of two, is an
    integer below 2**53.
    """
    mult = np.asarray(mult)
    return (
        np.issubdtype(mult.dtype, np.integer)
        and not (mult < 0).any()
        and mult.sum(dtype=np.float64) < 2.0**53
        and bool(((labels == 0) | (labels == 1)).all())
    )


class _Engine:
    """The training engine: every step is one `_run` over all states.

    `exact_sums` tells the grower whether the current tree's histogram sums
    are exact (see jamcast.trees.grower); boosting rounds never are.
    """

    exact_sums = False

    def __init__(self, binned, labels: np.ndarray, n_workers: int = 1):
        self.binned = binned
        self.labels = labels
        n_procs = max(1, min(n_workers, N_HIST_PARTS, usable_cpus()))
        if n_procs > 1 and fork_context() is None:  # the parent holds every partition
            n_procs = 1
        # row edges 0 = b_0 <= ... <= b_N = n_rows of the N_HIST_PARTS fixed partitions
        edges = [lo for lo, _ in partition_rows(binned.n_rows, N_HIST_PARTS)] + [binned.n_rows]
        shape = (N_HIST_PARTS, binned.n_features, binned.hist_bins, 3)
        self._slots = np.empty(shape) if n_procs == 1 else shared_array(shape, np.float64)
        # each process's state arguments; the parent holds the first run of partitions
        runs = [(edges[lo : hi + 1], binned, labels, self._slots[lo:hi])
                for lo, hi in partition_rows(N_HIST_PARTS, n_procs)]
        self._rows = [(bounds[0], bounds[-1]) for bounds, *_ in runs]
        self.state = PartitionState(*runs[0])
        self._pool = Pool(_worker_main, runs[1:])

    def _run(self, method, args=(), build_id=None, row_args=()) -> GradHistogram | None:
        """Run one step on every state (see Pool.run), each on its rows of `row_args`."""
        steps = [(method, args + tuple(a[lo:hi] for a in row_args), build_id)
                 for lo, hi in self._rows]
        self._pool.run(steps, lambda step: _step(self.state, *step))
        if build_id is None:
            return None
        sums = reduce_histograms(self._slots)  # the fixed reduction of the partition sums
        return GradHistogram(sums=sums, n_real_bins=self.binned.n_real_bins)

    def close(self) -> None:
        self._pool.close()

    def init_boost(self, base_margin: float) -> None:
        self._run("init_boost", (base_margin,))

    def begin_round(self, second_order: bool) -> None:
        self.exact_sums = False
        self._run("begin_round", (second_order,))

    def begin_tree_weighted(self, mult: np.ndarray) -> None:
        self.exact_sums = _exact_sums(self.labels, mult)
        self._run("begin_tree_weighted", row_args=(mult,))

    def finalize_tree(self, deltas: Sequence[tuple[int, float]]) -> None:
        self._run("finalize_tree", (deltas,))

    def node_hist(self, node_id: int) -> GradHistogram:
        return self._run(None, (), node_id)

    def expand(
        self, node_id, feature, bin_threshold, missing_goes_left, left_id, right_id, build_id=None
    ) -> GradHistogram | None:
        """Apply a split, then build the requested child histogram (if any)."""
        split = (node_id, feature, bin_threshold, missing_goes_left, left_id, right_id)
        return self._run("apply_split", split, build_id)


def _worker_main(serve, bounds, binned, labels, hist) -> None:
    """A forked worker's life: its state over the partitions with row edges `bounds`,
    whose histograms are written into `hist`, its slots of the shared block, then
    each step the parent sends, until the engine closes."""
    state = PartitionState(bounds, binned, labels, hist)
    serve(lambda step: _step(state, *step))


def _own_steps(cls):
    """Bind the protocol steps in `cls` itself, not only through inheritance.

    perfbench/tracer.py times each engine class's steps by patching the
    entries of that class's own `__dict__`.
    """
    for name, fn in vars(_Engine).items():
        if not name.startswith("_"):
            setattr(cls, name, fn)
    return cls


@_own_steps
class InlineSource(_Engine):
    """The engine as opened for one worker."""


@_own_steps
class PoolSource(_Engine):
    """The engine as opened for several workers."""

    apply_split = _Engine.expand  # perfbench/tracer.py wraps it by name


def open_engine(binned, labels: np.ndarray, n_workers: int):
    """The engine for `n_workers`; only the class name, which tracing reads, depends on it."""
    return (InlineSource if n_workers <= 1 else PoolSource)(binned, labels, n_workers)
