"""The training engine: one training state per process, the parent's included.

A PartitionState owns a contiguous run of the fixed partitions (see
jamcast.parallel): their labels, margins, gradients and per-node row sets,
and each of its methods is one training step. The engine splits the
N_HIST_PARTS partitions into one contiguous run per process: the parent
holds the state of the first run and forks one worker per later run. With
one process (one worker requested, one usable CPU, or no fork on the
platform) nothing is forked and the parent's state covers every partition.
So a step runs once per node and process, not once per partition, and a
node histogram is built for all of a state's partitions in one
cache-blocked pass (see build_histograms). The engine has a single
primitive, `_run(method, args, build_id, row_args)`: call PartitionState
`method(*args, *row_args)` on every state, each state receiving only its
own rows of the whole-matrix arrays in `row_args`, then, when `build_id` is
not None, return node `build_id`'s histogram, which is always the
fixed-shape reduction of the N_HIST_PARTS per-partition histograms in
partition order. The summation structure never depends on which process
built which partition, so every process count produces bit-identical trees.

Workers are forked after the binned matrix exists (inherited
copy-on-write), and the process count is clamped to the cores this process
may use; the requested n_workers stays a purely logical degree of
parallelism. Every state writes its partitions' histograms in place into
its slots of one (N_HIST_PARTS, F, B, 3) block, which is fork-inherited
shared memory when workers exist, so no histogram is piped or copied. A
split plus the resulting child histogram build travel as one round-trip,
and per-row arguments are sliced so each worker receives only its own
rows, so per-node traffic is a few bytes. InlineSource and PoolSource are
this one engine under the two names that tracing tells apart: opened for
one worker or for several.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Sequence

import numpy as np

from jamcast.errors import JamcastError
from jamcast.parallel import N_HIST_PARTS, partition_rows, reduce_histograms, usable_cpus
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
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # no fork on this platform: the parent holds every partition
            n_procs = 1
        # row edges 0 = b_0 <= ... <= b_N = n_rows of the N_HIST_PARTS fixed partitions
        edges = [lo for lo, _ in partition_rows(binned.n_rows, N_HIST_PARTS)] + [binned.n_rows]
        assign = partition_rows(N_HIST_PARTS, n_procs)
        self._rows = [(edges[p_lo], edges[p_hi]) for p_lo, p_hi in assign]
        shape = (N_HIST_PARTS, binned.n_features, binned.hist_bins, 3)
        if n_procs == 1:
            self._slots = np.empty(shape)
        else:  # forked workers fill their slots in place
            shm = ctx.RawArray("d", int(np.prod(shape)))
            self._slots = np.frombuffer(shm, dtype=np.float64).reshape(shape)
        (p_lo, p_hi), forked = assign[0], assign[1:]
        self.state = PartitionState(edges[p_lo : p_hi + 1], binned, labels, self._slots[p_lo:p_hi])
        self._conns = []
        self._procs = []
        try:
            for p_lo, p_hi in forked:
                parent_conn, child_conn = ctx.Pipe()
                self._conns.append(parent_conn)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, edges[p_lo : p_hi + 1], binned, labels,
                          self._slots[p_lo:p_hi]),
                    daemon=True,
                )
                with child_conn:
                    proc.start()
                self._procs.append(proc)
        except BaseException:  # a fork that fails (EAGAIN, ENOMEM) stops the workers started
            self.close()
            raise

    def _run(self, method, args=(), build_id=None, row_args=()) -> GradHistogram | None:
        """Send one step to every worker, run the parent's own, then collect every reply.

        Each state receives only its own rows' slice of `row_args`. Every
        worker's reply is received before an exception of the parent's own
        step propagates. A worker that died or whose step raised stops the
        engine and is reported as a JamcastError naming the worker; forked
        workers are numbered from 0.
        """
        steps = [(method, args + tuple(a[lo:hi] for a in row_args), build_id)
                 for lo, hi in self._rows]
        failed = own_error = None
        try:
            for worker, conn in enumerate(self._conns):
                conn.send(steps[worker + 1])
            try:
                _step(self.state, *steps[0])
            except Exception as exc:  # raised once every worker has replied
                own_error = exc
            for worker, conn in enumerate(self._conns):
                error = conn.recv()
                if error is not None and failed is None:
                    failed = (worker, f"failed: {error}")
        except (EOFError, OSError):
            failed = (worker, None)
        if failed is not None:
            worker, what = failed
            proc = self._procs[worker]
            self.close()
            what = what or f"died with exit code {proc.exitcode}"
            raise JamcastError(f"pool worker {worker} (pid {proc.pid}) {what}")
        if own_error is not None:
            raise own_error
        if build_id is None:
            return None
        sums = reduce_histograms(self._slots)  # the fixed reduction of the partition sums
        return GradHistogram(sums=sums, n_real_bins=self.binned.n_real_bins)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join()
        self._conns = []
        self._procs = []

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


def _worker_main(conn, bounds, binned, labels, hist) -> None:
    """Forked worker loop: runs each received step on its state until None.

    The state covers the partitions with row edges `bounds`; their
    histograms are written into `hist`, its slots of the shared block.
    The reply is None, or the type and message of the exception the step
    raised, which the parent reports.
    """
    state = PartitionState(bounds, binned, labels, hist)
    try:
        while (msg := conn.recv()) is not None:
            error = None
            try:
                _step(state, *msg)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            conn.send(error)
    finally:
        conn.close()


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
