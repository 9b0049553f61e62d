"""Training execution engines: the same training state runs inline or forked.

A PartitionState owns a contiguous run of the fixed partitions (see
jamcast.parallel): their labels, margins, gradients and per-node row sets,
and each of its methods is one training step. Each engine process holds one
state: the inline engine's covers all N_HIST_PARTS partitions, a pool
worker's its assigned run of them. So a step runs once per node, not once
per partition, and a node histogram is built for all of the state's
partitions in one cache-blocked pass (see build_histograms). An engine has a
single primitive, `_run(method, args, build_id, row_args)`: call
PartitionState `method(*args, *row_args)` on every state, each state
receiving only its own rows of the whole-matrix arrays in `row_args`, then,
when `build_id` is not None, return node `build_id`'s histogram, which is
always the fixed-shape reduction of the N_HIST_PARTS per-partition
histograms in partition order. The summation structure never depends on
which process built which partition, so both engines produce bit-identical
trees.

The pool forks workers after the binned matrix exists (inherited
copy-on-write) and clamps the process count to the cores it may use; the
requested n_workers stays a purely logical degree of parallelism. Workers
write per-partition histograms into a fork-inherited shared-memory block
instead of piping them, a split plus the resulting child histogram build
travel as one round-trip, and per-row arguments are sliced so each worker
receives only its own rows, so per-node traffic is a few bytes.
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
    rows b_0..b_P. Each method is one training step.
    """

    def __init__(self, bounds: Sequence[int], binned, labels: np.ndarray):
        self.bounds = tuple(bounds)
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
        self.nodes = {0: np.nonzero(w > 0)[0].astype(np.int64) + self.lo}

    def node_hist(self, node_id: int) -> np.ndarray:
        """Node `node_id`'s (n_parts, F, B, 3) histograms, one per partition."""
        return build_histograms(self.binned, self.nodes[node_id], self.g, self.h, self.bounds)

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


def _step(state: PartitionState, method: str | None, args: tuple, build_id):
    """One training step on `state`: its node `build_id` histograms, if asked."""
    if method is not None:
        getattr(state, method)(*args)
    return None if build_id is None else state.node_hist(build_id)


def _partition_edges(n_rows: int) -> list[int]:
    """Row edges 0 = b_0 <= ... <= b_N = n_rows of the N_HIST_PARTS fixed partitions."""
    return [lo for lo, _ in partition_rows(n_rows, N_HIST_PARTS)] + [n_rows]


def _reduce(binned, sums: np.ndarray) -> GradHistogram:
    """The node histogram: the fixed reduction of its (n_parts, F, B, 3) partition sums."""
    return GradHistogram(sums=reduce_histograms(sums), n_real_bins=binned.n_real_bins)


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
    """The training protocol: every step is one `_run` over all states.

    `exact_sums` tells the grower whether the current tree's histogram sums
    are exact (see jamcast.trees.grower); boosting rounds never are.
    """

    exact_sums = False

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
    """Single-process engine: one state over all the fixed partitions."""

    def __init__(self, binned, labels: np.ndarray):
        self.binned = binned
        self.labels = labels
        self.state = PartitionState(_partition_edges(binned.n_rows), binned, labels)

    def _run(self, method, args=(), build_id=None, row_args=()) -> GradHistogram | None:
        sums = _step(self.state, method, args + row_args, build_id)  # the state has every row
        return None if sums is None else _reduce(self.binned, sums)

    def close(self) -> None:
        pass


def _worker_main(conn, first_part, bounds, binned, labels, shm_buf, hist_shape) -> None:
    """Forked worker loop: runs each received step on its state until None.

    The state covers the partitions first_part.. with row edges `bounds`;
    their histograms are written into those slots of the shared buffer.
    The reply is None, or the type and message of the exception the step
    raised, which the parent reports.
    """
    state = PartitionState(bounds, binned, labels)
    slots = np.frombuffer(shm_buf, dtype=np.float64).reshape((N_HIST_PARTS,) + hist_shape)
    own = slots[first_part : first_part + len(bounds) - 1]
    try:
        while (msg := conn.recv()) is not None:
            error = None
            try:
                sums = _step(state, *msg)
                if sums is not None:
                    own[...] = sums
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            conn.send(error)
    finally:
        conn.close()


@_own_steps
class PoolSource(_Engine):
    """Engine backed by forked worker processes.

    The fixed partitions are distributed contiguously over workers, each
    holding one state over its run of them; per-partition histograms come
    back in partition order through shared memory and are reduced
    exactly as in InlineSource, so results are bit-identical. No more
    processes are forked than there are cores this process may run on
    (`parallel.usable_cpus`): extra requested workers would only contend
    for the same cores.
    """

    def __init__(self, binned, labels: np.ndarray, n_workers: int):
        self.binned = binned
        self.labels = labels
        n_procs = max(1, min(n_workers, N_HIST_PARTS, usable_cpus()))
        edges = _partition_edges(binned.n_rows)
        assign = partition_rows(N_HIST_PARTS, n_procs)
        hist_shape = (binned.n_features, binned.hist_bins, 3)
        ctx = mp.get_context("fork")
        shm = ctx.RawArray("d", N_HIST_PARTS * int(np.prod(hist_shape)))
        self._slots = np.frombuffer(shm, dtype=np.float64).reshape((N_HIST_PARTS,) + hist_shape)
        self._rows = [(edges[p_lo], edges[p_hi]) for p_lo, p_hi in assign]
        self._conns = []
        self._procs = []
        for p_lo, p_hi in assign:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, p_lo, edges[p_lo : p_hi + 1], binned, labels, shm, hist_shape),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _run(self, method, args=(), build_id=None, row_args=()) -> GradHistogram | None:
        """Send one step to every worker, then wait for all of them to finish it.

        Each worker receives only its own rows' slice of `row_args`. A
        worker that died or whose step raised stops the pool and is
        reported as a JamcastError naming the worker.
        """
        failed = None
        try:
            for worker, conn in enumerate(self._conns):
                lo, hi = self._rows[worker]
                conn.send((method, args + tuple(a[lo:hi] for a in row_args), build_id))
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
        return None if build_id is None else _reduce(self.binned, self._slots)

    apply_split = _Engine.expand  # perfbench/tracer.py wraps it by name

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


def open_engine(binned, labels: np.ndarray, n_workers: int):
    """Inline engine for one worker, forked pool otherwise (fork platforms only)."""
    if n_workers <= 1:
        return InlineSource(binned, labels)
    try:
        mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platform fallback
        return InlineSource(binned, labels)
    return PoolSource(binned, labels, n_workers)
