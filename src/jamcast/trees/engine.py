"""Training execution engines: the same partition-local code runs inline or forked.

A PartitionState owns one contiguous row range: its labels, margins,
gradients and per-node row sets, and each of its methods is one training
step. An engine has a single primitive, `_run(method, args, build_id)`: call
PartitionState `method(*args)` on every partition, then, when `build_id` is
not None, return node `build_id`'s histogram, which is always the
fixed-shape reduction of the per-partition histograms in partition order
(see jamcast.parallel). InlineSource runs a step as a loop over its
partitions and PoolSource as one lockstep round-trip to forked workers, so
both produce bit-identical trees.

The pool forks workers after the binned matrix exists (inherited
copy-on-write) and clamps the process count to the machine's cores; the
requested n_workers stays a purely logical degree of parallelism. Workers
write per-partition histograms into a fork-inherited shared-memory block
instead of piping them, and a split plus the resulting child histogram
build travel as one round-trip, so per-node traffic is a few bytes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Sequence

import numpy as np

from jamcast.errors import JamcastError
from jamcast.parallel import N_HIST_PARTS, partition_rows, reduce_histograms
from jamcast.trees.grower import GradHistogram, build_histograms, logistic_grad_hess


class PartitionState:
    """Row-partition-local training state; each method is one training step."""

    def __init__(self, lo: int, hi: int, binned, labels: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.binned = binned
        self.y = np.asarray(labels[lo:hi], dtype=np.float64)
        self.margin: np.ndarray | None = None
        self.g = np.zeros(hi - lo)
        self.h: np.ndarray | None = np.zeros(hi - lo)
        self.nodes: dict[int, np.ndarray] = {}

    def init_boost(self, base_margin: float) -> None:
        self.margin = np.full(self.hi - self.lo, base_margin, dtype=np.float64)

    def begin_round(self, second_order: bool) -> None:
        self.g, self.h = logistic_grad_hess(self.margin, self.y)
        if not second_order:
            self.h = None  # the unit hessian: histograms copy its column from counts
        self.nodes = {0: np.arange(self.lo, self.hi, dtype=np.int64)}

    def begin_tree_weighted(self, mult: np.ndarray) -> None:
        """Bootstrap-weighted tree start from whole-matrix weights: g = y * w, h = w."""
        w = np.asarray(mult[self.lo : self.hi], dtype=np.float64)
        self.g = self.y * w
        self.h = w
        self.nodes = {0: np.nonzero(w > 0)[0].astype(np.int64) + self.lo}

    def node_hist(self, node_id: int) -> np.ndarray:
        hist = build_histograms(
            self.binned, self.nodes[node_id], self.g, self.h, row_offset=self.lo
        )
        return hist.sums

    def apply_split(
        self,
        node_id: int,
        feature: int,
        bin_threshold: int,
        missing_goes_left: bool,
        left_id: int,
        right_id: int,
    ) -> None:
        rows = self.nodes.pop(node_id)
        c = self.binned.codes[feature][rows]
        go_left = c <= bin_threshold
        if missing_goes_left:
            go_left |= c == self.binned.missing_bin[feature]
        self.nodes[left_id] = rows[go_left]
        self.nodes[right_id] = rows[~go_left]

    def finalize_tree(self, deltas: Sequence[tuple[int, float]]) -> None:
        """Add each leaf's margin delta to its rows, then drop the tree's row sets."""
        for nid, delta in deltas:
            rows = self.nodes.get(nid)
            if rows is not None and rows.size:
                self.margin[rows - self.lo] += delta
        self.nodes = {}


def _step(states: Sequence[PartitionState], method: str | None, args: tuple, build_id):
    """One training step over `states`: each one's node `build_id` histogram, if asked."""
    if method is not None:
        for st in states:
            getattr(st, method)(*args)
    return None if build_id is None else [st.node_hist(build_id) for st in states]


def _reduce(binned, sums) -> GradHistogram:
    parts = [GradHistogram(sums=s, n_real_bins=binned.n_real_bins) for s in sums]
    return reduce_histograms(parts)


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
    """The training protocol: every step is one `_run` over all partitions.

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
        self._run("begin_tree_weighted", (mult,))

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
    """Single-process engine over the fixed partition grain."""

    def __init__(self, binned, labels: np.ndarray):
        self.binned = binned
        self.labels = labels
        plan = partition_rows(binned.n_rows, N_HIST_PARTS)
        self.states = [PartitionState(lo, hi, binned, labels) for lo, hi in plan.ranges]

    def _run(self, method, args, build_id=None) -> GradHistogram | None:
        sums = _step(self.states, method, args, build_id)
        return None if sums is None else _reduce(self.binned, sums)

    def close(self) -> None:
        pass


def _worker_main(conn, part_ids, part_ranges, binned, labels, shm_buf, hist_shape) -> None:
    """Forked worker loop: runs each received step on its partitions until None.

    Histograms are written into this worker's slots of the shared buffer.
    The reply is None, or the type and message of the exception the step
    raised, which the parent reports.
    """
    states = [PartitionState(lo, hi, binned, labels) for lo, hi in part_ranges]
    slots = np.frombuffer(shm_buf, dtype=np.float64).reshape((N_HIST_PARTS,) + hist_shape)
    try:
        while (msg := conn.recv()) is not None:
            error = None
            try:
                for pid, s in zip(part_ids, _step(states, *msg) or ()):
                    slots[pid] = s
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            conn.send(error)
    finally:
        conn.close()


@_own_steps
class PoolSource(_Engine):
    """Engine backed by forked worker processes.

    The fixed partition grain is distributed contiguously over workers;
    per-partition histograms come back in partition order and are reduced
    exactly as in InlineSource, so results are bit-identical. No more
    processes are forked than the machine has cores: extra requested
    workers would only contend for the same cores.
    """

    def __init__(self, binned, labels: np.ndarray, n_workers: int):
        self.binned = binned
        self.labels = labels
        n_procs = max(1, min(n_workers, N_HIST_PARTS, os.cpu_count() or 1))
        plan = partition_rows(binned.n_rows, N_HIST_PARTS)
        assign = partition_rows(N_HIST_PARTS, n_procs)
        hist_shape = (binned.n_features, binned.hist_bins, 3)
        ctx = mp.get_context("fork")
        shm = ctx.RawArray("d", N_HIST_PARTS * int(np.prod(hist_shape)))
        self._slots = np.frombuffer(shm, dtype=np.float64).reshape((N_HIST_PARTS,) + hist_shape)
        self._conns = []
        self._procs = []
        for w_lo, w_hi in assign.ranges:
            parent_conn, child_conn = ctx.Pipe()
            parts = (range(w_lo, w_hi), plan.ranges[w_lo:w_hi])
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, *parts, binned, labels, shm, hist_shape),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _run(self, method, args, build_id=None) -> GradHistogram | None:
        """Send one step to every worker, then wait for all of them to finish it.

        A worker that died or whose step raised stops the pool and is
        reported as a JamcastError naming the worker.
        """
        msg = (method, args, build_id)
        failed = None
        try:
            for worker, conn in enumerate(self._conns):
                conn.send(msg)
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
