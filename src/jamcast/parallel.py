"""Deterministic data-parallel substrate: row partitioning, histogram reduction
and the one pool of forked workers.

The engine's determinism contract is that a trained model is a pure function
of (data, config, seed) and never of the degree of parallelism. IEEE float
addition is not associative, so that contract cannot be met by re-chunking
sums per worker count. Instead the summation structure is *fixed*: node rows
are always partitioned into ``N_HIST_PARTS`` contiguous ranges, per-partition
sums always accumulate in ascending row order, and partial histograms are
always combined by the same fixed-shape pairwise tree. Worker count only
decides how many partitions are computed concurrently, so results are
bit-identical for any ``n_workers``.

`Pool` is the only code that forks. The training engine and quantize fork
after their inputs exist, so workers inherit them copy-on-write and write
bulk results into a `shared_array` instead of a pipe.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing as mp
import os
from typing import Callable, Sequence

import numpy as np

from jamcast.errors import ConfigError, JamcastError, ValidationError

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


def fork_context():
    """multiprocessing's fork context, or None where the platform cannot fork."""
    try:
        return mp.get_context("fork")
    except ValueError:
        return None


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in shared memory, written by the workers forked after it."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


class Pool:
    """Forked workers, numbered from 0: worker i runs `main(serve, *worker_args[i])`
    for its whole life, where `serve(fn)` replies fn(message) to each message until
    the pool closes. A fork that fails (EAGAIN, ENOMEM) stops the workers started."""

    def __init__(self, main: Callable, worker_args: Sequence[tuple]):
        self.conns, self.procs = [], []
        ctx = fork_context() if worker_args else None
        try:
            for args in worker_args:
                parent_conn, child_conn = ctx.Pipe()
                self.conns.append(parent_conn)
                proc = ctx.Process(target=_worker, args=(child_conn, main, args), daemon=True)
                with child_conn:
                    proc.start()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def run(self, messages: Sequence, own: Callable) -> list:
        """Send messages[i + 1] to worker i, run own(messages[0]) in the parent, then
        collect every reply: [own's result, worker 0's, worker 1's, ...].

        An exception of own() propagates once every worker has replied. A worker that
        died or failed closes the pool; a JamcastError it raised is raised as itself,
        any other failure as a JamcastError naming the worker and its pid.
        """
        results, failed, own_error = [None], None, None
        try:
            for worker, conn in enumerate(self.conns):
                conn.send(messages[worker + 1])
            try:
                results[0] = own(messages[0])
            except Exception as exc:
                own_error = exc
            for worker, conn in enumerate(self.conns):
                error, result = conn.recv()
                results.append(result)
                if error is not None:
                    failed = failed or (worker, error)
        except (EOFError, OSError):  # a worker died
            failed = (worker, None)
        if failed:
            worker, error = failed
            proc = self.procs[worker]
            self.close()
            if isinstance(error, JamcastError):
                raise error
            what = f"failed: {error}" if error else f"died with exit code {proc.exitcode}"
            raise JamcastError(f"pool worker {worker} (pid {proc.pid}) {what}")
        if own_error is not None:
            raise own_error
        return results

    def close(self) -> None:
        """Stop every worker; closing a closed pool does nothing."""
        for conn in self.conns:
            with contextlib.suppress(OSError):  # the worker is already gone
                conn.send(None)
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join()
        self.conns, self.procs = [], []


def _worker(conn, main: Callable, args: tuple) -> None:
    """A worker's life. Each reply is (None, fn's result), or (the JamcastError fn
    raised, None), or (the type and message of another exception fn raised, None)."""

    def serve(fn: Callable) -> None:
        while (msg := conn.recv()) is not None:
            try:
                reply = (None, fn(msg))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                reply = (exc if isinstance(exc, JamcastError) else error, None)
            conn.send(reply)

    with conn:
        main(serve, *args)
