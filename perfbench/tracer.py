"""Per-layer tracing of jamcast from outside the program.

`Tracer.install()` replaces the public functions and methods of each layer
with timing and counting wrappers, wherever jamcast has bound them: module
attributes, re-exports, registry dicts (the trainer tables) and default
arguments (the engine's reducer). `Tracer.restore()` puts every original
back. No module under src/ knows about tracing.

Layer metrics are inclusive wall times and counts, summed over the calls
made while installed. Engine-source metrics count only outermost calls, so
an inline `expand` is not counted again as the `node_hist` it calls.
Forked pool workers inherit the wrappers; each writes its partition-level
totals to `trace_dir` on exit and `finish_command()` adds them in. Only a
pool makes the parent wait for workers, so `engine.worker_wait_s` and
`engine.worker_peak_rss_mb` stay unset on the inline engine.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# partition-level metrics a pool worker sends back to its parent
_WORKER_METRICS = ("engine.partition_hist_s", "engine.partition_split_s", "engine.hist_rows")


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark, in MB.

    VmHWM belongs to the current address space, so a process started by
    fork and exec does not inherit its parent's peak, as ru_maxrss does.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _jamcast_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "jamcast" or n.startswith("jamcast.")]


class Tracer:
    """Installs layer wrappers into the loaded jamcast modules and removes them."""

    def __init__(self, trace_dir: str | Path):
        self.trace_dir = Path(trace_dir)
        self.values: dict[str, float] = defaultdict(float)
        self.kind: str | None = None  # model kind being trained, for per-model counts
        self._source_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patch bookkeeping -------------------------------------------------
    def _set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
        elif isinstance(owner, type):
            original = owner.__dict__[key]
            setattr(owner, key, value)
        else:
            original = getattr(owner, key)
            setattr(owner, key, value)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        """Put back every attribute, registry entry and default this tracer replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def patched(self) -> list[tuple[object, str]]:
        return [(owner, key) for owner, key, _ in self._patches]

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind `original` to `replacement` in every jamcast module namespace."""
        for module in _jamcast_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, replacement)
                functions = vars(value).values() if isinstance(value, type) else [value]
                for fn in functions:
                    defaults = getattr(fn, "__defaults__", None)
                    if callable(fn) and defaults and any(d is original for d in defaults):
                        new = tuple(replacement if d is original else d for d in defaults)
                        self._set(fn, "__defaults__", new)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, fn, metric: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.values[metric.format(kind=tracer.kind)] += time.perf_counter() - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_function(self, original, metric: str, after=None) -> None:
        self._replace_everywhere(original, self._timed(original, metric, after))

    def _wrap_method(self, cls, name: str, metric: str | None, pool: bool, before=None) -> None:
        """Wrap an engine-source method; only outermost source calls are recorded.

        On a pool the parent is blocked for the whole call except the reduce
        it does itself; that remainder is its wait for the workers.
        """
        fn = cls.__dict__[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._source_depth == 0
            if outermost and before is not None:
                before(args, kwargs)
            tracer._source_depth += 1
            reduce0 = tracer.values["parallel.reduce_s"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._source_depth -= 1
                if outermost and metric is not None:
                    tracer.values[metric] += dt
                if outermost and pool:
                    reduced = tracer.values["parallel.reduce_s"] - reduce0
                    tracer.values["engine.worker_wait_s"] += max(0.0, dt - reduced)

        self._set(cls, name, wrapper)

    def _wrap_partition(self, cls, name: str, metric: str, rows=None) -> None:
        fn = cls.__dict__[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            if rows is not None:
                tracer.values["engine.hist_rows"] += rows(self_, *args)
            t0 = time.perf_counter()
            try:
                return fn(self_, *args, **kwargs)
            finally:
                tracer.values[metric] += time.perf_counter() - t0

        self._set(cls, name, wrapper)

    def _count_trees(self, args, kwargs, ensemble) -> None:
        kind = ensemble.kind
        for tree in ensemble.trees:
            leaves = tree.n_leaves
            self.values[f"grower.splits.{kind}"] += len(tree.nodes) - leaves
            self.values[f"grower.leaves.{kind}"] += leaves
            key = f"grower.depth_max.{kind}"
            self.values[key] = max(self.values[key], tree.depth())

    def _wrap_trainer(self, original, kind: str) -> None:
        timed = self._timed(original, f"training.train_s.{kind}", self._count_trees)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.kind = kind
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.kind = None

        self._replace_everywhere(original, wrapper)

    def _wrap_digest(self, original) -> None:
        def count_bytes(args, kwargs, result) -> None:
            path = args[0] if args else kwargs["path"]
            self.values["manifest.digest_bytes"] += os.path.getsize(path)

        self._wrap_function(original, "manifest.digest_s", count_bytes)

    def _wrap_worker_main(self, engine) -> None:
        original = engine._worker_main
        tracer = self

        @functools.wraps(original)
        def worker_main(*args, **kwargs):
            # a forked worker starts with a copy of the parent's totals
            tracer.values.clear()
            try:
                original(*args, **kwargs)
            finally:
                doc = {m: tracer.values.get(m, 0.0) for m in _WORKER_METRICS}
                doc["peak_rss_mb"] = peak_rss_mb()
                path = tracer.trace_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(doc))

        self._set(engine, "_worker_main", worker_main)

    def install(self) -> None:
        """Wrap every layer's public entry points; the jamcast CLI must be imported."""
        from jamcast import evaluation, ingest, manifest, parallel
        from jamcast.trees import binning, engine, grower, training

        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._wrap_function(parallel.reduce_histograms, "parallel.reduce_s")
        self._wrap_function(ingest.load_matrix, "ingest.load_matrix_s")
        self._wrap_digest(manifest.file_digest)
        self._wrap_function(binning.quantize, "binning.quantize_s")
        self._wrap_function(engine.open_engine, "engine.open_s")
        self._wrap_function(grower.find_best_split, "grower.split_scan_s")
        self._wrap_function(training.predict, "training.predict_s")
        self._wrap_function(evaluation.split_train_test, "evaluation.split_s")
        self._wrap_function(evaluation.auc, "evaluation.auc_s")
        for kind, trainer in (
            ("rf", training.train_rf),
            ("gbt", training.train_gbt),
            ("xgb", training.train_xgb),
        ):
            self._wrap_trainer(trainer, kind)

        def count_derived(args, kwargs, result) -> None:
            self.values[f"grower.hist_derived.{self.kind}"] += 1

        self._set(
            grower.GradHistogram,
            "subtract",
            self._timed(grower.GradHistogram.subtract, "_grower.subtract_s", count_derived),
        )

        def count_built(args, kwargs) -> None:
            build_id = kwargs["build_id"] if "build_id" in kwargs else args[7]
            if build_id is not None:
                self.values[f"grower.hist_built.{self.kind}"] += 1

        for cls in (engine.InlineSource, engine.PoolSource):
            pool = cls is engine.PoolSource
            self._wrap_method(cls, "node_hist", "engine.root_hist_s", pool)
            self._wrap_method(cls, "expand", "engine.expand_s", pool, before=count_built)
            self._wrap_method(cls, "begin_round", "engine.gradients_s", pool)
            self._wrap_method(cls, "begin_tree_weighted", "engine.gradients_s", pool)
            self._wrap_method(cls, "finalize_tree", "engine.margin_update_s", pool)
        for name in ("init_boost", "apply_split", "close"):
            # no layer metric of their own, but the parent waits in them
            self._wrap_method(engine.PoolSource, name, None, pool=True)

        state = engine.PartitionState
        self._wrap_partition(
            state, "node_hist", "engine.partition_hist_s", rows=lambda st, nid: len(st.nodes[nid])
        )
        self._wrap_partition(state, "apply_split", "engine.partition_split_s")
        self._wrap_worker_main(engine)

    def finish_command(self) -> None:
        """Add in the partition totals of the pool workers that one command started."""
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            for metric in _WORKER_METRICS:
                self.values[metric] += doc[metric]
            key = "engine.worker_peak_rss_mb"
            self.values[key] = max(self.values[key], doc["peak_rss_mb"])

    def report(self) -> dict[str, float]:
        return {k: v for k, v in self.values.items() if not k.startswith("_")}
