#!/usr/bin/env python3
"""The jamcast benchmark: one workload per run, measured through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload bench-honest-w1 --seed 1 --seconds 20 --trace 0

A run sets the workload up from its seed: it generates a jam corpus with
`datagen.generate_jams` and writes the seeded defects of `inject.py` into
it. Then, for `--seconds`, it repeats the pipeline a user runs, `jamcast
ingest` followed by `jamcast bench` on the matrix it wrote, each command in
a fresh process that calls `jamcast.cli.main`, and checks every output
(`checks.py`). Untraced repetitions set the workload up again first, so the
set-up samples are spread over the run like the others, not taken in one
burst that a slow few seconds on a shared host would skew.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: times are
medians over the repetitions, and ingest_rows_per_s is the run's throughput,
all lines ingested over all time spent ingesting. `--trace 1` reports its
per-layer metrics instead: each repetition runs a traced `jamcast ingest`,
the ingest stages one at a time, a traced `jamcast bench` (`tracer.py`) and
an untraced bench whose time gives the tracing overhead. The last line of
standard output is the result as JSON; the lines before it record the host,
the operations and each metric's samples.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    MODEL_KINDS,
    check_bench,
    check_ingest,
    check_matrix,
    check_reports,
)
from inject import REASONS, apply_plan, make_plan  # noqa: E402


@dataclass(frozen=True)
class Workload:
    feature_set: str
    workers: int
    rows: int  # generated jam lines, before defects and blank lines go in


# Why each workload exists, and what it should and should not load, is in
# BENCHMARK.json. Sizes keep each command within a few seconds on a 2-core host;
# the honest corpus is the largest, so row work is a large share of its trees.
WORKLOADS = {
    "ingest-leaky": Workload("leaky", 1, 60_000),
    "bench-honest-w1": Workload("honest", 1, 160_000),
    "bench-leaky-w2": Workload("leaky", 2, 60_000),
}

# per-layer metrics that are 0 by definition on a 1-worker workload
INLINE_EMPTY = ("engine.worker_wait_s", "engine.worker_peak_rss_mb")

MIN_REPEATS = 3
RUN_LIMIT_S = 150.0  # stop repeating past this, so a run ends well inside 180 s
CHILD_TIMEOUT_S = 120.0
# the README quickstart's bench flags, with a fixed bench seed
BENCH_FLAGS = ["--models", "rf,gbt,xgb", "--trees", "20", "--max-depth", "5",
               "--max-leaves", "256", "--seed", "42"]


def _median(values):
    return statistics.median(values) if values else None


def _git_sha() -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One workload run: set-up, timed repetitions, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.started = time.perf_counter()
        self.plan = make_plan(self.workload.rows, seed)
        self.corpus = work / "jams.jsonl"
        self.matrix = work / f"{self.workload.feature_set}.tjm"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.aucs: dict[str, float] | None = None
        self.corpus_digest: str | None = None
        self.samples: dict[str, list[float]] = {}

    # -- bookkeeping -------------------------------------------------------
    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def operation(self, what: str, problems: list[str]) -> bool:
        """Count one operation; a non-empty problem list makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def child(self, ops: list[dict], trace_dir: Path | None = None) -> dict:
        """Run ops in a fresh interpreter; a dict with an "error" if it broke."""
        spec = self.work / "spec.json"
        spec.write_text(json.dumps({
            "src": str(SRC),
            "trace_dir": str(trace_dir) if trace_dir else None,
            "ops": ops,
        }))
        cmd = [sys.executable, str(HERE / "child.py"), str(spec)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            out = None
        if out is None:
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        for result in out["results"]:
            if result["rc"] != 0:
                return {"error": f"exit code {result['rc']}: {proc.stderr.strip()[-500:]}"}
        return out

    def over_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_LIMIT_S

    # -- commands ----------------------------------------------------------
    def ingest_argv(self) -> list[str]:
        return ["ingest", "--input", str(self.corpus),
                "--feature-set", self.workload.feature_set, "--out", str(self.matrix)]

    def bench_argv(self, out_dir: Path) -> list[str]:
        return ["bench", "--matrix", str(self.matrix), *BENCH_FLAGS,
                "--workers", str(self.workload.workers), "--out-dir", str(out_dir)]

    def ingest(self) -> dict | None:
        """One timed `jamcast ingest` in its own process, checked."""
        out = self.child([{"op": "cli", "argv": self.ingest_argv()}])
        if "error" in out:
            self.operation("ingest", [out["error"]])
            return None
        result = out["results"][0]
        problems = check_ingest(self.matrix, self.plan, self.workload.feature_set)
        if self.operation("ingest", problems):
            self.sample("ingest_rows_per_s", self.plan.nonempty_lines / result["wall_s"])
            return result
        return None

    def check_aucs(self, aucs: dict[str, float]) -> list[str]:
        """AUCs repeat exactly for one corpus: any change between runs is a failure."""
        if self.aucs is None:
            self.aucs = aucs
            return []
        return [] if aucs == self.aucs else [f"AUCs {aucs} differ from earlier {self.aucs}"]

    def bench(self) -> dict | None:
        """One timed `jamcast bench` in its own process, checked."""
        out_dir = self.work / "bench"
        out = self.child([{"op": "cli", "argv": self.bench_argv(out_dir)}])
        if "error" in out:
            self.operation("bench", [out["error"]])
            return None
        result = out["results"][0]
        aucs, problems = check_bench(out_dir, self.workload.feature_set)
        if self.operation("bench", problems or self.check_aucs(aucs)):
            self.sample("bench_s", result["wall_s"])
            return result
        return None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Build the inputs from the seed; every build must give the first one's corpus."""
        from jamcast.datagen import GenConfig, generate_jams

        t0 = time.perf_counter()
        buf = io.BytesIO()
        generate_jams(GenConfig(n_jams=self.workload.rows, seed=self.seed), buf)
        t1 = time.perf_counter()
        corpus = apply_plan(buf.getvalue(), self.plan, self.seed)
        self.corpus.write_bytes(corpus)
        self.sample("setup_s", time.perf_counter() - t0)
        self.sample("datagen.generate_s", t1 - t0)
        digest = hashlib.sha256(corpus).hexdigest()
        self.corpus_digest = self.corpus_digest or digest
        self.operation("set-up", [] if digest == self.corpus_digest else ["corpus differs"])

    # -- timed repetitions ---------------------------------------------------
    def repeat(self, body) -> int:
        deadline = time.perf_counter() + self.seconds
        reps = 0
        while (reps < MIN_REPEATS or time.perf_counter() < deadline) and not self.over_time():
            body()
            reps += 1
        return reps

    def timed_repetition(self) -> None:
        self.setup()
        results = [self.ingest(), self.bench()]
        if all(results):
            self.sample("peak_rss_mb", max(r["peak_rss_mb"] for r in results))

    def traced_repetition(self) -> None:
        """A traced ingest then the stages, a traced bench, and an untraced bench.

        Each bench starts in a fresh process, so the difference between the
        two bench times is the tracing overhead and not a warm-up effect.
        """
        trace_dir = self.work / "trace"
        out_dir = self.work / "bench-traced"
        stage_out = self.work / "stages.tjm"
        fs = self.workload.feature_set
        ingest_out = self.child([
            {"op": "cli", "argv": self.ingest_argv()},
            {"op": "stages", "input": str(self.corpus), "feature_set": fs, "out": str(stage_out)},
        ], trace_dir=trace_dir)
        if "error" in ingest_out:
            self.operation("traced ingest", [ingest_out["error"]])
            return
        ingest, stages = ingest_out["results"]
        self.operation("traced ingest", check_ingest(self.matrix, self.plan, fs))
        problems = check_reports(stages["parse"], stages["clean"], self.plan)
        self.operation("staged ingest", problems + check_matrix(stage_out, self.plan, fs))
        bench_out = self.child([{"op": "cli", "argv": self.bench_argv(out_dir)}], trace_dir)
        if "error" in bench_out:
            self.operation("traced bench", [bench_out["error"]])
            return
        aucs, problems = check_bench(out_dir, fs)
        # traced and untraced runs must agree exactly on the models
        if self.operation("traced bench", problems or self.check_aucs(aucs)):
            layers = dict(stages["times"])
            for source in (ingest_out["layers"], bench_out["layers"]):
                for metric, value in source.items():
                    layers[metric] = layers.get(metric, 0.0) + value
            layers["ingest.rows_accepted"] = stages["clean"]["rows_accepted"]
            for reason in REASONS:
                layers[f"ingest.rows_rejected.{reason}"] = (
                    stages["parse"]["rejection_reasons"].get(reason, 0)
                    + stages["clean"]["rejection_reasons"].get(reason, 0)
                )
            for metric, value in layers.items():
                self.sample(metric, value)
            self.sample("_traced_bench_s", bench_out["results"][0]["wall_s"])
            self.sample("_traced_ingest_s", ingest["wall_s"])
        self.bench()

    # -- metrics -------------------------------------------------------------
    def metrics(self, names: list[str]) -> dict[str, float | None]:
        out = {name: _median(self.samples.get(name, [])) for name in names}
        rates = self.samples.get("ingest_rows_per_s")
        if rates and "ingest_rows_per_s" in out:
            # a throughput: all lines ingested over all ingest time in the run
            out["ingest_rows_per_s"] = statistics.harmonic_mean(rates)
        if "auc.rf" in out:
            for kind in MODEL_KINDS:
                out[f"auc.{kind}"] = self.aucs.get(kind) if self.aucs else None
        if "trace.overhead_s" in out:
            traced = _median(self.samples.get("_traced_bench_s", []))
            untraced = _median(self.samples.get("bench_s", []))
            if traced is not None and untraced is not None:
                out["trace.overhead_s"] = traced - untraced
        if self.workload.workers == 1:
            # the inline engine has no workers to wait for or to measure;
            # any other metric left unset means a wrapper stopped firing
            for name in INLINE_EMPTY:
                if name in out and out[name] is None:
                    out[name] = 0.0
        return out

    def print_shares(self, metrics: dict[str, float], units: dict[str, str]) -> None:
        """Each layer's share of the traced ingest and bench wall times.

        On a pool, worker-side partition times are summed over workers and
        can exceed their share of the wall time.
        """
        bench = _median(self.samples.get("_traced_bench_s", []))
        ingest = _median(self.samples.get("_traced_ingest_s", []))
        if not bench or not ingest:
            return
        print(f"layer shares of the traced ingest ({ingest:.4f} s) and bench ({bench:.4f} s):")
        for name, value in metrics.items():
            if name.startswith("ingest.") and name != "ingest.load_matrix_s":
                base, label = ingest, "ingest"
            elif name == "manifest.digest_s":
                base, label = ingest + bench, "ingest + bench_s"
            else:
                base, label = bench, "bench_s"
            if units[name] == "s" and not name.startswith(("trace.", "datagen.")):
                print(f"  {name:32s} {value:10.4f} s {100.0 * value / base:6.1f}% of {label}")


def host_record(run: Run) -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
        "rows": run.workload.rows,
        "nonempty_lines": run.plan.nonempty_lines,
        "rows_accepted": run.plan.rows_accepted,
        "workers": run.workload.workers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "jamcast" / "cli.py").is_file():
        print(f"no jamcast sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        print("host: " + json.dumps(host_record(run), sort_keys=True))
        run.setup()
        reps = run.repeat(run.traced_repetition if args.trace else run.timed_repetition)
        metrics = run.metrics(list(units))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in run.problems:
        print(f"FAILED {problem}")
    for name in units:
        values = run.samples.get(name, [])
        if len(values) > 1:
            print(f"{name}: n={len(values)} median={statistics.median(values):.6g} "
                  f"mean={statistics.fmean(values):.6g} "
                  f"min={min(values):.6g} max={max(values):.6g}")
    print(f"workload {args.workload}: {reps} repetitions, "
          f"operations attempted {run.attempted}, failed {run.failed}")
    if args.trace:
        run.print_shares(metrics, units)
    result = {
        "correct": run.failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
