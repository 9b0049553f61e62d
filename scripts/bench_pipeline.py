#!/usr/bin/env python3
"""End-to-end pipeline benchmark: seconds per stage at a fixed size.

Generates a seeded jam corpus, ingests it as one stream (parse, clean and
encode, each timed by the seconds spent producing its blocks; encode spools
the columns into the work directory, as `jamcast ingest` spools them beside
its output), saves the matrix and drops it, then runs `evaluation.bench` on
what `load_matrix`
reads back, as `jamcast bench` does: a 75/25 split by row index, one
quantize of the training rows read a column at a time from the file, and
rf, gbt and xgb each trained on its result and predicting the test rows.
The quantize, train and predict seconds are the bench reports', so no
train time includes the quantize; a kind that fails ends the run with exit
code 1. Every run appends one point to --out (a JSON list, created if
missing, and rewritten whole through `write_artifact`, so a crash leaves
the points before it) with the git revision, os.cpu_count(), `usable_cpus`
(the CPUs this process may run on, which cap the process count of quantize
and of the training engine, this one included), the sizes, each stage's seconds,
the ingest rows per second, this process's peak RSS and a host yardstick,
`host_sort_s`: the median seconds of 3 sorts of a seeded 4M-value float64
array, taken after the peak RSS is read, so points taken while the host
ran slow can be told apart. No stage holds the float matrix: ingest holds
one block of lines and a label byte per row, and bench the quantized
training rows, so the peak RSS is the highest of the generate, ingest and
bench stages, as the peak of the three CLI commands would be. This
process bins the first share of quantize's features and holds the
training state of the first run of partitions, so its share of both is
in the peak RSS; the forked workers' memory is not.

    PYTHONPATH=src python scripts/bench_pipeline.py --rows 1000000 \\
        --feature-set honest --workers 1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from jamcast.datagen import GenConfig, generate_jams
from jamcast.evaluation import bench
from jamcast.ingest import (
    FEATURE_SETS,
    clean,
    encode,
    load_matrix,
    parse_jams,
    save_matrix,
    schema_for,
)
from jamcast.manifest import write_artifact
from jamcast.parallel import usable_cpus
from jamcast.trees.training import TRAINERS, TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def git_revision() -> str | None:
    """HEAD's sha, suffixed "-dirty" when tracked files differ from it; None outside git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def host_yardstick(repeats: int = 3) -> float:
    """Median seconds to sort one seeded array of 4M float64 values."""
    values = np.random.default_rng(0).random(4_000_000)
    seconds = []
    for _ in range(repeats):
        work = values.copy()
        t0 = time.perf_counter()
        work.sort()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


def timed_blocks(blocks, seconds: dict, key: str):
    """Pass `blocks` through, adding the seconds spent producing them to seconds[key]."""
    it = iter(blocks)
    while True:
        t0 = time.perf_counter()
        block = next(it, None)
        seconds[key] += time.perf_counter() - t0
        if block is None:
            return
        yield block


def ingest(path: Path, feature_set: str, spool_dir: Path) -> tuple[object, object, dict]:
    """Stream parse -> clean -> encode, spooling in `spool_dir`, with each stage's
    own seconds."""
    spent = {"parse": 0.0, "parse+clean": 0.0}
    t0 = time.perf_counter()
    with open(path, "rb") as fh:
        parsed, _ = parse_jams(fh)
        cleaned, _ = clean(timed_blocks(parsed, spent, "parse"))
        blocks = timed_blocks(cleaned, spent, "parse+clean")
        matrix, encoding = encode(blocks, schema_for(feature_set), spool_dir=spool_dir)
    total = time.perf_counter() - t0
    return matrix, encoding, {
        "parse": spent["parse"],
        "clean": spent["parse+clean"] - spent["parse"],
        "encode": total - spent["parse+clean"],
    }


def run(rows: int, feature_set: str, workers: int, seed: int, trees: int, work_dir: Path) -> dict:
    stages: dict[str, float] = {}
    corpus = work_dir / "jams.jsonl"
    t0 = time.perf_counter()
    with open(corpus, "wb") as fh:
        generate_jams(GenConfig(n_jams=rows, seed=seed), fh)
    stages["generate"] = time.perf_counter() - t0

    matrix, encoding, ingest_s = ingest(corpus, feature_set, work_dir)
    stages.update(ingest_s)
    corpus.unlink()
    save_matrix(work_dir / "matrix.tjm", matrix, encoding)
    # the encoded matrix and its spool are dropped: bench reads the saved one a
    # column at a time, as `jamcast bench` does
    matrix, _ = load_matrix(work_dir / "matrix.tjm")

    config = TrainConfig(n_trees=trees, max_depth=5, max_leaves=256, seed=seed, n_workers=workers)
    reports = bench(matrix, list(TRAINERS), config, train_fraction=0.75, seed=seed)
    failed = [f"{r.model_kind}: {r.error}" for r in reports if r.error]
    if failed:
        raise SystemExit("bench failed: " + "; ".join(failed))
    stages["quantize"] = reports[0].quantize_seconds
    stages["train"] = {r.model_kind: r.train_seconds for r in reports}
    stages["predict"] = {r.model_kind: r.predict_seconds for r in reports}
    return {
        "git": git_revision(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "rows": rows,
        "train_rows": reports[0].n_train,
        "feature_set": feature_set,
        "workers": workers,
        "seed": seed,
        "trees": trees,
        "stages_s": stages,
        "ingest_rows_per_s": rows / (stages["parse"] + stages["clean"] + stages["encode"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--feature-set", choices=FEATURE_SETS, default="honest")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trees", type=int, default=20)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as work_dir:
        point = run(args.rows, args.feature_set, args.workers, args.seed, args.trees,
                    Path(work_dir))
    point["host_sort_s"] = host_yardstick()
    points = json.loads(args.out.read_text()) if args.out.exists() else []
    points.append(point)
    with write_artifact(args.out) as fh:
        fh.write((json.dumps(points, indent=1) + "\n").encode())
    print(json.dumps(point, indent=1))
    print(f"point {len(points)} -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
