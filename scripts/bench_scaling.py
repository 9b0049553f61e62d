#!/usr/bin/env python3
"""Data-parallel scaling report: training wall time across worker counts.

Trains the same model on the same matrix at each worker count and reports
wall times and speedups relative to one worker. Models are bit-identical
across worker counts by construction; this script measures time only.

Writes --out as a JSON object with the keys rows, trees, seed, wall_seconds
and speedup_vs_first; the last two map each worker count to a number.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from jamcast.datagen import GenConfig, generate_jams
from jamcast.evaluation import format_duration
from jamcast.ingest import ingest_files, schema_for
from jamcast.trees.training import TrainConfig, train_xgb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trees", type=int, default=20)
    ap.add_argument("--workers", type=str, default="1,2,4,8")
    ap.add_argument("--out", type=Path, default=Path("results/scaling.json"))
    args = ap.parse_args()

    args.out.parent.mkdir(parents=True, exist_ok=True)
    corpus = args.out.parent / "jams_scaling.jsonl"
    if not corpus.exists():
        print(f"generating {args.rows} rows ...")
        with open(corpus, "wb") as fh:
            generate_jams(GenConfig(n_jams=args.rows, seed=args.seed), fh)
    matrix, _, _ = ingest_files([corpus], schema_for("leaky"))

    worker_counts = [int(w) for w in args.workers.split(",")]
    times: dict[int, float] = {}
    for w in worker_counts:
        config = TrainConfig(
            n_trees=args.trees, max_depth=5, max_leaves=256, seed=args.seed, n_workers=w
        )
        t0 = time.perf_counter()
        train_xgb(matrix, config=config)
        times[w] = time.perf_counter() - t0
        print(f"workers={w}: {format_duration(times[w])}")

    base = times[worker_counts[0]]
    report = {
        "rows": matrix.n_rows,
        "trees": args.trees,
        "seed": args.seed,
        "wall_seconds": times,
        "speedup_vs_first": {w: base / t for w, t in times.items()},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("\nspeedup vs workers=%d:" % worker_counts[0])
    for w in worker_counts:
        print(f"  workers={w}: {base / times[w]:.2f}x")
    print(f"report -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
