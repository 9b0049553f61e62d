#!/usr/bin/env python3
"""Reproduce the leakage comparison: leaky vs honest feature sets, three models.

Generates a seeded synthetic jam corpus, ingests it twice (leaky = honest +
{speed, length, delay}), benches RF / GBT / XGBoost on both matrices with
the same split, and prints the two comparison tables plus an AUC contrast.
The leaky run shows the near-perfect scores that level-coupled telemetry
produces; the honest run shows what the remaining signal supports.

Writes into --out-dir: jams.jsonl, table_{leaky,honest}.txt,
reports_{leaky,honest}.json (one bench report per model) and contrast.json,
a JSON object with the keys auc (feature set -> model -> AUC), rows, seed
and noise. Each file is written whole through `write_artifact`.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from jamcast.datagen import GenConfig, generate_jams
from jamcast.evaluation import bench, render_table, write_reports
from jamcast.ingest import FEATURE_SETS, ingest_files, schema_for
from jamcast.manifest import write_artifact, write_json
from jamcast.trees.training import TRAINERS, TrainConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--noise", type=float, default=0.0, help="level coupling noise")
    ap.add_argument("--trees", type=int, default=20)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--models", type=str, default=",".join(TRAINERS))
    ap.add_argument("--out-dir", type=Path, default=Path("results/leakage"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    corpus = args.out_dir / "jams.jsonl"
    print(f"generating {args.rows} jam rows (seed {args.seed}, noise {args.noise}) ...")
    t0 = time.perf_counter()
    with write_artifact(corpus) as fh:
        generate_jams(
            GenConfig(n_jams=args.rows, seed=args.seed, coupling_noise=args.noise), fh
        )
    print(f"  {time.perf_counter() - t0:.1f}s -> {corpus}")

    config = TrainConfig(
        n_trees=args.trees, max_depth=5, max_leaves=256, seed=args.seed,
        n_workers=args.workers,
    )
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    contrast = {}
    for feature_set in FEATURE_SETS:
        print(f"\ningesting with the {feature_set} feature set ...")
        matrix, _, summary = ingest_files([corpus], schema_for(feature_set))
        print(f"  {matrix.n_rows} rows, {matrix.n_features} features, "
              f"{summary.parse.rows_rejected} rejected")
        reports = bench(matrix, kinds, config, seed=args.seed)
        table = render_table(reports)
        print(f"\n=== {feature_set} features ===")
        print(table)
        with write_artifact(args.out_dir / f"table_{feature_set}.txt") as fh:
            fh.write(table.encode())
        write_reports(args.out_dir / f"reports_{feature_set}.json", reports)
        contrast[feature_set] = {r.model_kind: r.auc for r in reports}

    summary_doc = {"auc": contrast, "rows": args.rows, "seed": args.seed, "noise": args.noise}
    write_json(args.out_dir / "contrast.json", summary_doc)
    print("AUC contrast (leaky vs honest):")
    for kind in kinds:
        print(f"  {kind}: {contrast['leaky'][kind]:.4f} vs {contrast['honest'][kind]:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
