"""Smoke tests: each script in scripts/ runs end to end at a small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> None:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_leakage_experiment_writes_its_tables_and_contrast(tmp_path):
    _run_script("run_leakage_experiment.py", "--rows", "3000", "--trees", "2",
                "--out-dir", str(tmp_path))
    contrast = json.loads((tmp_path / "contrast.json").read_text())
    assert set(contrast) == {"auc", "rows", "seed", "noise"}
    assert set(contrast["auc"]) == {"leaky", "honest"}
    for feature_set in ("leaky", "honest"):
        assert set(contrast["auc"][feature_set]) == {"rf", "gbt", "xgb"}
        reports = json.loads((tmp_path / f"reports_{feature_set}.json").read_text())
        assert [r["model_kind"] for r in reports] == ["rf", "gbt", "xgb"]
        assert {r["model_kind"]: r["auc"] for r in reports} == contrast["auc"][feature_set]
        assert (tmp_path / f"table_{feature_set}.txt").read_text()
    assert min(contrast["auc"]["leaky"].values()) > max(contrast["auc"]["honest"].values())


def test_bench_pipeline_appends_one_point_per_run(tmp_path):
    out = tmp_path / "BENCH_pipeline.json"
    for workers in (1, 2):
        _run_script("bench_pipeline.py", "--rows", "3000", "--trees", "2",
                    "--workers", str(workers), "--out", str(out))
    points = json.loads(out.read_text())
    assert [p["workers"] for p in points] == [1, 2]
    point = points[-1]
    assert set(point) - {"host_sort_s"} == {
        "git", "cpu_count", "rows", "train_rows", "feature_set", "workers",
        "seed", "trees", "stages_s", "ingest_rows_per_s", "peak_rss_mb"}
    assert point["host_sort_s"] > 0
    assert (point["rows"], point["feature_set"]) == (3000, "honest")
    stages = point["stages_s"]
    assert set(stages) == {"generate", "parse", "clean", "encode", "quantize", "train", "predict"}
    assert set(stages["train"]) == set(stages["predict"]) == {"rf", "gbt", "xgb"}
    assert all(s >= 0 for s in (stages["parse"], stages["clean"], stages["encode"]))
    assert point["peak_rss_mb"] > 0
