"""Tests of the benchmark itself: injector, tracer and the run contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_bench, check_reports
from inject import REASONS, apply_plan, make_plan
from jamcast.cli import main as cli_main
from jamcast.datagen import GenConfig, generate_jams
from jamcast.ingest import ingest_files, schema_for
from run import BENCH_FLAGS, WORKLOADS, Run
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SMALL_ROWS = 4000


def _corpus(tmp_path: Path, seed: int, rows: int = SMALL_ROWS):
    buf = io.BytesIO()
    generate_jams(GenConfig(n_jams=rows, seed=seed), buf)
    plan = make_plan(rows, seed)
    path = tmp_path / "jams.jsonl"
    path.write_bytes(apply_plan(buf.getvalue(), plan, seed))
    return path, plan


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_plan_matches_ingest_report(tmp_path, seed):
    path, plan = _corpus(tmp_path, seed)
    _, _, summary = ingest_files([path], schema_for("leaky"))
    assert check_reports(summary.parse.as_dict(), summary.clean.as_dict(), plan) == []
    rejected = dict(summary.parse.rejection_reasons)
    rejected.update(summary.clean.rejection_reasons)
    assert rejected == plan.counts()
    assert all(plan.counts()[r] >= 1 for r in REASONS)
    assert summary.n_rows == plan.rows_accepted
    nonempty = sum(1 for line in path.read_bytes().splitlines() if line.strip())
    assert nonempty == plan.nonempty_lines
    assert plan.counts()["malformed_json"] < plan.counts()["missing_field"]


def test_plan_is_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, plan_a = _corpus(tmp_path / "a", 3)
    b, plan_b = _corpus(tmp_path / "b", 3)
    assert a.read_bytes() == b.read_bytes()
    assert plan_a == plan_b
    assert make_plan(SMALL_ROWS, 4) != plan_a


def _snapshot() -> dict:
    """Identity of every binding the tracer could touch, across jamcast's modules."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if not (name == "jamcast" or name.startswith("jamcast.")):
            continue
        for key, value in vars(module).items():
            state[(name, key)] = id(value)
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    state[(name, key, repr(k))] = id(v)
            members = vars(value).items() if isinstance(value, type) else [("", value)]
            for member, fn in members:
                state[(name, key, member)] = id(fn)
                defaults = getattr(fn, "__defaults__", None)
                if defaults:
                    state[(name, key, member, "__defaults__")] = tuple(id(d) for d in defaults)
    return state


def _run_commands(tmp: Path, corpus: Path, feature_set: str, workers: int):
    """`jamcast ingest` then `jamcast bench`; the ingest report and the AUCs."""
    matrix = tmp / "m.tjm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["ingest", "--input", str(corpus), "--feature-set", feature_set,
                         "--out", str(matrix)]) == 0
        assert cli_main(["bench", "--matrix", str(matrix), *BENCH_FLAGS,
                         "--workers", str(workers), "--out-dir", str(tmp / "bench")]) == 0
    report = json.loads(Path(str(matrix) + ".report.json").read_text())
    aucs, _ = check_bench(tmp / "bench", feature_set)
    return report, aucs


def test_tracer_restores_everything_it_wrapped(tmp_path):
    corpus, _ = _corpus(tmp_path, 5)
    before = _snapshot()
    tracer = Tracer(tmp_path / "trace")
    tracer.install()
    try:
        patched_modules = {getattr(o, "__name__", "") for o, _ in tracer.patched()}
        _run_commands(tmp_path, corpus, "leaky", 2)
        tracer.finish_command()
    finally:
        tracer.restore()
    assert _snapshot() == before
    assert tracer.patched() == []
    for layer in ("jamcast.ingest", "jamcast.manifest", "jamcast.trees.binning",
                  "jamcast.trees.engine", "jamcast.trees.grower", "jamcast.trees.training",
                  "jamcast.evaluation", "jamcast.cli"):
        assert layer in patched_modules
    values = tracer.report()
    assert values["engine.worker_peak_rss_mb"] > 0
    assert values["engine.hist_rows"] > 0
    assert values["grower.splits.xgb"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(tmp_path, name):
    workload = WORKLOADS[name]
    corpus, _ = _corpus(tmp_path, 11)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _run_commands(tmp_path / "plain", corpus, workload.feature_set, workload.workers)
    tracer = Tracer(tmp_path / "trace")
    tracer.install()
    try:
        traced = _run_commands(tmp_path / "traced", corpus, workload.feature_set,
                               workload.workers)
        tracer.finish_command()
    finally:
        tracer.restore()
    assert traced == plain
    assert sorted(traced[1]) == ["gbt", "rf", "xgb"]
    layers = tracer.report()
    assert layers["training.train_s.xgb"] > 0
    # only a pool makes the parent wait for workers
    assert ("engine.worker_wait_s" in layers) == (workload.workers > 1)


def test_only_inline_metrics_default_to_zero(tmp_path):
    run = Run("bench-honest-w1", 1, 1, True, tmp_path)
    out = run.metrics(["engine.worker_wait_s", "engine.worker_peak_rss_mb", "engine.hist_rows"])
    assert out == {"engine.worker_wait_s": 0.0, "engine.worker_peak_rss_mb": 0.0,
                   "engine.hist_rows": None}
    pool = Run("bench-leaky-w2", 1, 1, True, tmp_path)
    assert pool.metrics(["engine.worker_wait_s"]) == {"engine.worker_wait_s": None}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-leaky", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
