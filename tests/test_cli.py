import json
import re
import subprocess
import sys

import pytest

from helpers import jam_line
from jamcast.cli import main
from jamcast.ingest import load_matrix
from jamcast.trees.training import load_model


def _generate(tmp_path, n=2000, seed=42, extra=()):
    out = tmp_path / "data"
    rc = main(
        ["generate", "--jams", str(n), "--alerts", "50", "--seed", str(seed), "--out", str(out)]
        + list(extra)
    )
    assert rc == 0
    return out


def test_generate_writes_files_and_manifest(tmp_path):
    out = _generate(tmp_path)
    assert (out / "jams.jsonl").exists()
    assert (out / "alerts.jsonl").exists()
    manifest = json.loads((out / "generate.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 42
    assert str(out / "jams.jsonl") in manifest["artifacts"]
    assert manifest["run_id"]


def test_generate_rerun_byte_identical(tmp_path):
    out1 = _generate(tmp_path / "a")
    out2 = _generate(tmp_path / "b")
    assert (out1 / "jams.jsonl").read_bytes() == (out2 / "jams.jsonl").read_bytes()
    m1 = json.loads((out1 / "generate.manifest.json").read_text())
    m2 = json.loads((out2 / "generate.manifest.json").read_text())
    assert m1["run_id"] == m2["run_id"]


def test_generate_negative_count_exits_one(tmp_path, capsys):
    rc = main(["generate", "--jams", "-1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_generate_config_file_flags_win(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_jams": 5, "seed": 1}))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg), "--jams", "9", "--out", str(out)])
    assert rc == 0
    n_lines = len((out / "jams.jsonl").read_bytes().splitlines())
    assert n_lines == 9


def test_ingest_round_trip(tmp_path):
    out = _generate(tmp_path)
    matrix_path = tmp_path / "m.tjm"
    rc = main(
        ["ingest", "--input", str(out / "jams.jsonl"), "--feature-set", "leaky",
         "--out", str(matrix_path)]
    )
    assert rc == 0
    report = json.loads((matrix_path.parent / "m.tjm.report.json").read_text())
    assert report["parse"]["rows_rejected"] == 0
    assert report["n_rows"] == 2000
    matrix, enc = load_matrix(matrix_path)
    assert matrix.n_rows == 2000
    assert matrix.schema.feature_set == "leaky"


def test_ingest_no_files_exits_two(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope*.jsonl"), "--out", str(tmp_path / "m.tjm")])
    assert rc == 2
    assert "no input files" in capsys.readouterr().err


def test_ingest_tolerates_bad_lines(tmp_path):
    out = _generate(tmp_path, n=50)
    jams = out / "jams.jsonl"
    with open(jams, "ab") as fh:
        fh.write(b"not json\n")
        fh.write(b'{"level":9}\n')
    matrix_path = tmp_path / "m.tjm"
    rc = main(["ingest", "--input", str(jams), "--out", str(matrix_path)])
    assert rc == 0
    report = json.loads((matrix_path.parent / "m.tjm.report.json").read_text())
    assert report["parse"]["rows_rejected"] == 2
    assert report["n_rows"] == 50


def _ingest_with(tmp_path, line: bytes) -> tuple[int, dict]:
    """`jamcast ingest` on 50 generated jams plus one extra line; (exit code, report)."""
    jams = _generate(tmp_path, n=50) / "jams.jsonl"
    with open(jams, "ab") as fh:
        fh.write(line + b"\n")
    matrix_path = tmp_path / "m.tjm"
    rc = main(["ingest", "--input", str(jams), "--out", str(matrix_path)])
    return rc, json.loads((tmp_path / "m.tjm.report.json").read_text())


def test_ingest_deep_nesting_is_malformed_json(tmp_path):
    rc, report = _ingest_with(tmp_path, b"[" * 100_000)
    assert rc == 0
    assert report["parse"]["rejection_reasons"] == {"malformed_json": 1}
    assert report["n_rows"] == 50


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("speed", 10**400, "bad_field_type"),
        ("location_x", -(10**400), "bad_field_type"),
        ("pub_date", 2**63, "invalid_pub_date"),
        ("pub_date", 2**64 + 1, "invalid_pub_date"),
    ],
    ids=["speed_1e400", "location_x_minus_1e400", "pub_date_2p63", "pub_date_2p64"],
)
def test_ingest_integer_too_large_for_its_column(tmp_path, field, value, reason):
    rc, report = _ingest_with(tmp_path, jam_line(**{field: value}))
    assert rc == 0
    assert report["parse"]["rejection_reasons"] == {reason: 1}
    assert report["n_rows"] == 50


def _ingest(tmp_path, **kw):
    out = _generate(tmp_path, **kw)
    matrix_path = tmp_path / "m.tjm"
    assert main(["ingest", "--input", str(out / "jams.jsonl"), "--out", str(matrix_path)]) == 0
    return matrix_path


def test_train_echoes_depth_and_leaves(tmp_path):
    matrix_path = _ingest(tmp_path)
    model_path = tmp_path / "model.json"
    rc = main(
        ["train", "--matrix", str(matrix_path), "--model", "xgb", "--out", str(model_path),
         "--trees", "2", "--max-depth", "5", "--max-leaves", "256"]
    )
    assert rc == 0
    doc = json.loads(model_path.read_text())
    assert doc["config"]["max_depth"] == 5
    assert doc["config"]["max_leaves"] == 256
    assert doc["kind"] == "xgb"
    model = load_model(model_path)
    assert len(model.trees) == 2


def test_train_unknown_model_exits_one(tmp_path, capsys):
    matrix_path = _ingest(tmp_path)
    rc = main(["train", "--matrix", str(matrix_path), "--model", "svm", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_train_worker_invariant_model_files(tmp_path):
    matrix_path = _ingest(tmp_path)
    p1 = tmp_path / "w1.json"
    p8 = tmp_path / "w8.json"
    base = ["train", "--matrix", str(matrix_path), "--model", "xgb", "--trees", "2",
            "--max-depth", "3", "--seed", "7"]
    assert main(base + ["--out", str(p1), "--workers", "1"]) == 0
    assert main(base + ["--out", str(p8), "--workers", "8"]) == 0
    assert p1.read_bytes() == p8.read_bytes()


_FAIL_IN_WORKER = """
import multiprocessing, os, sys
from jamcast.cli import main
from jamcast.trees.engine import PartitionState

parent = os.getpid()

def fail_in_worker(self, second_order):
    if os.getpid() != parent:
        {failure}

PartitionState.begin_round = fail_in_worker
rc = main(sys.argv[1:])
print("live workers:", len(multiprocessing.active_children()))
sys.exit(rc)
"""


def _train_failing_in_worker(tmp_path, failure: str) -> subprocess.CompletedProcess:
    """`train --workers 2` in a subprocess whose pool workers run `failure` in begin_round."""
    matrix_path = _ingest(tmp_path)
    out = tmp_path / "failed.json"
    proc = subprocess.run(
        [sys.executable, "-c", _FAIL_IN_WORKER.format(failure=failure), "train",
         "--matrix", str(matrix_path), "--model", "xgb", "--trees", "2", "--workers", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "live workers: 0\n"
    assert not out.exists()
    return proc


def test_train_reports_a_dead_worker(tmp_path):
    proc = _train_failing_in_worker(tmp_path, "os._exit(7)")
    assert proc.returncode == 1
    assert re.fullmatch(r"error: pool worker 0 \(pid \d+\) died with exit code 7\n", proc.stderr)


def test_train_reports_a_worker_error(tmp_path):
    proc = _train_failing_in_worker(tmp_path, 'raise ValueError("margin went sideways")')
    assert proc.returncode == 1
    assert re.fullmatch(
        r"error: pool worker 0 \(pid \d+\) failed: ValueError: margin went sideways\n",
        proc.stderr,
    )


def test_train_on_a_truncated_matrix_exits_one(tmp_path, capsys):
    matrix_path = _ingest(tmp_path)
    data = matrix_path.read_bytes()
    matrix_path.write_bytes(data[: len(data) // 2])
    out = tmp_path / "m.json"
    rc = main(["train", "--matrix", str(matrix_path), "--model", "xgb", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: .*m\.tjm: truncated tjm file\n", err)
    assert not out.exists()


def test_workers_env_var(tmp_path, monkeypatch):
    matrix_path = _ingest(tmp_path)
    monkeypatch.setenv("JAMCAST_WORKERS", "2")
    model_path = tmp_path / "env.json"
    rc = main(["train", "--matrix", str(matrix_path), "--model", "gbt", "--trees", "1",
               "--out", str(model_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "env.json.manifest.json").read_text())
    assert manifest["n_workers"] == 2


def test_bench_writes_reports(tmp_path):
    matrix_path = _ingest(tmp_path)
    out_dir = tmp_path / "bench"
    rc = main(
        ["bench", "--matrix", str(matrix_path), "--models", "xgb,gbt", "--trees", "2",
         "--max-depth", "3", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    table = (out_dir / "bench_table.txt").read_text()
    assert "XGBoost" in table and "GBT" in table
    reports = json.loads((out_dir / "bench_reports.json").read_text())
    assert len(reports) == 2
    assert (out_dir / "bench_table.csv").exists()
    assert (out_dir / "bench.manifest.json").exists()


def test_bench_single_model_one_column(tmp_path):
    matrix_path = _ingest(tmp_path)
    out_dir = tmp_path / "bench1"
    rc = main(["bench", "--matrix", str(matrix_path), "--models", "xgb", "--trees", "1",
               "--out-dir", str(out_dir)])
    assert rc == 0
    reports = json.loads((out_dir / "bench_reports.json").read_text())
    assert len(reports) == 1


def test_bench_unknown_model_exits_one(tmp_path):
    matrix_path = _ingest(tmp_path)
    rc = main(["bench", "--matrix", str(matrix_path), "--models", "xgb,nope",
               "--out-dir", str(tmp_path / "b")])
    assert rc == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "jamcast", "generate", "--jams", "10", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "jams.jsonl").exists()
    proc = subprocess.run(
        [sys.executable, "-m", "jamcast", "generate", "--jams", "-3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
