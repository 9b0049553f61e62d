import hashlib
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from helpers import jam_line, overwrite_value, strict_json
from jamcast import cli, evaluation
from jamcast.cli import main
from jamcast.datagen import MAX_COUPLING_NOISE
from jamcast.ingest import EncodingMap, FeatureMatrix, FeatureSchema, load_matrix, save_matrix
from jamcast.trees import binning
from jamcast.trees.binning import quantize
from jamcast.trees.training import TRAINERS, TrainConfig, load_model


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


def test_generate_window_ends_at_most_at_two_to_the_63(tmp_path, capsys):
    """pub_dates lie in [start, end), so an end of 2**63 keeps every one inside int64."""
    out = tmp_path / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["generate", "--jams", "3", "--alerts", "3", "--start", "1",
                   "--end", str(2**63), "--out", str(out)])
    assert rc == 0
    for name in ("jams.jsonl", "alerts.jsonl"):
        for line in (out / name).read_bytes().splitlines():
            assert 1 <= json.loads(line)["pub_date"] < 2**63
    bad = tmp_path / "bad"
    rc = main(["generate", "--jams", "3", "--start", "1", "--end", str(2**63 + 1),
               "--out", str(bad)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: date_window must be two integers with 0 < start < end <= 2**63\n"
    )
    assert not (bad / "jams.jsonl").exists()


def test_generate_config_file_flags_win(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_jams": 5, "seed": 1}))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg), "--jams", "9", "--out", str(out)])
    assert rc == 0
    n_lines = len((out / "jams.jsonl").read_bytes().splitlines())
    assert n_lines == 9


@pytest.mark.parametrize(
    "config_text, flags",
    [
        ("{not json", []),
        ('{"bogus": 1}', []),
        ('{"n_jams": "10"}', []),
        ('{"n_jams": 2.5}', []),
        ("[1, 2]", []),
        ('{"date_window": 5}', []),
        ('{"date_window": [1, 2, 3]}', ["--end", "9"]),
        ('{"level_weights": [1, 1, 1, 1, NaN]}', []),
        ('{"coupling_noise": NaN}', []),
        ("{}", ["--level-weights", "a,b,c,d,e"]),
        ("{}", ["--level-weights", "1,1,1"]),
        ("{}", ["--level-weights", "1,1,1,1,nan"]),
        ("{}", ["--level-weights", "1,1,1,1,inf"]),
        ("{}", ["--coupling-noise", "nan"]),
        ("{}", ["--coupling-noise", "inf"]),
        ("{}", ["--coupling-noise", str(float(np.nextafter(MAX_COUPLING_NOISE, np.inf)))]),
        ('{"coupling_noise": 1e308}', []),
    ],
    ids=[
        "malformed-json", "unknown-key", "string-count", "fractional-count", "not-an-object",
        "scalar-window", "three-item-window", "nan-weight-in-config", "nan-noise-in-config",
        "non-numeric-weights", "three-weights", "nan-weight", "inf-weight", "nan-noise",
        "inf-noise", "noise-above-bound", "huge-noise-in-config",
    ],
)
def test_generate_bad_config_exits_one(tmp_path, capsys, config_text, flags):
    cfg = tmp_path / "gen.json"
    cfg.write_text(config_text)
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "jams.jsonl").exists()


def test_generate_at_the_largest_coupling_noise_ingests_every_line(tmp_path):
    """Every value drawn at the largest noise accepted is finite: numpy meets no overflow
    or invalid value, and ingest rejects no line."""
    out, matrix_path = tmp_path / "data", tmp_path / "m.tjm"
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rc = main(["generate", "--jams", "5000", "--alerts", "0", "--seed", "1",
                   "--coupling-noise", repr(MAX_COUPLING_NOISE), "--out", str(out)])
        assert rc == 0
        rc = main(["ingest", "--input", str(out / "jams.jsonl"), "--out", str(matrix_path)])
        assert rc == 0
    report = json.loads((tmp_path / "m.tjm.report.json").read_text())
    assert report["parse"]["rows_rejected"] == report["clean"]["rows_rejected"] == 0
    assert report["n_rows"] == 5000


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


def _epoch_ms(day: str) -> int:
    return int(datetime.fromisoformat(day).replace(tzinfo=timezone.utc).timestamp() * 1000)


def test_ingest_window_counts_rows_outside_it(tmp_path):
    corpus = _generate(tmp_path, n=1000) / "jams.jsonl"
    lines = corpus.read_bytes().splitlines()
    start, end = _epoch_ms("2018-01-02"), _epoch_ms("2018-01-05")
    outside = sum(not start <= json.loads(line)["pub_date"] < end for line in lines)
    assert 0 < outside < len(lines)
    matrix_path = tmp_path / "w.tjm"
    rc = main(["ingest", "--input", str(corpus), "--window-start", "2018-01-02",
               "--window-end", str(end), "--out", str(matrix_path)])
    assert rc == 0
    report = json.loads((tmp_path / "w.tjm.report.json").read_text())
    assert report["clean"]["rejection_reasons"] == {"out_of_window": outside}
    assert report["n_rows"] == len(lines) - outside
    manifest = json.loads((tmp_path / "w.tjm.manifest.json").read_text())
    assert manifest["config"]["window"] == [start, end]


@pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
def test_ingest_one_window_flag_exits_one(tmp_path, capsys, flag):
    corpus = _generate(tmp_path, n=50) / "jams.jsonl"
    out = tmp_path / "w.tjm"
    rc = main(["ingest", "--input", str(corpus), flag, "2018-01-02", "--out", str(out)])
    assert rc == 1
    assert "must be given together" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "start, end", [("2018-01-05", "2018-01-02"), ("2018-01-02", "2018-01-02")]
)
def test_ingest_window_not_before_its_end_exits_one(tmp_path, capsys, start, end):
    corpus = _generate(tmp_path, n=300) / "jams.jsonl"
    out = tmp_path / "w.tjm"
    rc = main(["ingest", "--input", str(corpus), "--window-start", start, "--window-end", end,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --window-start must be before --window-end\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "field, literal, reasons",
    [
        ("speed", b"1e400", {"non_finite": 1}),
        ("location_x", b"-1e400", {"non_finite": 1}),
        ("delay", b"Infinity", {"non_finite": 1}),
        ("length", b"-Infinity", {"non_finite": 1}),
        ("speed", b"NaN", {}),  # missing, as null is
    ],
    ids=["speed_1e400", "location_x_minus_1e400", "delay_inf", "length_minus_inf", "speed_nan"],
)
def test_ingest_float_out_of_range_is_non_finite(tmp_path, field, literal, reasons):
    rc, report = _ingest_with(tmp_path, jam_line(**{field: 7.25}).replace(b"7.25", literal))
    assert rc == 0
    assert report["parse"]["rejection_reasons"] == reasons
    assert report["n_rows"] == 51 - sum(reasons.values())


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


def _manifest_run_id(path) -> str:
    return json.loads(path.read_text())["run_id"]


def _tjm_run_id(path) -> str:
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    return json.loads(data[8 : 8 + hlen])["run_id"]


def test_artifact_run_ids_match_their_manifests(tmp_path):
    matrix_path = _ingest(tmp_path)
    assert _tjm_run_id(matrix_path) == _manifest_run_id(tmp_path / "m.tjm.manifest.json")
    model_path = tmp_path / "model.json"
    assert main(["train", "--matrix", str(matrix_path), "--model", "rf", "--trees", "1",
                 "--out", str(model_path)]) == 0
    model_id = json.loads(model_path.read_text())["run_id"]
    assert model_id == _manifest_run_id(tmp_path / "model.json.manifest.json")
    out_dir = tmp_path / "bench"
    assert main(["bench", "--matrix", str(matrix_path), "--models", "gbt", "--trees", "1",
                 "--out-dir", str(out_dir)]) == 0
    reports = json.loads((out_dir / "bench_reports.json").read_text())
    assert {r["run_id"] for r in reports} == {_manifest_run_id(out_dir / "bench.manifest.json")}


def test_train_run_id_follows_the_matrix_contents(tmp_path):
    matrix_path = tmp_path / "m.tjm"
    ids = []
    for seed in (1, 1, 2):
        corpus = _generate(tmp_path / f"seed{seed}", n=300, seed=seed)
        assert main(["ingest", "--input", str(corpus / "jams.jsonl"), "--out", str(matrix_path)]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--matrix", str(matrix_path), "--model", "xgb", "--trees", "1",
                     "--out", str(model_path)]) == 0
        ids.append(json.loads(model_path.read_text())["run_id"])
    assert ids[0] == ids[1] != ids[2]


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    return _ingest(tmp_path_factory.mktemp("small"), n=300)


# (flags, the TrainConfig field they set, its value): one case per hyperparameter flag
_TRAIN_FLAGS = [
    (["--trees", "2"], "n_trees", 2),
    (["--max-depth", "3"], "max_depth", 3),
    (["--max-leaves", "5"], "max_leaves", 5),
    (["--learning-rate", "0.5"], "learning_rate", 0.5),
    (["--lambda", "2.5"], "lam", 2.5),
    (["--gamma", "0.25"], "gamma", 0.25),
    (["--min-child-weight", "3"], "min_child_weight", 3.0),
    (["--max-bins", "16"], "max_bins", 16),
    (["--subsample-rows", "0.5"], "subsample_rows", 0.5),
    (["--subsample-features", "0.5"], "subsample_features", 0.5),
    (["--no-bootstrap"], "bootstrap", False),
]


@pytest.mark.parametrize("flags, field, value", _TRAIN_FLAGS, ids=[f[0][0] for f in _TRAIN_FLAGS])
def test_train_flag_reaches_the_config(small_matrix, tmp_path, flags, field, value):
    assert getattr(TrainConfig(), field) != value
    model_path = tmp_path / "model.json"
    rc = main(["train", "--matrix", str(small_matrix), "--model", "rf", "--trees", "1",
               *flags, "--out", str(model_path)])
    assert rc == 0
    assert json.loads(model_path.read_text())["config"][field] == value
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["config"][field] == value


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--gamma", "--min-child-weight"])
@pytest.mark.parametrize("model", ["rf", "xgb"])
def test_train_non_finite_penalty_exits_one(small_matrix, tmp_path, capsys, model, flag, value):
    out = tmp_path / "model.json"
    rc = main(["train", "--matrix", str(small_matrix), "--model", model, "--trees", "1",
               flag, value, "--out", str(out)])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


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


# sha256 of each model file `train` writes from the seeded matrices below
_PINNED_MODELS = {
    ("leaky", "rf"):
        "b6c2593bf43758b0fa0c53c92dc45614eeea08e5aed30e106a72ce7fe66ca9ef",
    ("leaky", "gbt"):
        "9ef5935cf04187ce4cac72805fd03af92a5d699bf0298a81b30dae9446589509",
    ("leaky", "xgb"):
        "f7431dd10d1a7717f66bb648b3922cfea7a6d7c2f3a920e937ae776748cecd3c",
    ("honest", "rf"):
        "f647d92f5997165e8757eadb5b9fe652a711f2dc582115a6f20098e99bafc0fa",
    ("honest", "gbt"):
        "544fb14fb55508df8f929d9fffd6d3b5e1cca38e1e6ff6ab9a2eb575698bb69d",
    ("honest", "xgb"):
        "1efecb21fe551d25f0399c67a7ea0b5aaff6c742d434ab7b2e3d00882ea6bc8c",
}
# (auc, precision, recall) per kind of `bench` on the same matrices
_PINNED_BENCH = {
    "leaky": {"rf": (1.0, 1.0, 1.0), "gbt": (1.0, 0.652, 1.0), "xgb": (1.0, 1.0, 1.0)},
    "honest": {
        "rf": (0.4977473771634973, 0.6588720770288858, 0.9795501022494888),
        "gbt": (0.5235095472032218, 0.652, 1.0),
        "xgb": (0.5100055629990049, 0.6519410977242303, 0.9959100204498977),
    },
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_train_and_bench_outputs_are_pinned(tmp_path, monkeypatch, workers):
    """Model bytes and bench metrics from seeded leaky and honest matrices never move."""
    monkeypatch.chdir(tmp_path)  # relative paths keep the run ids in the files fixed
    assert main(["generate", "--jams", "3000", "--alerts", "10", "--seed", "11",
                 "--out", "data"]) == 0
    for feature_set in ("leaky", "honest"):
        matrix = f"{feature_set}.tjm"
        assert main(["ingest", "--input", "data/jams.jsonl", "--feature-set", feature_set,
                     "--out", matrix]) == 0
        flags = ["--matrix", matrix, "--trees", "3", "--max-depth", "4", "--seed", "5",
                 "--subsample-features", "0.7", "--workers", workers]
        for kind in TRAINERS:
            assert main(["train", *flags, "--model", kind, "--out", f"{kind}.json"]) == 0
            digest = hashlib.sha256(Path(f"{kind}.json").read_bytes()).hexdigest()
            assert digest == _PINNED_MODELS[feature_set, kind]
        assert main(["bench", *flags, "--out-dir", "bench"]) == 0
        reports = json.loads(Path("bench/bench_reports.json").read_text())
        got = {r["model_kind"]: (r["auc"], r["precision"], r["recall"]) for r in reports}
        assert got == _PINNED_BENCH[feature_set]


# sha256 of the matrix and report `ingest` writes from the seeded corpus below
_PINNED_INGEST = {
    "leaky.tjm":
        "8265c13eaa4b73d6d5bf0b1bac5ab0dbbdbece19b6f71974f763d30f349c04bd",
    "leaky.tjm.report.json":
        "b401110d0aa0df12e13eacb5ed75cf2d6d56bd2efeacba9a76843a86891f1489",
    "honest.tjm":
        "c64029b1b4a3f91b41d4f26cbcd6c2b4e8698f49c3dab2e302c6e44c10b0759f",
    "honest.tjm.report.json":
        "b401110d0aa0df12e13eacb5ed75cf2d6d56bd2efeacba9a76843a86891f1489",
}


def test_ingest_outputs_are_pinned(tmp_path, monkeypatch):
    """Matrix and report bytes of `ingest` on a seeded corpus with bad lines and a
    publication window never move."""
    monkeypatch.chdir(tmp_path)  # relative paths keep the run ids in the files fixed
    assert main(["generate", "--jams", "5000", "--alerts", "10", "--seed", "23",
                 "--out", "data"]) == 0
    lines = Path("data/jams.jsonl").read_bytes().splitlines()
    bad = [b"not json", jam_line(level=9), jam_line(speed=-1), b"", jam_line(pub_date=0),
           jam_line(street=None, city="Zz"), b'{"level": 3}', jam_line(location_x=0, location_y=0)]
    for at, line in zip(range(0, len(lines), len(lines) // len(bad)), bad):
        lines.insert(at, line)
    Path("data/jams.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    for feature_set in ("leaky", "honest"):
        assert main(["ingest", "--input", "data/jams.jsonl", "--feature-set", feature_set,
                     "--window-start", "2018-01-02", "--window-end", "2018-01-07T12:00",
                     "--out", f"out/{feature_set}.tjm"]) == 0
    got = {name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
           for name in _PINNED_INGEST}
    assert got == _PINNED_INGEST


_FAIL_IN_WORKER = """
import multiprocessing, os, sys, time
from jamcast.cli import main
from jamcast.errors import JamcastError
from jamcast.trees.engine import PartitionState

parent = os.getpid()

def fail_in_worker(self, second_order):
    if os.getpid() != parent:
        {failure}
    else:
        {in_parent}

PartitionState.begin_round = fail_in_worker
rc = main(sys.argv[1:])
print("live workers:", len(multiprocessing.active_children()))
sys.exit(rc)
"""


def _train_failing_in_worker(
    tmp_path, failure: str, in_parent: str = "pass"
) -> subprocess.CompletedProcess:
    """`train --workers 2` in a subprocess whose pool workers run `failure` in begin_round.

    The parent, which holds partition run 0, runs `in_parent` there instead.
    """
    matrix_path = _ingest(tmp_path)
    out = tmp_path / "failed.json"
    script = _FAIL_IN_WORKER.format(failure=failure, in_parent=in_parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, "train",
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


def test_train_reports_an_error_in_the_parents_own_step(tmp_path):
    """The parent's step raises; the slower worker's reply is still collected, so none prints."""
    proc = _train_failing_in_worker(
        tmp_path, "time.sleep(0.5)", in_parent='raise JamcastError("parent rows went sideways")'
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: parent rows went sideways\n"


_FAIL_IN_QUANTIZE_WORKER = """
import multiprocessing, os, sys
from jamcast.cli import main
from jamcast.trees import binning

parent = os.getpid()
thresholds = binning._feature_thresholds

def fail_in_worker(col, max_bins):
    if os.getpid() != parent:
        {failure}
    return thresholds(col, max_bins)

os.sched_getaffinity = lambda pid: {{0, 1}}
binning.SERIAL_VALUES = 0  # fork for any size
binning._feature_thresholds = fail_in_worker
rc = main(sys.argv[1:])
print("live workers:", len(multiprocessing.active_children()))
sys.exit(rc)
"""


@pytest.mark.parametrize("failure, stderr", [
    ("os._exit(7)", r"error: pool worker 0 \(pid \d+\) died with exit code 7\n"),
    ('raise ValueError("edges went sideways")',
     r"error: pool worker 0 \(pid \d+\) failed: ValueError: edges went sideways\n"),
], ids=["dead", "error"])
def test_train_reports_a_failed_quantize_worker(tmp_path, failure, stderr):
    """quantize's forked workers fail as the engine's do: exit 1, the worker named."""
    matrix_path = _ingest(tmp_path)
    out = tmp_path / "failed.json"
    proc = subprocess.run(
        [sys.executable, "-c", _FAIL_IN_QUANTIZE_WORKER.format(failure=failure), "train",
         "--matrix", str(matrix_path), "--model", "xgb", "--trees", "2", "--workers", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "live workers: 0\n"
    assert proc.returncode == 1
    assert re.fullmatch(stderr, proc.stderr)
    assert not out.exists()


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


def test_bench_peaks_below_the_float_matrix(tmp_path):
    """bench reads the loaded matrix a column at a time and never holds its float64 values.

    Its training state grows with the rows too (about 0.8x the float matrix
    at 200k leaky rows, 0.9x at 100k), and the histograms add a fixed part.
    """
    matrix_path = _ingest(tmp_path, n=100_000)
    matrix, _ = load_matrix(matrix_path)
    float_bytes = matrix.n_rows * matrix.n_features * 8
    tracemalloc.start()
    try:
        rc = main(["bench", "--matrix", str(matrix_path), "--trees", "2", "--max-depth", "3",
                   "--out-dir", str(tmp_path / "bench")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < float_bytes


def _cut_short_after(fn, path: Path):
    """`fn`, which then truncates `path` to half its size."""

    def cut(*args, **kwargs):
        result = fn(*args, **kwargs)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)
        return result

    return cut


@pytest.mark.parametrize("command, after", [
    ("train", "load_matrix"), ("bench", "load_matrix"), ("bench", "quantize")])
def test_a_matrix_cut_short_after_it_was_loaded_exits_one(tmp_path, monkeypatch, capsys,
                                                          command, after):
    """A .tjm truncated once loaded (or once bench quantized it) is exit 1, no traceback."""
    matrix_path = _ingest(tmp_path, n=300)
    module = cli if after == "load_matrix" else evaluation
    monkeypatch.setattr(module, after, _cut_short_after(getattr(module, after), matrix_path))
    out = tmp_path / "out"
    argv = {"train": ["train", "--model", "xgb", "--out", str(out)],
            "bench": ["bench", "--out-dir", str(out)]}[command]
    rc = main(argv + ["--matrix", str(matrix_path), "--trees", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: .*m\.tjm: tjm file changed after it was loaded\n", err)
    assert not out.exists()


def test_a_matrix_rewritten_before_a_forked_quantize_fails_the_bench(tmp_path, monkeypatch,
                                                                    capsys):
    """A worker's FileChangedError reaches bench as itself, not as a plain JamcastError
    recorded in each kind's report: the whole bench exits 1."""
    matrix_path = _ingest(tmp_path, n=300)
    load = cli.load_matrix

    def rewrite_after_load(path):
        loaded = load(path)
        copy = tmp_path / "copy.tjm"
        copy.write_bytes(matrix_path.read_bytes())
        os.replace(copy, matrix_path)  # the same bytes in a new file
        return loaded

    monkeypatch.setattr(cli, "load_matrix", rewrite_after_load)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(binning, "SERIAL_VALUES", 0)
    out = tmp_path / "out"
    rc = main(["bench", "--matrix", str(matrix_path), "--trees", "1", "--workers", "2",
               "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: .*m\.tjm: tjm file changed after it was loaded\n", err)
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["train", "bench"])
def test_a_matrix_with_no_features_exits_one(tmp_path, capsys, command):
    """A .tjm whose header lists no features is exit 1, no traceback."""
    matrix, _ = load_matrix(_ingest(tmp_path))
    path = tmp_path / "none.tjm"
    save_matrix(path, FeatureMatrix(matrix.labels, FeatureSchema((), "leaky"), None),
                EncodingMap(by_feature={}))
    out = tmp_path / "out"
    argv = {"train": ["train", "--model", "xgb", "--out", str(out)],
            "bench": ["bench", "--out-dir", str(out)]}[command]
    assert main(argv + ["--matrix", str(path), "--trees", "1"]) == 1
    assert re.fullmatch(r"error: .*none\.tjm: tjm header has a bad shape \(\d+ x 0\)\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_train_on_a_matrix_holding_minus_inf_exits_one(tmp_path, capsys):
    """-inf becomes a bin edge, which strict JSON cannot hold: no model file is written."""
    matrix_path = _ingest(tmp_path)
    overwrite_value(matrix_path, 0, "road_type", -np.inf)
    out = tmp_path / "m.json"
    rc = main(["train", "--matrix", str(matrix_path), "--model", "xgb", "--trees", "1",
               "--out", str(out)])
    assert rc == 1
    assert re.fullmatch(r"error: .*m\.json: not strict JSON \(.+\)\n", capsys.readouterr().err)
    assert not out.exists()
    assert not (tmp_path / "m.json.manifest.json").exists()


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_bench_non_finite_threshold_exits_one(small_matrix, tmp_path, capsys, value):
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--matrix", str(small_matrix), "--models", "xgb", "--trees", "1",
               f"--threshold={value}", "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --threshold must be finite, got {float(value)}\n"
    assert not out_dir.exists()


def test_train_and_bench_quantize_the_training_rows_once(small_matrix, tmp_path, monkeypatch):
    """`train` bins its matrix once and `bench` its training split once, for all kinds."""
    calls = []

    def counting(values, *args, **kwargs):
        binned = quantize(values, *args, **kwargs)
        calls.append(binned.n_rows)
        return binned

    for name, module in list(sys.modules.items()):
        if name.startswith("jamcast") and getattr(module, "quantize", None) is quantize:
            monkeypatch.setattr(module, "quantize", counting)
    n_rows = load_matrix(small_matrix)[0].n_rows
    assert main(["train", "--matrix", str(small_matrix), "--model", "rf", "--trees", "1",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert calls == [n_rows]
    calls.clear()
    assert main(["bench", "--matrix", str(small_matrix), "--models", "rf,gbt,xgb",
                 "--trees", "1", "--out-dir", str(tmp_path / "bench")]) == 0
    assert calls == [int(n_rows * 0.75)]  # the training split's rows


def test_bench_failed_kinds_write_strict_json(tmp_path):
    """A kind that fails in bench writes null metrics, never NaN, and the run exits 0."""
    matrix_path = _ingest(tmp_path)
    out = tmp_path / "b"
    assert main(["bench", "--matrix", str(matrix_path), "--models", "rf,xgb",
                 "--max-bins", "70000", "--out-dir", str(out)]) == 0
    docs = strict_json((out / "bench_reports.json").read_text())
    assert [doc["error"].startswith("ConfigError") for doc in docs] == [True, True]
    assert {doc["auc"] for doc in docs} == {doc["train_seconds"] for doc in docs} == {None}


def test_bench_unknown_model_exits_one(tmp_path):
    matrix_path = _ingest(tmp_path)
    rc = main(["bench", "--matrix", str(matrix_path), "--models", "xgb,nope",
               "--out-dir", str(tmp_path / "b")])
    assert rc == 1


@pytest.mark.parametrize("models", [",", "", " , "])
def test_bench_with_no_model_kind_exits_one(small_matrix, tmp_path, capsys, models):
    """A --models that names no kind is a config error, not an empty table."""
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--matrix", str(small_matrix), f"--models={models}",
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --models names no model kind\n"
    assert not out_dir.exists()


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
