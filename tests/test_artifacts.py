"""Every output is whole or absent, and a manifest that exists describes the files beside it."""

import contextlib
import errno
import hashlib
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from jamcast import cli, evaluation, ingest, manifest
from jamcast.cli import main
from jamcast.manifest import file_digest

# children import jamcast from this checkout, whatever their working directory
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}

_GENERATE = ["generate", "--jams", "2000", "--alerts", "5000", "--seed", "1", "--out", "data"]
_INGEST = ["ingest", "--input", "data/jams.jsonl", "--out", "m.tjm"]
_TRAIN = ["train", "--matrix", "m.tjm", "--model", "rf", "--trees", "2", "--out", "model.json"]
_BENCH = ["bench", "--matrix", "m.tjm", "--trees", "2", "--out-dir", "bench"]

# command: (a first run, a second run with other outputs, the outputs in the order they
# are written, the manifest)
_RUNS = {
    "generate": (_GENERATE, _GENERATE[:-3] + ["2", "--out", "data"],
                 ["data/jams.jsonl", "data/alerts.jsonl"], "data/generate.manifest.json"),
    "ingest": (_INGEST, _INGEST + ["--window-start", "2018-01-02", "--window-end", "2018-01-05"],
               ["m.tjm", "m.tjm.report.json"], "m.tjm.manifest.json"),
    "train": (_TRAIN + ["--seed", "1"], _TRAIN + ["--seed", "2"], ["model.json"],
              "model.json.manifest.json"),
    "bench": (_BENCH + ["--seed", "1"], _BENCH + ["--seed", "2"],
              ["bench/bench_table.txt", "bench/bench_table.csv", "bench/bench_reports.json"],
              "bench/bench.manifest.json"),
}


class _FullDisk:
    """A file whose first write stores half its bytes and then fails, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(data)[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _check_manifest(path: str) -> None:
    """A manifest, if there is one, holds the digests of the files beside it."""
    if Path(path).exists():
        digests = json.loads(Path(path).read_text())["output_digests"]
        assert digests == {p: file_digest(p) for p in digests}


@pytest.mark.parametrize("command", list(_RUNS))
def test_a_failed_last_write_leaves_whole_outputs(tmp_path, monkeypatch, capsys, command):
    """A command whose last output fails partway through exits 2. That output keeps its
    previous bytes, each earlier one holds its whole new bytes, no temporary file is
    left, and no manifest describes other files than those beside it."""
    monkeypatch.chdir(tmp_path)
    # bench's table and reports hold seconds; a still clock makes their bytes repeat
    monkeypatch.setattr(evaluation, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    assert main(_GENERATE) == 0
    assert main(_INGEST) == 0
    first, second, outputs, manifest_path = _RUNS[command]
    assert main(first) == 0
    old = {p: Path(p).read_bytes() for p in outputs}
    write_artifact = manifest.write_artifact

    @contextlib.contextmanager
    def failing_last(path):
        with write_artifact(path) as fh:
            yield _FullDisk(fh) if Path(path) == Path(outputs[-1]) else fh

    with monkeypatch.context() as patch:
        for module in (manifest, ingest, cli):
            patch.setattr(module, "write_artifact", failing_last)
        assert main(second) == 2
    assert "No space left on device" in capsys.readouterr().err
    failed = {p: Path(p).read_bytes() for p in outputs}
    assert sorted(tmp_path.rglob("*.tmp")) == []
    _check_manifest(manifest_path)

    assert main(second) == 0
    new = {p: Path(p).read_bytes() for p in outputs}
    _check_manifest(manifest_path)
    assert failed[outputs[-1]] == old[outputs[-1]] != new[outputs[-1]]
    for p in outputs[:-1]:
        assert failed[p] == new[p]


_KILLED_AFTER_ONE_CHUNK = """
import os, signal, sys
from jamcast import datagen
from jamcast.cli import main

render = datagen._render
rendered = []

def render_or_die(*args):
    if rendered:  # the first chunk has been written
        os.kill(os.getpid(), signal.SIGKILL)
    rendered.append(True)
    return render(*args)

datagen._render = render_or_die
main(sys.argv[1:])
"""


def test_a_killed_generate_leaves_the_previous_corpus(tmp_path):
    """A generate killed after its first chunk leaves the previous jams.jsonl byte for
    byte, a .tmp sibling that *.jsonl does not match, and no manifest."""
    out = tmp_path / "data"
    assert main(["generate", "--jams", "10000", "--seed", "1", "--out", str(out)]) == 0
    before = (out / "jams.jsonl").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_AFTER_ONE_CHUNK, "generate", "--jams", "10000",
         "--seed", "2", "--out", str(out)],
        capture_output=True,
        env=_ENV,
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL
    assert (out / "jams.jsonl").read_bytes() == before
    (tmp,) = out.glob(".jams.jsonl.*.tmp")
    assert 0 < tmp.stat().st_size < len(before)
    assert sorted(p.name for p in out.glob("*.jsonl")) == ["alerts.jsonl", "jams.jsonl"]
    assert not (out / "generate.manifest.json").exists()


def _read_fifo(path: Path, got: list) -> None:
    with open(path, "rb") as fh:
        got.append(fh.read())


@pytest.mark.parametrize("command", ["ingest", "train"])
def test_an_output_that_is_a_fifo_is_written_through(tmp_path, monkeypatch, command):
    """A FIFO at an output path is written into, not replaced. Its reader gets the bytes
    a regular file gets from the same command, the command exits 0 with no process
    writing into the FIFO, and the manifest's digest for the FIFO is of those bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(_GENERATE) == 0
    assert main(_INGEST) == 0
    os.mkfifo("fifo")
    got: list[bytes] = []
    reader = threading.Thread(target=_read_fifo, args=("fifo", got), daemon=True)
    reader.start()
    argv = {"ingest": _INGEST, "train": _TRAIN}[command]
    assert main(argv[:-1] + ["fifo"]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat("fifo").st_mode)
    assert sorted(tmp_path.rglob("*.tmp")) == []
    assert main(argv) == 0
    assert got == [Path(argv[-1]).read_bytes()]
    digests = json.loads(Path("fifo.manifest.json").read_text())["output_digests"]
    assert digests["fifo"] == hashlib.sha256(got[0]).hexdigest()


def test_no_command_reads_an_output_back(tmp_path, monkeypatch):
    """Each command reads only its inputs to digest them; its outputs' digests come from
    the writer, and equal those of the files beside its manifest."""
    monkeypatch.chdir(tmp_path)
    read = []

    def recorded(path):
        read.append(str(path))
        return file_digest(path)

    for module in (manifest, cli):
        monkeypatch.setattr(module, "file_digest", recorded)
    inputs = {"generate": [], "ingest": ["data/jams.jsonl"], "train": ["m.tjm"],
              "bench": ["m.tjm"]}
    for command, (argv, _, _, manifest_path) in _RUNS.items():
        read.clear()
        assert main(argv) == 0
        assert read == inputs[command]
        assert Path(manifest_path).exists()
        _check_manifest(manifest_path)


def _umath():
    """numpy's compiled core, which names its SIMD targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    return umath


def test_every_manifest_names_its_numeric_environment(tmp_path, monkeypatch):
    """Each command's manifest records numpy's version, its baseline and dispatch SIMD
    targets and the CPU features it found enabled, outside the run id."""
    monkeypatch.chdir(tmp_path)
    umath = _umath()
    expected = {
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_features": [k for k, on in umath.__cpu_features__.items() if on],
    }
    for command, (argv, _, _, manifest_path) in _RUNS.items():
        assert main(argv) == 0
        doc = json.loads(Path(manifest_path).read_text())
        assert doc["numeric_env"] == expected
        assert doc["run_id"] == manifest.make_run_id(command, doc["config"],
                                                     doc["input_digests"])


def test_a_symlink_at_an_output_is_replaced(tmp_path):
    """The output's name gets the new file; the file a symlink there pointed to keeps
    its bytes."""
    target, out = tmp_path / "target.json", tmp_path / "out.json"
    target.write_bytes(b"old\n")
    out.symlink_to(target)
    manifest.write_json(out, {"new": 1})
    assert not out.is_symlink()
    assert out.read_bytes() == b'{\n "new": 1\n}\n'
    assert target.read_bytes() == b"old\n"


def _avx512_targets() -> list[str]:
    """numpy's enabled AVX-512 dispatch targets, or none where the CPU lacks AVX512F."""
    umath = _umath()
    enabled = umath.__cpu_features__
    if not enabled.get("AVX512F"):
        return []
    return [t for t in umath.__cpu_dispatch__
            if ("AVX512" in t or t == "X86_V4") and enabled.get(t)]


_NORMALS_DIGEST = """
import hashlib, sys
from jamcast import rng
sys.stdout.write(hashlib.sha256(rng.normals(1, 4, 0, 100_000).tobytes()).hexdigest())
"""


def test_corpora_and_matrices_do_not_depend_on_avx512(tmp_path):
    """generate (coupling noise 0.3) and ingest write the same bytes with numpy's
    AVX-512 kernels turned off as with them on; rng.normals, which depends on them,
    shows that turning them off took effect."""
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy has no AVX-512 kernels enabled on this CPU")
    env = {k: v for k, v in _ENV.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    files = ("data/jams.jsonl", "data/alerts.jsonl", "m.tjm")
    seen = {}
    for name, extra in (("on", {}), ("off", {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})):
        run_dir = tmp_path / name
        run_dir.mkdir()
        for argv in (["generate", "--jams", "100000", "--alerts", "1000", "--seed", "3",
                      "--coupling-noise", "0.3", "--out", "data"], _INGEST):
            subprocess.run([sys.executable, "-m", "jamcast", *argv], cwd=run_dir,
                           env={**env, **extra}, check=True, capture_output=True, timeout=120)
        normals = subprocess.run([sys.executable, "-c", _NORMALS_DIGEST], env={**env, **extra},
                                 check=True, capture_output=True, text=True, timeout=60)
        seen[name] = {p: (run_dir / p).read_bytes() for p in files}, normals.stdout
    assert seen["on"][0] == seen["off"][0]
    assert seen["on"][1] != seen["off"][1]
