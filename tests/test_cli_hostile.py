"""Every command under hostile flag values: exit code 0, 1 or 2, no traceback, strict JSON.

Flags are drawn from nan, +-inf, the empty string, a reversed window,
degenerate train fractions and a matrix holding -inf. Sizes, tree counts
and worker counts stay small: they scale the work, not the hostility.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import strict_json
from jamcast.cli import main
from jamcast.ingest import FeatureMatrix, load_matrix, save_matrix

_HOSTILE = ["nan", "inf", "-inf", ""]
_FLOATS = st.sampled_from(_HOSTILE + ["-1", "0", "0.5", "1", "2"])
_INTS = st.sampled_from(_HOSTILE + ["-1", "0", "1", "2", "3"])
_WHEN = st.sampled_from(_HOSTILE + ["2018-01-05", "2018-01-01", "1515110400000", "-1", "0"])
_TRAIN_FLAGS = {
    "--learning-rate": _FLOATS, "--lambda": _FLOATS, "--gamma": _FLOATS,
    "--min-child-weight": _FLOATS, "--subsample-rows": _FLOATS,
    "--subsample-features": _FLOATS, "--max-depth": _INTS, "--max-leaves": _INTS,
    "--max-bins": _INTS, "--seed": _INTS,
}
# placeholders for the fixture directory and a fresh output directory
_IN, _OUT = "<in>", "<out>"


def _some(draw, flags: dict) -> list[str]:
    """A random subset of `flags`, each with a value drawn from its strategy.

    Values are joined with "=", as argparse would read "-inf" on its own as a flag.
    """
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))
    return [f"{flag}={draw(flags[flag])}" for flag in names]


def _window(draw, start: str, end: str) -> list[str]:
    """No window, one hostile pair, or the reversed pair."""
    pair = draw(st.one_of(st.none(), st.tuples(_WHEN, _WHEN),
                          st.just(("2018-01-05", "2018-01-01"))))
    return [] if pair is None else [f"{start}={pair[0]}", f"{end}={pair[1]}"]


@st.composite
def runs(draw) -> list[list[str]]:
    """One hostile argv for each of generate, ingest, train and bench."""
    matrix = draw(st.sampled_from([f"{_IN}/good.tjm", f"{_IN}/minus_inf.tjm"]))
    weights = st.builds(lambda w: f"{w},1,1,1,1", _FLOATS)
    generate = ["generate", "--jams", "60", "--alerts", "5", "--out", f"{_OUT}/gen",
                *_some(draw, {"--coupling-noise": _FLOATS, "--level-weights": weights,
                              "--seed": _INTS}),
                *_window(draw, "--start", "--end")]
    ingest = ["ingest", "--input", f"{_IN}/jams.jsonl", "--out", f"{_OUT}/m.tjm",
              "--feature-set", draw(st.sampled_from(["leaky", "honest"])),
              *_window(draw, "--window-start", "--window-end")]
    train = ["train", "--matrix", matrix, "--trees", "2", "--out", f"{_OUT}/model.json",
             "--model", draw(st.sampled_from(["rf", "gbt", "xgb"])), *_some(draw, _TRAIN_FLAGS)]
    bench = ["bench", "--matrix", matrix, "--trees", "2", "--out-dir", f"{_OUT}/bench",
             *_some(draw, {**_TRAIN_FLAGS, "--threshold": _FLOATS,
                           "--train-fraction": st.sampled_from(["0", "1", *_HOSTILE])})]
    return [generate, ingest, train, bench]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    """A 300-jam corpus, its leaky matrix, and that matrix with one road_type at -inf."""
    d = tmp_path_factory.mktemp("hostile")
    assert main(["generate", "--jams", "300", "--alerts", "5", "--seed", "3", "--out", str(d)]) == 0
    assert main(["ingest", "--input", str(d / "jams.jsonl"), "--out", str(d / "good.tjm")]) == 0
    matrix, encoding = load_matrix(d / "good.tjm")
    values = matrix.values.copy()
    values[0, matrix.schema.names().index("road_type")] = -np.inf
    save_matrix(d / "minus_inf.tjm", FeatureMatrix(values, matrix.labels, matrix.schema), encoding)
    return d


@settings(max_examples=40, deadline=None)
@given(argvs=runs())
def test_commands_survive_hostile_flags(fixture_dir, argvs):
    with tempfile.TemporaryDirectory() as out:
        for argv in argvs:
            argv = [a.replace(_IN, str(fixture_dir)).replace(_OUT, out) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 1, 2), (argv, rc)
            assert "Traceback" not in err.getvalue(), argv
        for path in Path(out).rglob("*.json"):
            strict_json(path.read_text())
