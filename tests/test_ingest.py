import errno
import gc
import json
import math
import os
import tempfile
import tracemalloc
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import column, dense, jam_line, parse_all, synthetic_matrix
from jamcast.cli import main
from jamcast.datagen import GenConfig, generate_jams
from jamcast.errors import FileChangedError, JamcastError, SchemaError, ValidationError
import jamcast.ingest as ingest
from jamcast.ingest import (
    FeatureSchema,
    FeatureSpec,
    clean,
    encode,
    ingest_files,
    load_matrix,
    parse_jams,
    save_matrix,
    schema_for,
)


def test_parse_wellformed_jam():
    line = (
        b'{"level":4,"speed":3.1,"length":500,"delay":120,"pub_date":1514764800000,'
        b'"street":"I-405 N","city":"Los Angeles","country":"US",'
        b'"location_x":-118.4,"location_y":34.0,"road_type":3}'
    )
    records, report = parse_all([line])
    assert len(column(records, "level")) == 1
    assert report.rows_accepted == 1 and report.rows_rejected == 0
    rec = records[0]
    assert rec["level"][0] == 4 and rec["speed"][0] == 3.1 and rec["street"][0] == "I-405 N"


def test_parse_level_out_of_range():
    records, report = parse_all([jam_line(level=9)])
    assert records == []
    assert report.rejection_reasons == {"level_out_of_range": 1}


def test_parse_malformed_json():
    records, report = parse_all([b"not json"])
    assert records == []
    assert report.rejection_reasons == {"malformed_json": 1}


def test_parse_blank_lines_skipped():
    gen, report = parse_jams(BytesIO(b"\n\n" + jam_line() + b"\n\n"))
    records = list(gen)
    assert len(column(records, "level")) == 1
    assert report.rows_accepted + report.rows_rejected == 1


def _drop_key(line: bytes, key: str) -> bytes:
    obj = json.loads(line)
    obj.pop(key)
    return json.dumps(obj).encode()


def test_parse_missing_field_and_null_handling():
    records, report = parse_all([_drop_key(jam_line(), "speed")])
    assert records == []
    assert report.rejection_reasons == {"missing_field": 1}
    # null numeric becomes the missing sentinel
    records, report = parse_all([jam_line(speed=None)])
    speeds = column(records, "speed")
    assert len(speeds) == 1 and math.isnan(speeds[0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [jam_line(), jam_line(level=9), b"not json", b"", b"   ", b"[1,2]", jam_line(level=1)]
        ),
        max_size=30,
    )
)
def test_parse_conservation(lines):
    gen, report = parse_jams(BytesIO(b"\n".join(lines) + b"\n"))
    records = list(gen)
    non_empty = sum(1 for x in lines if x.strip())
    assert report.rows_accepted + report.rows_rejected == non_empty
    assert report.rows_accepted == len(column(records, "level"))


def test_clean_rules():
    records, _ = parse_all(
        [
            jam_line(delay=-1),
            jam_line(location_x=0, location_y=0),
            jam_line(speed=-0.5),
            jam_line(length=-2),
            jam_line(),
        ]
    )
    kept, report = clean(records)
    delays = column(kept, "delay")
    assert len(delays) == 1
    assert delays[0] == 120.0
    assert report.rejection_reasons == {
        "negative_delay": 1,
        "null_island": 1,
        "negative_speed": 1,
        "negative_length": 1,
    }
    assert report.rows_accepted == 1


def test_clean_window():
    records, _ = parse_all([jam_line(pub_date=100), jam_line(pub_date=1514764800000)])
    kept, report = clean(records, window=(1514678400000, 1515456000000))
    assert len(column(kept, "level")) == 1
    assert report.rejection_reasons == {"out_of_window": 1}


def test_clean_keeps_nan_speed():
    records, _ = parse_all([jam_line(speed=None)])
    kept, report = clean(records)
    assert len(column(kept, "level")) == 1 and report.rows_rejected == 0


def test_encode_single_row_shape():
    schema = FeatureSchema(
        features=(
            FeatureSpec("hour", "numeric", "time.hour"),
            FeatureSpec("weekday", "numeric", "time.weekday"),
            FeatureSpec("road_type", "numeric", "road_type"),
            FeatureSpec("location_x", "numeric", "location_x"),
            FeatureSpec("location_y", "numeric", "location_y"),
        ),
        feature_set="honest",
    )
    records, _ = parse_all([jam_line(level=4)])
    matrix, _ = encode(records, schema)
    assert dense(matrix).shape == (1, 5)
    assert matrix.labels.tolist() == [True]


def test_encode_lexicographic_assignment():
    records, _ = parse_all(
        [jam_line(street="A"), jam_line(street="B"), jam_line(street="A")]
    )
    matrix, enc = encode(records, schema_for("honest"))
    street_col = matrix.schema.names().index("street")
    assert matrix.column(street_col).tolist() == [1.0, 2.0, 1.0]
    assert enc.by_feature["street"] == {"A": 1, "B": 2}


def test_encode_schema_error_for_unknown_source():
    bad = FeatureSchema(
        features=(FeatureSpec("bogus", "numeric", "not_a_field"),), feature_set="honest"
    )
    with pytest.raises(SchemaError):
        encode([], bad)


def test_encode_label_equals_derive_label():
    records, _ = parse_all([jam_line(level=lv) for lv in (1, 2, 3, 4, 5)])
    matrix, _ = encode(records, schema_for("leaky"))
    assert matrix.labels.tolist() == [False, False, True, True, True]
    # encode takes its labels from the one label rule, which rejects a bad level
    records[0].columns["level"][0] = 6
    with pytest.raises(ValidationError):
        encode(records, schema_for("leaky"))


def test_leaky_schema_is_honest_plus_telemetry():
    honest = schema_for("honest").names()
    leaky = schema_for("leaky").names()
    assert leaky[: len(honest)] == honest
    assert leaky[len(honest):] == ["speed", "length", "delay"]
    with pytest.raises(SchemaError):
        schema_for("nope")


def test_ingest_files_deterministic(tmp_path):
    lines = b"\n".join([jam_line(street=s) for s in ("B", "A", "C")]) + b"\n"
    p1 = tmp_path / "a.jsonl"
    p1.write_bytes(lines)
    m1, e1, s1 = ingest_files([p1], schema_for("leaky"))
    m2, e2, s2 = ingest_files([p1], schema_for("leaky"))
    assert np.array_equal(dense(m1), dense(m2))
    assert e1.by_feature == e2.by_feature
    assert s1.as_dict() == s2.as_dict()


def _traced_peak(fn, *args):
    """fn(*args) and the peak of memory it allocated on top of what was live before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _small_matrix():
    records, _ = parse_all([jam_line(street="A", speed=None), jam_line(street="B", level=1)])
    return encode(records, schema_for("leaky"))


def test_matrix_file_round_trip(tmp_path):
    matrix, enc = _small_matrix()
    path = tmp_path / "m.tjm"
    save_matrix(path, matrix, enc, run_id="abc123")
    loaded, enc2 = load_matrix(path)
    assert loaded.n_rows == matrix.n_rows
    assert loaded.schema == matrix.schema
    assert enc2.by_feature == enc.by_feature
    assert np.array_equal(np.isnan(dense(loaded)), np.isnan(dense(matrix)))
    mask = ~np.isnan(dense(matrix))
    assert np.array_equal(dense(loaded)[mask], dense(matrix)[mask])
    assert np.array_equal(loaded.labels, matrix.labels)
    # byte-identical re-save
    path2 = tmp_path / "m2.tjm"
    save_matrix(path2, loaded, enc2, run_id="abc123")
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("feature_set", ["honest", "leaky"])
def test_encode_and_save_matrix_hold_the_matrix_once(tmp_path, feature_set):
    buf = BytesIO()
    generate_jams(GenConfig(n_jams=20_000, seed=5), buf)
    buf.seek(0)
    records, _ = parse_jams(buf)
    cleaned, _ = clean(records)
    blocks = list(cleaned)

    (matrix, enc), encode_peak = _traced_peak(encode, blocks, schema_for(feature_set))
    _, save_peak = _traced_peak(save_matrix, tmp_path / "m.tjm", matrix, enc)
    nbytes = 8 * matrix.n_rows * matrix.n_features
    assert encode_peak < 1.5 * nbytes
    assert save_peak < 0.5 * nbytes


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Seeded jam corpora of 20k and 320k lines, by line count."""
    paths = {}
    for n_jams in (20_000, 320_000):
        paths[n_jams] = tmp_path_factory.mktemp("corpus") / f"jams{n_jams}.jsonl"
        with open(paths[n_jams], "wb") as fh:
            generate_jams(GenConfig(n_jams=n_jams, seed=3), fh)
    return paths


@pytest.mark.parametrize("feature_set", ["honest", "leaky"])
def test_ingest_peak_above_its_matrix_does_not_grow_with_rows(corpora, feature_set):
    """ingest_files spools its columns, so the float matrix stays on disk: memory
    holds a block of lines plus a label byte per row, and the whole peak grows
    by under 2 bytes a row."""
    peak = {}
    for n_jams, path in corpora.items():
        (matrix, _, _), peak[n_jams] = _traced_peak(ingest_files, [path], schema_for(feature_set))
        assert matrix.n_rows == n_jams
    assert peak[320_000] - peak[20_000] < 2 * (320_000 - 20_000)


def _open_files_in(directory) -> list[str]:
    """What this process's open descriptors into `directory` name, unnamed files included."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    inside = os.path.realpath(directory) + os.sep
    names = []
    for fd in fds.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # the descriptor listing the directory is closed by now
            continue
        if target.startswith(inside):
            names.append(target)
    return names


def test_the_spool_is_unnamed_and_closed_with_its_matrix(tmp_path):
    path = tmp_path / "jams.jsonl"
    path.write_bytes(b"".join(jam_line(street=f"s{i % 7}") + b"\n" for i in range(5000)))
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    matrix, enc, _ = ingest_files([path], schema_for("leaky"), spool_dir=spool_dir)
    assert list(spool_dir.iterdir()) == []
    assert len(_open_files_in(spool_dir)) == matrix.n_features  # one file per column
    save_matrix(tmp_path / "m.tjm", matrix, enc)
    assert np.array_equal(dense(load_matrix(tmp_path / "m.tjm")[0]), dense(matrix))
    del matrix
    gc.collect()
    assert _open_files_in(spool_dir) == []


def test_values_of_a_spooled_matrix_are_read_afresh_each_time():
    """`column(j)` reads the spool each time: each read is a new array, and writing
    into one leaves the store as it was."""
    matrix, _ = synthetic_matrix(2_000, seed=5)
    for j in range(matrix.n_features):
        first, second = matrix.column(j), matrix.column(j)
        assert np.array_equal(first, second, equal_nan=True)
        assert not np.shares_memory(first, second)
        before = first.copy()
        first[:] = -1.0
        assert np.array_equal(matrix.column(j), before, equal_nan=True)


def test_a_failed_ingest_leaves_no_spool(tmp_path, monkeypatch):
    """A block stream that raises mid-ingest, or a second input vanishing after the
    first is parsed under the CLI (exit 2), leaves no spool file or descriptor behind."""
    lines = b"".join(jam_line(street=f"s{i}") + b"\n" for i in range(3000))
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_bytes(lines)
    second.write_bytes(lines)
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()

    def blocks_then_fail():
        yield from clean(parse_jams(BytesIO(lines))[0])[0]
        raise OSError(errno.EIO, "input error")

    # `failed` keeps encode's frame alive, so its spool files must be closed, not dropped
    with pytest.raises(OSError, match="input error") as failed:
        encode(blocks_then_fail(), schema_for("leaky"), spool_dir=spool_dir)
    assert list(spool_dir.iterdir()) == [] and _open_files_in(spool_dir) == []
    del failed

    parse = ingest.parse_jams

    def parse_then_vanish(fh):
        blocks, report = parse(fh)

        def gen():
            yield from blocks
            if fh.name == str(first):
                second.unlink()

        return gen(), report

    monkeypatch.setattr(ingest, "parse_jams", parse_then_vanish)
    out_dir = tmp_path / "out"
    rc = main(["ingest", "--input", str(tmp_path / "*.jsonl"), "--out", str(out_dir / "m.tjm")])
    assert rc == 2 and not second.exists()
    assert list(out_dir.iterdir()) == [] and _open_files_in(out_dir) == []


def test_save_matrix_peak_does_not_grow_with_rows(tmp_path, corpora):
    """save_matrix copies each column from its store, the spool or a loaded .tjm file,
    through one bounded buffer, whatever the rows."""
    peaks = {}
    for n_jams, path in corpora.items():
        matrix, enc, _ = ingest_files([path], schema_for("leaky"))
        _, peaks["encoded", n_jams] = _traced_peak(save_matrix, tmp_path / "m.tjm", matrix, enc)
        loaded, enc = load_matrix(tmp_path / "m.tjm")
        _, peaks["loaded", n_jams] = _traced_peak(save_matrix, tmp_path / "m2.tjm", loaded, enc)
        assert (tmp_path / "m.tjm").read_bytes() == (tmp_path / "m2.tjm").read_bytes()
    # the header, plus the copy buffer
    assert max(peaks.values()) < (64 << 10) + ingest._COPY_BYTES, peaks


def test_a_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    """save_matrix replaces its output only once the new file is whole."""
    path = tmp_path / "m.tjm"
    save_matrix(path, *synthetic_matrix(2_000, seed=5))
    before = path.read_bytes()
    write_column = ingest._write_column

    def fail_after_the_first(matrix, j, fd, pos):
        if j:
            raise OSError(errno.ENOSPC, "no space left")
        return write_column(matrix, j, fd, pos)

    monkeypatch.setattr(ingest, "_write_column", fail_after_the_first)
    with pytest.raises(OSError, match="no space"):
        save_matrix(path, *synthetic_matrix(3_000, seed=6))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_matrix_holds_the_matrix_once(tmp_path):
    matrix, enc = synthetic_matrix(20_000, seed=5, feature_set="honest")
    save_matrix(tmp_path / "m.tjm", matrix, enc)
    (loaded, _), load_peak = _traced_peak(load_matrix, tmp_path / "m.tjm")
    assert load_peak < 1.5 * 8 * matrix.n_rows * matrix.n_features
    assert np.array_equal(dense(loaded), dense(matrix), equal_nan=True)
    assert np.array_equal(loaded.labels, matrix.labels)


def test_a_loaded_matrix_saves_over_its_own_file(tmp_path):
    """save_matrix reads a loaded matrix's columns before it empties the file they are in."""
    matrix, enc = synthetic_matrix(2_000, seed=5)
    path = tmp_path / "m.tjm"
    save_matrix(path, matrix, enc, run_id="r")
    data = path.read_bytes()
    loaded, enc2 = load_matrix(path)
    save_matrix(path, loaded, enc2, run_id="r")
    assert path.read_bytes() == data


@pytest.mark.parametrize("change", ["truncate", "replace"])
def test_a_matrix_file_changed_after_loading_fails_its_reads(tmp_path, change):
    """Columns are read when asked for: a file cut short, or replaced by another of
    the same size, is a FileChangedError then, never values from the wrong file."""
    matrix, enc = synthetic_matrix(2_000, seed=5)
    path = tmp_path / "m.tjm"
    save_matrix(path, matrix, enc)
    loaded, _ = load_matrix(path)
    if change == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 1)
    else:
        other = tmp_path / "other.tjm"
        save_matrix(other, synthetic_matrix(2_000, seed=6)[0], enc)
        assert other.stat().st_size == path.stat().st_size
        other.replace(path)
    with pytest.raises(FileChangedError, match="changed after it was loaded"):
        loaded.column(0)
    with pytest.raises(FileChangedError):
        save_matrix(tmp_path / "copy.tjm", loaded, enc)
    assert not (tmp_path / "copy.tjm").exists()


def test_truncated_matrix_file_is_a_validation_error(tmp_path):
    path = tmp_path / "m.tjm"
    save_matrix(path, *_small_matrix())
    data = path.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(ValidationError):
            load_matrix(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.binary(min_size=1)), max_size=4))
def test_corrupt_matrix_file_loads_or_raises_a_jamcast_error(edits):
    """Overwritten bytes anywhere in a .tjm file never escape as another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tjm"
        save_matrix(path, *_small_matrix())
        data = bytearray(path.read_bytes())
        for where, new in edits:
            at = int(where * len(data))
            data[at : at + len(new)] = new
        path.write_bytes(data)
        try:
            load_matrix(path)
        except (JamcastError, OSError):
            pass


def test_staged_stages_write_the_ingest_files_bytes(tmp_path, monkeypatch):
    """Each stage drained into a list before the next, as the benchmark's staged run does."""
    import jamcast.ingest as ingest

    monkeypatch.setattr(ingest, "_BLOCK_LINES", 97)
    path = tmp_path / "jams.jsonl"
    with open(path, "wb") as fh:
        generate_jams(GenConfig(n_jams=1000, seed=4), fh)
        for line in (b"not json", jam_line(level=9), jam_line(speed=-1), b"", jam_line(pub_date=0)):
            fh.write(line + b"\n")
    with open(path, "rb") as fh:
        records, parse_report = parse_jams(fh)
        records = list(records)
    cleaned, clean_report = clean(records)
    cleaned = list(cleaned)
    matrix, encoding = encode(cleaned, schema_for("leaky"))
    save_matrix(tmp_path / "staged.tjm", matrix, encoding)

    whole, whole_encoding, summary = ingest_files([path], schema_for("leaky"))
    save_matrix(tmp_path / "whole.tjm", whole, whole_encoding)
    assert (tmp_path / "staged.tjm").read_bytes() == (tmp_path / "whole.tjm").read_bytes()
    parse_report.files_read = 1
    assert parse_report.as_dict() == summary.parse.as_dict()
    assert clean_report.as_dict() == summary.clean.as_dict()
    assert summary.parse.rows_rejected == 3 and summary.clean.rows_rejected == 1
