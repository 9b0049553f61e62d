"""The columnar block ingest against the row-at-a-time reference in oracles.py.

On random dirty corpora both paths must give the same parse report, the
same clean report, the same encoding map, and bit for bit the same values
and labels, read back from the .tjm file the columnar matrix saves. The block
size is drawn small, so block boundaries fall between every pair of lines.
"""

import json
import re
import tempfile
from io import BytesIO
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import jamcast.ingest as ingest
from helpers import JAM_LINE_DEFAULTS, dense
from jamcast.ingest import clean, encode, load_matrix, parse_jams, save_matrix, schema_for
from oracles import reference_clean, reference_encode, reference_parse_jams

WINDOW = (1514678400000, 1515456000000)

# number literals json.dumps never writes: float overflow and the bare constants
_RAW = [f"<raw:{literal}>" for literal in ("1e400", "-1e400", "Infinity", "-Infinity", "NaN")]
_ODD = [None, True, False, "3", [1], {"a": 1}, 10**400, -(10**400), *_RAW]
_STRINGS = st.one_of(
    st.none(),
    st.sampled_from(["A", "B", "I-405 N", "é", "日本", "", "a\x0bb", "a\u2028b", "a\x85"]),
    st.just("\ud800"),  # a lone surrogate: escaped, or raw bytes only json.loads reads
    st.text(max_size=3),
    st.sampled_from(_ODD + [17, 1.5]),
)
_NUMBERS = st.one_of(
    st.none(),
    st.floats(width=64),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 0.0, -0.0, -1, -0.5, 1e308, 2**1024 - 2**970, "1.5"] + _ODD),
)
_ZERO = ("location_x", "location_y")  # both zero is null island
_FIELDS = {
    "level": st.one_of(
        st.integers(1, 5), st.sampled_from([0, 6, -1, 10**30, 2**63, 3.0, "3"] + _ODD)
    ),
    "pub_date": st.one_of(
        st.integers(WINDOW[0] - 10**9, WINDOW[1] + 10**9),
        st.sampled_from([0, -5, 1, 2**63 - 1, 2**63, 2**64, 1.5e12, "1", 10**400] + _ODD),
    ),
    **dict.fromkeys(("street", "city", "country"), _STRINGS),
    **dict.fromkeys(_ZERO + ("road_type", "speed", "length", "delay"), _NUMBERS),
}

# lines that are not one serialized jam object
_ODD_LINES = [
    b"", b"   ", b"\t", b"\x0b", b"\x0c", b"\r", b"not json", b"[1,2]", b"null", b"123",
    b'"text"', b"[" * 100_000, b'{"a":[{"b":1}', b'{"c":2}]}', b'{"level": 3}', b"{}",
    b'{"level": 3} x', b"\xff\xfe{}", b'{"street": "\xff"}', b"\x00", b"\xef\xbb\xbf",
    b"\xef\xbb\xbf\xef\xbb\xbf{}",
]


def _dumps(obj, ensure_ascii=True) -> str:
    """json.dumps, with each `_RAW` string written as the bare literal it names."""
    return re.sub(r'"<raw:([^>]*)>"', r"\1", json.dumps(obj, ensure_ascii=ensure_ascii))


@st.composite
def jam_lines(draw) -> bytes:
    """One jam line: random field values, a dropped key now and then, a random framing."""
    obj = dict(JAM_LINE_DEFAULTS)
    for key in draw(st.sets(st.sampled_from(sorted(_FIELDS)), max_size=2)):
        obj[key] = draw(_FIELDS[key])
    for defect in draw(st.sets(st.sampled_from(["speed", "length", "delay", "null", "pub"]))):
        if defect == "null":
            obj.update(zip(_ZERO, draw(st.tuples(*[st.sampled_from([0, 0.0, -0.0])] * 2))))
        elif defect == "pub":  # on an edge of the window
            edges = [WINDOW[0] - 1, WINDOW[0], WINDOW[1] - 1, WINDOW[1]]
            obj["pub_date"] = draw(st.sampled_from(edges))
        else:
            obj[defect] = draw(st.sampled_from([-1, -0.5]))
    if draw(st.integers(0, 19)) == 0:
        del obj[draw(st.sampled_from(sorted(obj)))]
    text = _dumps(obj, ensure_ascii=draw(st.booleans()))
    frame = draw(
        st.sampled_from(
            ["plain"] * 16 + ["crlf", "pad", "bom", "nul", "utf16", "cut", "tail", "raw_ctl"]
        )
    )
    if frame == "utf16":
        encoding = draw(st.sampled_from(["utf-16-le", "utf-16-be", "utf-16"]))
        return text.encode(encoding, "surrogatepass")
    if frame == "raw_ctl":  # control characters left unescaped inside strings
        text = text.replace("\\u000b", "\x0b").replace("\\u0085", "\x85")
    line = text.encode("utf-8", "surrogatepass")
    if frame == "crlf":
        return line + b"\r"
    if frame == "pad":
        return b" \t" + line + b" \x0c"
    if frame == "bom":
        return b"\xef\xbb\xbf" + line
    if frame == "nul":
        at = draw(st.integers(0, len(line)))
        return line[:at] + b"\x00" + line[at:]
    if frame == "cut":
        return line[: draw(st.integers(1, len(line) - 1))]
    if frame == "tail":
        return line + draw(st.sampled_from([b" x", b"{}", line]))
    return line


def _columnar(data: bytes, feature_set: str, window, path: Path):
    blocks, parse_report = parse_jams(BytesIO(data))
    cleaned, clean_report = clean(blocks, window=window)
    matrix, enc = encode(cleaned, schema_for(feature_set))
    save_matrix(path, matrix, enc, run_id="r")
    loaded, _ = load_matrix(path)
    arrays = dense(loaded).tobytes(), loaded.labels.tobytes()
    return parse_report.as_dict(), clean_report.as_dict(), enc.by_feature, arrays


def _reference(data: bytes, feature_set: str, window):
    rows, parse_report = reference_parse_jams(BytesIO(data))
    kept, clean_report = reference_clean(rows, window=window)
    values, labels, enc = reference_encode(kept, schema_for(feature_set))
    arrays = values.tobytes(), labels.tobytes()
    return parse_report.as_dict(), clean_report.as_dict(), enc.by_feature, arrays


def _assert_same(data: bytes, feature_set: str, window, block_lines: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        ingest, "_BLOCK_LINES", block_lines
    ):
        got = _columnar(data, feature_set, window, Path(tmp) / "a.tjm")
        want = _reference(data, feature_set, window)
    assert got[0] == want[0]  # parse report
    assert got[1] == want[1]  # clean report
    assert got[2] == want[2]  # encoding map
    assert got[3] == want[3]  # the saved matrix's values and labels, bit for bit
    return {**want[0]["rejection_reasons"], **want[1]["rejection_reasons"]}


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.one_of(jam_lines(), jam_lines(), jam_lines(), st.sampled_from(_ODD_LINES)),
        min_size=1,
        max_size=40,
    ),
    final_newline=st.booleans(),
    feature_set=st.sampled_from(["leaky", "honest"]),
    window=st.sampled_from([None, WINDOW]),
    block_lines=st.integers(1, 7),
)
def test_columnar_ingest_matches_row_reference(
    lines, final_newline, feature_set, window, block_lines
):
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    _assert_same(data, feature_set, window, block_lines)


def _jam(**overrides) -> bytes:
    return _dumps({**JAM_LINE_DEFAULTS, **overrides}).encode()


def _jam_without(key: str, **overrides) -> bytes:
    obj = {**JAM_LINE_DEFAULTS, **overrides}
    del obj[key]
    return _dumps(obj).encode()


def test_every_rejection_reason_matches_row_reference():
    lines = [
        _jam(),
        b"not json",
        b"[" * 100_000,
        _jam(level=3, speed=-1, street=None, city="日本"),
        b'{"level": 3}',
        _jam(level="3"),
        _jam(speed=10**400),
        _jam(location_x="<raw:-1e400>"),
        _jam(delay="<raw:Infinity>"),
        _jam(speed="<raw:NaN>", pub_date=0),
        _jam(level="<raw:1e400>"),
        _jam(level=9),
        _jam(level=10**30),
        _jam(pub_date=0),
        _jam(pub_date=2**63),
        _jam(speed=-0.5),
        _jam(length=-2),
        _jam(delay=-1),
        _jam(location_x=0, location_y=-0.0),
        _jam(pub_date=100),
        _jam(pub_date=WINDOW[0] - 1),
        _jam(pub_date=WINDOW[0]),
        _jam(pub_date=WINDOW[1] - 1),
        _jam(pub_date=WINDOW[1]),
        _jam(speed=-1, length=-1, delay=-1, location_x=0, location_y=0, pub_date=1),
        _jam(length=-1, delay=-1, location_x=0.0, location_y=0, pub_date=1),
        _jam(delay=-1, location_x=0.0, location_y=0, pub_date=1),
        _jam(location_x=0.0, location_y=0, pub_date=1),
        b"\xef\xbb\xbf" + _jam(street="bom"),
        json.dumps({**JAM_LINE_DEFAULTS, "street": "utf16"}).encode("utf-16-le"),
        _jam(street="crlf") + b"\r",
        _jam(speed=None, street="a\u2028b", city=None),
        # the edges of each rule
        _jam(level=True),
        _jam(level=-(10**30)),
        _jam(pub_date=-(2**63) - 1),
        _jam(pub_date=2**64),
        _jam(pub_date="1"),
        _jam(speed=2**1024 - 2**970),  # rounds to 2**1024: too large for float64
        _jam(speed=2**1024 - 2**971),  # the largest float64
        # where two rules fail, the earlier one is the reason
        _jam(level="3", pub_date=0),
        _jam(level=9, speed="x"),
        _jam(speed="x", delay="<raw:Infinity>"),
        _jam(delay="<raw:Infinity>", pub_date=0),
        # a missing key comes after level's own checks
        _jam_without("speed", level=9),
        _jam_without("speed", level="3"),
        _jam_without("speed", level=True),
        b"",
        b"  ",
    ]
    data = b"\n".join(lines) + b"\n"
    reasons = _assert_same(data, "leaky", WINDOW, 3)
    assert set(reasons) == {
        "malformed_json",
        "missing_field",
        "bad_field_type",
        "non_finite",
        "level_out_of_range",
        "invalid_pub_date",
        "negative_speed",
        "negative_length",
        "negative_delay",
        "null_island",
        "out_of_window",
    }
    for block_lines in (1, 2, 5, 64):
        _assert_same(data, "honest", None, block_lines)
