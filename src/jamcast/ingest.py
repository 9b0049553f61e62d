"""Parse, validate, clean and encode jam JSONL streams into feature matrices.

Jams stream through in blocks of `_BLOCK_LINES` non-empty lines and never
become row objects. Each line is decoded once; objects holding every jam
key are transposed into columns, and each column is checked with one
set-of-types test and one numpy mask. Only rows failing a fast check go to
the scalar validator `_jam_rejection`, whose order of checks decides which
rejection reason wins. `clean` drops rows with ordered masks and `encode`
fills the matrix from the columns, so memory holds one block of lines and
decoded objects plus the output columns.

Parsing is line-tolerant: every non-empty line either yields a row or
increments a rejection reason, and rows_accepted + rows_rejected always
equals the number of non-empty lines seen. The parse/clean stages return
lazy block iterators paired with reports that are complete once the
iterator is exhausted.

Two feature sets are first-class: `honest` uses only fields with no
functional tie to the jam level, `leaky` adds the level-coupled telemetry
(speed, length, delay) that makes near-perfect classifiers possible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from jamcast.errors import SchemaError, ValidationError
from jamcast.events import decompose_epoch_ms, jam_labels

# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # "numeric" | "categorical"
    source: str


_HONEST_FEATURES = (
    FeatureSpec("location_x", "numeric", "location_x"),
    FeatureSpec("location_y", "numeric", "location_y"),
    FeatureSpec("road_type", "numeric", "road_type"),
    FeatureSpec("street", "categorical", "street"),
    FeatureSpec("city", "categorical", "city"),
    FeatureSpec("month", "numeric", "time.month"),
    FeatureSpec("day", "numeric", "time.day"),
    FeatureSpec("hour", "numeric", "time.hour"),
    FeatureSpec("min", "numeric", "time.min"),
    FeatureSpec("weekday", "numeric", "time.weekday"),
)

_LEAKY_EXTRA = (
    FeatureSpec("speed", "numeric", "speed"),
    FeatureSpec("length", "numeric", "length"),
    FeatureSpec("delay", "numeric", "delay"),
)

_JAM_STRINGS = ("street", "city", "country")
_JAM_NUMERICS = ("location_x", "location_y", "road_type", "speed", "length", "delay")
_TIME_SOURCES = {"time.month", "time.day", "time.hour", "time.min", "time.sec", "time.weekday"}


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list; the order is fixed and recorded in every artifact."""

    features: tuple[FeatureSpec, ...]
    feature_set: str

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")

    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def fingerprint(self) -> str:
        doc = {
            "feature_set": self.feature_set,
            "features": [[f.name, f.kind, f.source] for f in self.features],
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


FEATURE_SETS = ("leaky", "honest")


def schema_for(feature_set: str) -> FeatureSchema:
    """The two named feature sets; `leaky` = `honest` + {speed, length, delay}."""
    if feature_set == "honest":
        return FeatureSchema(_HONEST_FEATURES, "honest")
    if feature_set == "leaky":
        return FeatureSchema(_HONEST_FEATURES + _LEAKY_EXTRA, "leaky")
    raise SchemaError(f"unknown feature set {feature_set!r}; expected one of {FEATURE_SETS}")


@dataclass
class EncodingMap:
    """Per categorical feature: text -> dense index >= 1; index 0 is reserved."""

    by_feature: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class IngestReport:
    files_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str, count: int = 1) -> None:
        if count:
            self.rows_rejected += count
            self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + count

    def merge(self, other: "IngestReport") -> None:
        self.files_read += other.files_read
        self.rows_accepted += other.rows_accepted
        for reason, count in other.rejection_reasons.items():
            self.reject(reason, count)

    def as_dict(self) -> dict:
        return {
            "files_read": self.files_read,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
        }


@dataclass
class FeatureMatrix:
    """Encoded design matrix: (n_rows, n_features) float64 values plus boolean labels.

    `encode` and `load_matrix` both hold the values column-major, one
    contiguous block per feature as .tjm files store them, and return the
    row-major view of that block.
    """

    values: np.ndarray
    labels: np.ndarray
    schema: FeatureSchema

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.values.shape[1])

    @property
    def schema_fingerprint(self) -> str:
        return self.schema.fingerprint()

    def take(self, rows: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(
            values=self.values[rows], labels=self.labels[rows], schema=self.schema
        )


# ---------------------------------------------------------------------------
# parsing

_BLOCK_LINES = 2048  # non-empty lines parsed, cleaned and encoded together

# per jam key: the JSON value types the fast check accepts, and the column dtype
_INTEGER = (frozenset({int}), np.int64)
_TEXT = (frozenset({str, type(None)}), object)
_NUMBER = (frozenset({int, float, type(None)}), np.float64)
_JAM_COLUMNS = {
    "level": _INTEGER,
    "pub_date": _INTEGER,
    **dict.fromkeys(_JAM_STRINGS, _TEXT),
    **dict.fromkeys(_JAM_NUMERICS, _NUMBER),
}
_jam_values = operator.itemgetter(*_JAM_COLUMNS)
_raw_decode = json.JSONDecoder().raw_decode


@dataclass
class JamBlock:
    """Accepted jams as columns keyed by JSON field name: int64 `level` and `pub_date`,
    float64 numbers (NaN for null) and object arrays of str ("" for null)."""

    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["level"])

    def __getitem__(self, key: str) -> np.ndarray:
        return self.columns[key]

    def take(self, keep: np.ndarray) -> "JamBlock":
        return JamBlock({key: col[keep] for key, col in self.columns.items()})


def _jam_rejection(obj) -> str | None:
    """Why parse rejects a decoded jam line, or None; the order of checks picks the reason."""
    if not isinstance(obj, dict):
        return "malformed_json"
    if "level" not in obj:
        return "missing_field"
    level = obj["level"]
    if type(level) is not int:
        return "bad_field_type"
    if not 1 <= level <= 5:
        return "level_out_of_range"
    if any(key not in obj for key in _JAM_COLUMNS):
        return "missing_field"
    for key, (types, dtype) in _JAM_COLUMNS.items():
        value = obj[key]
        # a float64 column must also hold the value: 1e400 written out does not fit
        if type(value) not in types or (dtype is np.float64 and not _fits(value, dtype)):
            return "bad_field_type"
    if not 0 < obj["pub_date"] < 2**63:  # epoch-ms must fit int64
        return "invalid_pub_date"
    return None


def _iter_nonempty(stream: BinaryIO | Iterable[bytes]) -> Iterator[bytes]:
    return filter(None, map(operator.methodcaller("strip"), stream))


def _loads(line: bytes):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None


def _decode(lines: list[bytes]) -> Iterator:
    """Each line decoded once, exactly as json.loads(line); None where that raises.

    Lines are decoded as slices of the block's UTF-8 text. A block that is
    not valid UTF-8 or holds a NUL or a byte-order mark, which change how
    json.loads reads bytes, goes through json.loads line by line.
    """
    try:
        text = b"\n".join(lines).decode()
    except UnicodeDecodeError:
        text = "\x00"
    parts = text.split("\n")
    if len(parts) != len(lines) or "\x00" in text or "\ufeff" in text:
        yield from map(_loads, lines)
        return
    for part in parts:
        try:
            obj, end = _raw_decode(part)
        except (ValueError, RecursionError):
            obj = end = None
        yield obj if end == len(part) else None


def _column(values: tuple, types: frozenset, dtype) -> tuple[np.ndarray, np.ndarray | bool]:
    """`values` as an array, and the mask of values of another type or out of dtype's range."""
    present = set(map(type, values))
    wrong = False
    if not present <= types:
        wrong = np.fromiter((type(v) not in types for v in values), bool, len(values))
        values = [0 if w else v for v, w in zip(values, wrong)]
    if dtype is object and type(None) in present:
        values = ["" if v is None else v for v in values]
    try:
        return np.array(values, dtype=dtype), wrong
    except OverflowError:
        over = np.fromiter((not _fits(v, dtype) for v in values), bool, len(values))
        values = [0 if o else v for v, o in zip(values, over)]
        return np.array(values, dtype=dtype), wrong | over


def _fits(value, dtype) -> bool:
    try:
        dtype(value)
    except OverflowError:
        return False
    return True


def _parse_block(lines: list[bytes], report: IngestReport) -> JamBlock:
    """Decode, transpose and check one block; rows failing a fast check get their reason."""
    rows, whole, rejected = [], [], []
    for obj in _decode(lines):
        try:
            rows.append(_jam_values(obj))
            whole.append(obj)
        except (TypeError, KeyError):  # not an object, or a jam key is missing
            rejected.append(obj)
    columns = {key: np.empty(0, dtype=dtype) for key, (_, dtype) in _JAM_COLUMNS.items()}
    bad = np.zeros(len(whole), dtype=bool)
    for key, values in zip(_JAM_COLUMNS, zip(*rows)):
        columns[key], wrong = _column(values, *_JAM_COLUMNS[key])
        bad |= wrong
    bad |= (columns["level"] < 1) | (columns["level"] > 5) | (columns["pub_date"] <= 0)
    for obj in itertools.chain(rejected, itertools.compress(whole, bad)):
        report.reject(_jam_rejection(obj))
    block = JamBlock(columns).take(~bad)
    report.rows_accepted += len(block)
    return block


def parse_jams(stream: BinaryIO | Iterable[bytes]) -> tuple[Iterator[JamBlock], IngestReport]:
    """Lazily parse jam JSONL into column blocks; the report is complete once they are read."""
    report = IngestReport()

    def gen() -> Iterator[JamBlock]:
        lines = _iter_nonempty(stream)
        while chunk := list(itertools.islice(lines, _BLOCK_LINES)):
            block = _parse_block(chunk, report)
            if len(block):
                yield block

    return gen(), report


def clean(
    blocks: Iterable[JamBlock],
    window: tuple[int, int] | None = None,
) -> tuple[Iterator[JamBlock], IngestReport]:
    """Drop semantically invalid jams; the report accounts for every drop.

    Drops negative speed/length/delay, (0, 0) coordinates, and rows outside the
    optional [start_ms, end_ms) publication window, each under the first rule it fails.
    """
    report = IngestReport()

    def gen() -> Iterator[JamBlock]:
        for block in blocks:
            rules = [
                ("negative_speed", block["speed"] < 0),
                ("negative_length", block["length"] < 0),
                ("negative_delay", block["delay"] < 0),
                ("null_island", (block["location_x"] == 0) & (block["location_y"] == 0)),
            ]
            if window is not None:
                pub = block["pub_date"]
                rules.append(("out_of_window", (pub < window[0]) | (pub >= window[1])))
            dropped = np.zeros(len(block), dtype=bool)
            for reason, hit in rules:
                report.reject(reason, int(np.count_nonzero(hit & ~dropped)))
                dropped |= hit
            kept = block.take(~dropped)
            report.rows_accepted += len(kept)
            if len(kept):
                yield kept

    return gen(), report


# ---------------------------------------------------------------------------
# encoding


def _validate_schema_sources(schema: FeatureSchema) -> None:
    sources = {"categorical": set(_JAM_STRINGS), "numeric": {*_JAM_NUMERICS, *_TIME_SOURCES}}
    for spec in schema.features:
        if spec.kind not in sources:
            raise SchemaError(f"{spec.name}: unknown feature kind {spec.kind!r}")
        if spec.source not in sources[spec.kind]:
            raise SchemaError(f"{spec.name}: no {spec.kind} source {spec.source!r}")


def encode(blocks: Iterable[JamBlock], schema: FeatureSchema) -> tuple[FeatureMatrix, EncodingMap]:
    """Encode cleaned jam blocks into a FeatureMatrix in schema order.

    Categorical indices are assigned 1..k in lexicographic order of the
    observed category text (deterministic, no hashing); index 0 is reserved
    and never assigned. Labels come from the jam level and nothing else.
    """
    _validate_schema_sources(schema)
    specs = schema.features
    # first-seen provisional indices, remapped lexicographically at the end
    prov: dict[str, dict[str, int]] = {s.name: {} for s in specs if s.kind == "categorical"}

    # per feature, its column chunk of every block; empty-start for no blocks
    columns: list[list[np.ndarray] | None] = [[np.empty(0)] for _ in specs]
    label_chunks: list[np.ndarray] = [np.empty(0, dtype=bool)]
    for block in blocks:
        time_fields = decompose_epoch_ms(block["pub_date"])
        for j, spec in enumerate(specs):
            if spec.kind == "categorical":
                seen = prov[spec.name]
                codes = [seen.setdefault(cat, len(seen)) for cat in block[spec.source]]
                col = np.array(codes, dtype=np.int64)
            elif spec.source in _TIME_SOURCES:
                # calendar fields are below 60, so one byte holds them exactly
                col = time_fields[spec.source.split(".", 1)[1]].astype(np.int8)
            else:
                col = block[spec.source]
            columns[j].append(col)
        label_chunks.append(jam_labels(block["level"]))

    # one contiguous block per feature; each feature's chunks are freed as it is filled
    labels = np.concatenate(label_chunks)
    by_feature = np.empty((len(specs), len(labels)), dtype=np.float64)
    for j in range(len(specs)):
        np.concatenate(columns[j], out=by_feature[j])
        columns[j] = None

    final = {name: {c: i + 1 for i, c in enumerate(sorted(cats))} for name, cats in prov.items()}
    # remap provisional (first-seen) indices to lexicographic ones
    for j, spec in enumerate(specs):
        if prov.get(spec.name):  # a dict iterates in first-seen order
            lut = np.array([final[spec.name][cat] for cat in prov[spec.name]], dtype=np.float64)
            by_feature[j] = lut[by_feature[j].astype(np.int64)]

    matrix = FeatureMatrix(values=by_feature.T, labels=labels, schema=schema)
    return matrix, EncodingMap(by_feature=final)


# ---------------------------------------------------------------------------
# multi-file pipeline


@dataclass
class IngestSummary:
    files: list[str]
    parse: IngestReport
    clean: IngestReport
    n_rows: int

    def as_dict(self) -> dict:
        return {
            "files": self.files,
            "parse": self.parse.as_dict(),
            "clean": self.clean.as_dict(),
            "n_rows": self.n_rows,
        }


def ingest_files(
    paths: Iterable[str | Path],
    schema: FeatureSchema,
    window: tuple[int, int] | None = None,
) -> tuple[FeatureMatrix, EncodingMap, IngestSummary]:
    """Parse -> clean -> encode a set of jam JSONL files, streaming.

    Files are processed in sorted-name order so the output is independent
    of filesystem enumeration order.
    """
    ordered = sorted(str(p) for p in paths)
    parse_report = IngestReport()

    def all_blocks() -> Iterator[JamBlock]:
        for path in ordered:
            with open(path, "rb") as fh:
                gen, rep = parse_jams(fh)
                yield from gen
            rep.files_read = 1
            parse_report.merge(rep)

    cleaned, clean_report = clean(all_blocks(), window=window)
    matrix, enc = encode(cleaned, schema)
    summary = IngestSummary(
        files=ordered, parse=parse_report, clean=clean_report, n_rows=matrix.n_rows
    )
    return matrix, enc, summary


# ---------------------------------------------------------------------------
# matrix file format (versioned columnar binary with JSON header)

_TJM_MAGIC = b"TJMX"
TJM_VERSION = 1


def save_matrix(
    path: str | Path,
    matrix: FeatureMatrix,
    encoding: EncodingMap,
    run_id: str | None = None,
) -> None:
    """Write the versioned columnar binary matrix format (see docs/formats.md)."""
    header = {
        "format": "tjm",
        "version": TJM_VERSION,
        "n_rows": matrix.n_rows,
        "n_features": matrix.n_features,
        "feature_set": matrix.schema.feature_set,
        "features": [[f.name, f.kind, f.source] for f in matrix.schema.features],
        "encoding": {k: dict(sorted(v.items())) for k, v in encoding.by_feature.items()},
        "values_dtype": "<f8",
        "values_layout": "columnar",
        "labels_dtype": "u1",
        "run_id": run_id,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_TJM_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        # one contiguous float64 block per feature, in schema order; a column
        # of a column-major matrix (as encode builds it) is written uncopied
        for column in matrix.values.T:
            fh.write(np.ascontiguousarray(column, dtype="<f8").data)
        fh.write(matrix.labels.astype(np.uint8).data)


def load_matrix(path: str | Path) -> tuple[FeatureMatrix, EncodingMap]:
    """Read a .tjm file, holding its values once; a corrupt or short file is a ValidationError."""
    with open(path, "rb") as fh:
        if fh.read(4) != _TJM_MAGIC:
            raise ValidationError(f"{path}: not a tjm matrix file")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            version, n, f = header.get("version"), header["n_rows"], header["n_features"]
            features = tuple(FeatureSpec(*row) for row in header["features"])
            schema = FeatureSchema(features=features, feature_set=header["feature_set"])
            cats = {k: {c: int(i) for c, i in v.items()} for k, v in header["encoding"].items()}
        except (struct.error, ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
                RecursionError) as exc:
            raise ValidationError(f"{path}: corrupt tjm header ({exc!r})") from None
        if version != TJM_VERSION:
            raise ValidationError(f"{path}: unsupported tjm version {version}")
        if type(n) is not int or n < 0 or f != len(features):
            raise ValidationError(f"{path}: tjm header has a bad shape ({n} x {f})")
        # the size is checked before allocating, so a corrupt n_rows cannot ask for all memory
        if os.fstat(fh.fileno()).st_size - fh.tell() < n * (f * 8 + 1):
            raise ValidationError(f"{path}: truncated tjm file")
        columns = np.empty((f, n), dtype="<f8")  # read in place; the matrix is its transpose
        labels = np.empty(n, dtype=np.uint8)
        fh.readinto(columns)
        fh.readinto(labels)
    matrix = FeatureMatrix(values=columns.T, labels=labels.astype(bool), schema=schema)
    return matrix, EncodingMap(by_feature=cats)
