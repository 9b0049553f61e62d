"""Parse, validate, clean and encode jam JSONL streams into feature matrices.

Jams stream through in blocks of `_BLOCK_LINES` non-empty lines and never
become row objects: each line is decoded once, objects holding every jam
key are transposed into columns, and parse and clean check a block with
one ordered list of (reason, row mask) rules, in the order of
docs/formats.md, counting each row under the first rule it fails
(`_keep`); only lines that cannot be transposed get a scalar check.
`encode` appends each block's columns to a spool of one file per column,
so each input is read once, with no count of its rows first, and memory
holds one block plus one label byte per row, whatever the corpus size.

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

import contextlib
import hashlib
import itertools
import json
import operator
import os
import struct
import tempfile
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from jamcast.errors import FileChangedError, SchemaError, ValidationError
from jamcast.events import decompose_epoch_ms, jam_labels
from jamcast.manifest import canonical_json, write_artifact

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
        return hashlib.sha256(canonical_json(doc)).hexdigest()[:16]


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
        return asdict(self)


class FeatureMatrix:
    """Encoded design matrix: (n_rows, n_features) float64 values plus boolean labels.

    A matrix holds its labels, its schema and its store, fixed when it is
    built: the spool `encode` wrote or the .tjm file `load_matrix` checked.
    Its values stay in the store and are read a column at a time; data held
    in memory is a plain 2-d array, which `quantize` and `predict` take too.
    """

    def __init__(self, labels: np.ndarray, schema: FeatureSchema, store: _Stored):
        self.labels = labels
        self.schema = schema
        self._store = store
        self.n_rows, self.n_features = len(labels), len(schema.features)

    def column(self, j: int) -> np.ndarray:
        """Feature j's values, read afresh from the store."""
        col = np.empty(self.n_rows, dtype="<f8")
        _read_stored(self._store, j, col)
        return col

    @property
    def schema_fingerprint(self) -> str:
        return self.schema.fingerprint()


# ---------------------------------------------------------------------------
# parsing

# non-empty lines parsed, cleaned and encoded together; 512 lowered ingest's
# peak by about 4 MB but parsed 3-6% slower, so the block stays at 2048
_BLOCK_LINES = 2048

# per jam key: the JSON value types its column accepts, and the column's dtype
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
_Mask = np.ndarray | bool  # a row mask, or False for no row
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


def _untransposed_rejection(obj) -> str:
    """Why parse rejects a decoded line that is not an object holding every jam key."""
    if not isinstance(obj, dict):
        return "malformed_json"
    if "level" not in obj:
        return "missing_field"
    if type(obj["level"]) is not int:
        return "bad_field_type"
    if not 1 <= obj["level"] <= 5:
        return "level_out_of_range"
    return "missing_field"


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


def _column(values: tuple, types: frozenset, dtype) -> tuple[np.ndarray, _Mask, _Mask]:
    """`values` as an array, the mask of values of another type, and the mask of values
    outside dtype's range; a masked value is stored as 0."""
    present = set(map(type, values))
    wrong = over = False
    if not present <= types:
        wrong = np.fromiter((type(v) not in types for v in values), bool, len(values))
        values = [0 if w else v for v, w in zip(values, wrong)]
    if dtype is object and type(None) in present:
        values = ["" if v is None else v for v in values]
    try:
        return np.array(values, dtype=dtype), wrong, over
    except OverflowError:
        over = np.fromiter((not _fits(v, dtype) for v in values), bool, len(values))
        return np.array([0 if o else v for v, o in zip(values, over)], dtype=dtype), wrong, over


def _fits(value, dtype) -> bool:
    try:
        dtype(value)
    except OverflowError:
        return False
    return True


def _keep(rules: Iterable[tuple[str, _Mask]], n: int, report: IngestReport) -> np.ndarray:
    """Count each of n rows under the first (reason, mask) rule it fails, or as accepted if
    it fails none; the mask of the rows accepted."""
    kept = np.ones(n, dtype=bool)
    for reason, hit in rules:
        hit = hit & kept
        report.reject(reason, int(np.count_nonzero(hit)))
        kept &= ~hit
    report.rows_accepted += int(np.count_nonzero(kept))
    return kept


def _parse_block(lines: list[bytes], report: IngestReport) -> JamBlock:
    """Decode, transpose and check one block by the rules of docs/formats.md, in their
    order; a line that cannot be transposed gets its reason from a scalar check."""
    rows = []
    for obj in _decode(lines):
        try:
            rows.append(_jam_values(obj))
        except (TypeError, KeyError):  # not an object, or a jam key is missing
            report.reject(_untransposed_rejection(obj))
    columns, wrong, over = {}, {}, {}
    for key, values in zip(_JAM_COLUMNS, list(zip(*rows)) or [()] * len(_JAM_COLUMNS)):
        columns[key], wrong[key], over[key] = _column(values, *_JAM_COLUMNS[key])
    # int64 overflow is out of range; an integer too large for float64 has a bad type
    rules = [
        ("bad_field_type", wrong["level"]),
        ("level_out_of_range", over["level"] | (columns["level"] < 1) | (columns["level"] > 5)),
        ("bad_field_type", wrong["pub_date"]),
        *(("bad_field_type", wrong[key] | over[key]) for key in _JAM_STRINGS + _JAM_NUMERICS),
        # 1e400 and Infinity decode to float inf; NaN is missing, as null is
        *(("non_finite", np.isinf(columns[key])) for key in _JAM_NUMERICS),
        ("invalid_pub_date", over["pub_date"] | (columns["pub_date"] <= 0)),
    ]
    return JamBlock(columns).take(_keep(rules, len(rows), report))


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
            kept = block.take(_keep(rules, len(block), report))
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


def encode(
    blocks: Iterable[JamBlock],
    schema: FeatureSchema,
    spool_dir: str | Path | None = None,
) -> tuple[FeatureMatrix, EncodingMap]:
    """Encode cleaned jam blocks into a FeatureMatrix in schema order.

    Categorical indices are assigned 1..k in lexicographic order of the
    observed category text (deterministic, no hashing); index 0 is reserved
    and never assigned. Labels come from the jam level and nothing else.

    Each block's columns are appended to a spool: one unnamed temporary
    file per feature in `spool_dir` (tempfile's default without it). Memory
    holds one block and a label byte per row, however many rows the blocks
    hold; the matrix returned reads its columns from the spool, which is
    deleted when the matrix is dropped or encode raises.
    """
    _validate_schema_sources(schema)
    with contextlib.ExitStack() as stack:
        spool = tuple(
            stack.enter_context(tempfile.TemporaryFile(dir=spool_dir, buffering=0))
            for _ in schema.features
        )
        labels, final = _spool_columns(spool, blocks, schema.features)
        close_spool = stack.pop_all().close
    matrix = FeatureMatrix(labels, schema, _Stored(spool=spool))
    weakref.finalize(matrix, close_spool)
    return matrix, EncodingMap(by_feature=final)


def _spool_columns(
    spool: tuple[BinaryIO, ...], blocks: Iterable[JamBlock], specs: tuple[FeatureSpec, ...]
) -> tuple[np.ndarray, dict[str, dict[str, int]]]:
    """Append each block's column j to the spool file j; the labels and the
    lexicographic categorical indices."""
    # first-seen provisional indices, remapped lexicographically at the end
    prov: dict[str, dict[str, int]] = {s.name: {} for s in specs if s.kind == "categorical"}
    labels = bytearray()  # one byte per row, as the bool labels are
    for block in blocks:
        time_fields = decompose_epoch_ms(block["pub_date"])
        for fh, spec in zip(spool, specs):
            if spec.kind == "categorical":
                seen = prov[spec.name]
                col = [seen.setdefault(cat, len(seen)) for cat in block[spec.source]]
            elif spec.source in _TIME_SOURCES:
                col = time_fields[spec.source.split(".", 1)[1]]
            else:
                col = block[spec.source]
            _pwrite_all(fh.fileno(), np.ascontiguousarray(col, dtype="<f8"), 8 * len(labels))
        labels += jam_labels(block["level"]).tobytes()
    n = len(labels)

    final = {name: {c: i + 1 for i, c in enumerate(sorted(cats))} for name, cats in prov.items()}
    # remap provisional (first-seen) indices to lexicographic ones inside the
    # spool, a block of rows at a time
    part = np.empty(min(n, _BLOCK_LINES), dtype="<f8")
    for fh, spec in zip(spool, specs):
        if prov.get(spec.name):  # a dict iterates in first-seen order
            lut = np.array([final[spec.name][cat] for cat in prov[spec.name]], dtype="<f8")
            for lo in range(0, n, _BLOCK_LINES):
                chunk = part[: n - lo]
                _pread_all(fh.fileno(), chunk, 8 * lo)
                np.take(lut, chunk.astype(np.intp), out=chunk)
                _pwrite_all(fh.fileno(), chunk, 8 * lo)
    return np.frombuffer(labels, dtype=bool), final


# ---------------------------------------------------------------------------
# multi-file pipeline


@dataclass
class IngestSummary:
    files: list[str]
    parse: IngestReport
    clean: IngestReport
    n_rows: int

    def as_dict(self) -> dict:
        return asdict(self)


def ingest_files(
    paths: Iterable[str | Path],
    schema: FeatureSchema,
    window: tuple[int, int] | None = None,
    spool_dir: str | Path | None = None,
) -> tuple[FeatureMatrix, EncodingMap, IngestSummary]:
    """Parse -> clean -> encode a set of jam JSONL files, streaming.

    Files are processed in sorted-name order so the output is independent
    of filesystem enumeration order. Each file is read once, and `encode`
    spools its columns in `spool_dir`; memory holds one block of lines and
    one label byte per row.
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
    matrix, enc = encode(cleaned, schema, spool_dir=spool_dir)
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
) -> str:
    """Write the versioned columnar binary matrix format (see docs/formats.md); its sha256.

    The file is written front to back through `write_artifact`, so a failed save
    leaves any file at `path` as it was. Each column is copied from the matrix's
    store a bounded chunk at a time.
    """
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
    blob = canonical_json(header)
    with write_artifact(path) as fh:
        fh.write(_TJM_MAGIC + struct.pack("<I", len(blob)) + blob)
        # one contiguous float64 block per feature, in schema order
        for j in range(matrix.n_features):
            _write_column(matrix, j, fh)
        fh.write(np.ascontiguousarray(matrix.labels, dtype=bool).view(np.uint8))
    return fh.sha256.hexdigest()


def _write_column(matrix: FeatureMatrix, j: int, fh) -> None:
    """Write feature j's values from the matrix's store to fh, through one buffer of at
    most _COPY_BYTES."""
    n, step = matrix.n_rows, _COPY_BYTES // 8
    buf = np.empty(min(n, step), dtype="<f8")
    for row in range(0, n, step):
        chunk = buf[: n - row]
        _read_stored(matrix._store, j, chunk, row)
        fh.write(chunk)


# bytes of a column save_matrix copies at a time; copy_file_range, which keeps
# the bytes in the kernel, was no faster on 1M-row matrices
_COPY_BYTES = 1 << 20


def _pwrite_all(fd: int, data, pos: int) -> int:
    """Write all of a contiguous buffer at `pos` in fd; the position after it."""
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, pos)
        view, pos = view[n:], pos + n
    return pos


def _pread_all(fd: int, out: np.ndarray, pos: int) -> int:
    """Fill a contiguous array from `pos` in fd until it is full or the file ends; the
    bytes read. Reads are positional, so forked workers may share fd."""
    view = memoryview(out).cast("B")
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], pos + done)
        if not n:
            break
        done += n
    return done


@dataclass(frozen=True)
class _Stored:
    """Where a matrix's values are: column j is `spool[j]`, the unnamed file `encode`
    wrote, from byte 0; or else it is `n_rows` values from byte
    `start + 8 * j * n_rows` of the .tjm file at `path`, whose (size, mtime_ns, inode)
    were `stamp` when it was loaded."""

    path: str = "<spool>"
    start: int = 0
    n_rows: int = 0
    stamp: tuple[int, int, int] | None = None
    spool: tuple[BinaryIO, ...] = ()


def _changed(stored: _Stored) -> FileChangedError:
    return FileChangedError(f"{stored.path}: tjm file changed after it was loaded")


def _stamp(fh) -> tuple[int, int, int]:
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns, st.st_ino


def _read_stored(stored: _Stored, j: int, out: np.ndarray, row: int = 0) -> None:
    """Fill `out` with column j's values from `row` on, read from the column's spool
    file, or from the .tjm file opened and checked to be the one loaded."""
    if stored.spool:
        got = _pread_all(stored.spool[j].fileno(), out, 8 * row)
    else:
        with open(stored.path, "rb") as fh:
            if _stamp(fh) != stored.stamp:
                raise _changed(stored)
            got = _pread_all(fh.fileno(), out, stored.start + 8 * (j * stored.n_rows + row))
    if got != out.nbytes:
        raise _changed(stored)


def load_matrix(path: str | Path) -> tuple[FeatureMatrix, EncodingMap]:
    """Check a .tjm file's header and size and read its labels; a corrupt or short file
    is a ValidationError.

    The matrix returned holds no values: each column is read from the file
    when asked for (`FeatureMatrix.column`), and a file cut short or
    rewritten by then is a FileChangedError.
    """
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
        if type(n) is not int or n < 0 or f != len(features) or f < 1:
            raise ValidationError(f"{path}: tjm header has a bad shape ({n} x {f})")
        # the size is checked before allocating, so a corrupt n_rows cannot ask for all memory
        stored = _Stored(os.path.abspath(path), fh.tell(), n, _stamp(fh))
        if stored.stamp[0] - stored.start < n * (f * 8 + 1):
            raise ValidationError(f"{path}: truncated tjm file")
        labels = np.empty(n, dtype=np.uint8)
        fh.seek(stored.start + n * f * 8)
        fh.readinto(labels)
    matrix = FeatureMatrix(labels.astype(bool), schema, stored)
    return matrix, EncodingMap(by_feature=cats)
