"""Plain test helpers: input lines, parse shortcuts, small matrices, training, one-tree growth."""

from __future__ import annotations

import json
import struct
from io import BytesIO

import numpy as np

from jamcast.datagen import GenConfig, generate_jams
from jamcast.ingest import FeatureMatrix, clean, encode, parse_jams, schema_for
from jamcast.trees.binning import feature_columns, quantize
from jamcast.trees.engine import InlineSource
from jamcast.trees.grower import DecisionTree, grow_best_first

JAM_LINE_DEFAULTS = {
    "location_x": -118.4,
    "location_y": 34.0,
    "street": "I-405 N",
    "city": "Los Angeles",
    "country": "US",
    "road_type": 3,
    "pub_date": 1514764800000,
    "level": 4,
    "speed": 3.1,
    "length": 500.0,
    "delay": 120.0,
}


def strict_json(text: str):
    """json.loads that fails on NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def jam_line(**overrides) -> bytes:
    """One serialized jam event with sane defaults."""
    obj = dict(JAM_LINE_DEFAULTS)
    obj.update(overrides)
    return json.dumps(obj).encode()


def parse_all(lines: list[bytes]):
    """Parse a list of byte lines fully; returns (column blocks, report)."""
    gen, report = parse_jams(BytesIO(b"\n".join(lines) + b"\n"))
    return list(gen), report


def column(blocks, key: str) -> list:
    """One field of parsed jam blocks as a list over all their rows, in order."""
    return [value for block in blocks for value in block[key].tolist()]


def synthetic_matrix(n_jams: int, seed: int = 42, feature_set: str = "leaky", **cfg):
    """Generate -> parse -> clean -> encode a small synthetic matrix."""
    config = GenConfig(n_jams=n_jams, seed=seed, **cfg)
    buf = BytesIO()
    generate_jams(config, buf)
    buf.seek(0)
    records, _ = parse_jams(buf)
    cleaned, _ = clean(records)
    matrix, enc = encode(cleaned, schema_for(feature_set))
    return matrix, enc


def dense(matrix, rows=None) -> np.ndarray:
    """A stored matrix's values as one (n_rows, n_features) array, or those of `rows` in
    that order, read a column at a time."""
    n_rows, n_features, column = feature_columns(matrix, rows)
    values = np.empty((n_rows, n_features))
    for j in range(n_features):
        values[:, j] = column(j)
    return values


def overwrite_value(path, row: int, feature: str, value: float) -> None:
    """Overwrite one value of a .tjm file in place, at its documented offset: after the
    magic, the header's length and the header come the values, column-major `<f8`."""
    with open(path, "r+b") as fh:
        (hlen,) = struct.unpack("<4xI", fh.read(8))
        header = json.loads(fh.read(hlen))
        j = [name for name, _, _ in header["features"]].index(feature)
        fh.seek(8 + hlen + 8 * (j * header["n_rows"] + row))
        fh.write(struct.pack("<d", value))


def fit(trainer, data, labels=None, *, config, rows=None):
    """Quantize `data`, or its `rows`, as `train` and `bench` do, then train `trainer` on it.

    `data` is a FeatureMatrix, whose labels (at `rows`) and schema are used, or a raw
    (n_rows, n_features) array trained with `labels` and no schema.
    """
    schema = None
    if isinstance(data, FeatureMatrix):
        labels = data.labels if rows is None else data.labels[rows]
        schema = data.schema
    binned = quantize(data, config.max_bins, n_workers=config.n_workers, rows=rows)
    return trainer(binned, labels, config, schema)


def grow_tree(binned, g, h, config) -> DecisionTree:
    """Grow one boosting tree over full-matrix gradients `g`, `h` on the inline engine."""
    source = InlineSource(binned, labels=np.zeros(binned.n_rows))
    st = source.state
    st.g = np.asarray(g, dtype=np.float64)
    st.h = np.asarray(h, dtype=np.float64)
    st.nodes = {0: np.arange(binned.n_rows, dtype=np.int64)}
    return grow_best_first(source, config, binned.edges, objective="boost")
