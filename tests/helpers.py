"""Plain test helpers: input lines, parse shortcuts, small matrices, one-tree growth."""

from __future__ import annotations

import json
from io import BytesIO

import numpy as np

from jamcast.datagen import GenConfig, generate_jams
from jamcast.ingest import clean, encode, parse_jams, schema_for
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


def grow_tree(binned, g, h, config) -> DecisionTree:
    """Grow one boosting tree over full-matrix gradients `g`, `h` on the inline engine."""
    source = InlineSource(binned, labels=np.zeros(binned.n_rows))
    for st in source.states:
        st.g = np.asarray(g[st.lo : st.hi], dtype=np.float64)
        st.h = np.asarray(h[st.lo : st.hi], dtype=np.float64)
        st.nodes = {0: np.arange(st.lo, st.hi, dtype=np.int64)}
    return grow_best_first(source, config, binned.edges, objective="boost")
