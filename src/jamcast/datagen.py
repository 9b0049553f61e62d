"""Seeded synthetic alert/jam JSONL generator.

Reproduces the ingestion schema and the level <-> (speed, delay, length)
coupling so the leakage phenomenon is reproducible without any proprietary
data. Values are drawn from per-level bands (speed decreasing with level,
delay and length increasing), each perturbed by `coupling_noise`; with
coupling_noise = 0 the bands are disjoint, so the telemetry functionally
determines the level and a perfect classifier on the leaky feature set
exists. Band midpoints and every other distribution here are generator
parameters, not claims about any real-world feed.

Severity is additionally tilted toward higher levels during Pacific rush
hours, giving the honest (time/location) features a weak but real signal;
the default level weights put the positive fraction near 0.66.

All draws come from the documented counter-based streams in jamcast.rng,
indexed by absolute row number: output bytes depend only on the config,
never on chunking, and scale linearly in row count.

Lines are rendered by numpy a chunk of rows at a time, with no Python
string per row: each field's values become a NUL-padded column of bytes in
one (rows, line width) matrix, digits come from a table of 4-digit groups,
and the NULs are dropped. Floats are written as Python's `format(v, ".Nf")`
writes them, round-half-even on the exact binary value. `coupling_noise` is
bounded so that every value drawn is finite (see GenConfig), and every
generated line ingests.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from jamcast import rng
from jamcast.errors import ValidationError
from jamcast.events import EVENT_TYPES, decompose_epoch_ms

# Dec 31 2017 00:00 UTC .. Jan 9 2018 00:00 UTC: the nine-day default window
DEFAULT_WINDOW_MS = (1514678400000, 1515456000000)

DEFAULT_LEVEL_WEIGHTS = (0.16, 0.20, 0.265, 0.215, 0.16)

# per-level bands, levels 1..5; see module docstring
SPEED_MID = np.array([60.0, 45.0, 30.0, 15.0, 3.0])
SPEED_HALF = np.array([4.0, 4.0, 4.0, 4.0, 3.0])
DELAY_MID = np.array([30.0, 90.0, 240.0, 600.0, 1500.0])
DELAY_HALF = np.array([10.0, 30.0, 60.0, 150.0, 300.0])
LENGTH_MID = np.array([200.0, 600.0, 1500.0, 3000.0, 6000.0])
LENGTH_HALF = np.array([50.0, 150.0, 300.0, 500.0, 1000.0])

RUSH_HOURS = frozenset({7, 8, 9, 16, 17, 18})
_RUSH_TILT = 2.0  # weight multiplier slope toward level 5 during rush hours

STREETS = (
    "I-405 N", "I-405 S", "I-10 E", "I-10 W", "US-101 N", "US-101 S",
    "I-110 N", "I-110 S", "I-5 N", "I-5 S", "I-605 N", "I-605 S",
    "SR-134 E", "SR-134 W", "I-210 E", "I-210 W", "Sunset Blvd",
    "Wilshire Blvd", "Santa Monica Blvd", "Venice Blvd", "Olympic Blvd",
    "Sepulveda Blvd", "Ventura Blvd", "La Cienega Blvd", "Crenshaw Blvd",
    "Figueroa St", "Western Ave", "Vermont Ave", "Normandie Ave",
    "Pacific Coast Hwy", "Laurel Canyon Blvd", "Mulholland Dr",
)

CITIES = (
    "Los Angeles", "Santa Monica", "Long Beach", "Pasadena", "Glendale",
    "Burbank", "Torrance", "Inglewood", "Culver City", "El Segundo",
    "Beverly Hills", "Sherman Oaks",
)

ROAD_TYPES = (1, 2, 3, 4, 6, 7, 17, 20)

DESCRIPTIONS = (
    "heavy traffic on the ramp",
    "car stopped on the shoulder",
    "object on the road",
    "accident in the left lane",
    "road closed for construction",
    "flooding near the underpass",
    "pothole reported by driver",
    "stalled vehicle blocking lane",
    "police activity ahead",
    "traffic light out",
)

# stream channel ids (documented in docs/formats.md)
_CH_PUB = 1
_CH_LEVEL = 2
_CH_SPEED = 3
_CH_SPEED_N = 4
_CH_DELAY = 5
_CH_DELAY_N = 6
_CH_LENGTH = 7
_CH_LENGTH_N = 8
_CH_LON = 9
_CH_LAT = 10
_CH_STREET = 11
_CH_CITY = 12
_CH_ROAD = 13
_CH_TYPE = 14
_CH_DESC = 15

_TAG_JAMS = 0x4A414D53  # "JAMS"
_TAG_ALERTS = 0x414C5254  # "ALRT"

_CHUNK = 1 << 12  # rows rendered at once; their byte matrix, about 1 MB, is all a chunk holds

# the largest coupling_noise accepted; GenConfig's docstring derives it
MAX_COUPLING_NOISE = 1e307


@dataclass(frozen=True)
class GenConfig:
    """Generator configuration; every stream derives from `seed`.

    `coupling_noise` is at most MAX_COUPLING_NOISE, so that every banded value
    is finite. A normal draw is sqrt(-2 ln(1 - u)) cos(2 pi u') with u at most
    1 - 2**-53 (jamcast.rng), so |z| <= sqrt(106 ln 2) ~ 8.572; a band's value
    before noise lies in [0, 7000]; so |value| <= 7000 + 8.572 * noise, which
    is finite for noise below about 2.09e307. 1e307 keeps a factor of two.
    """

    n_jams: int = 0
    n_alerts: int = 0
    seed: int = 0
    date_window: tuple[int, int] = DEFAULT_WINDOW_MS
    level_weights: tuple[float, float, float, float, float] = DEFAULT_LEVEL_WEIGHTS
    coupling_noise: float = 0.0

    def validate(self) -> None:
        if not all(_is_int(v) for v in (self.n_jams, self.n_alerts, self.seed)):
            raise ValidationError("n_jams, n_alerts and seed must be integers")
        if self.n_jams < 0 or self.n_alerts < 0:
            raise ValidationError("row counts must be >= 0")
        weights = self.level_weights
        if len(weights) != 5 or not all(_is_finite(w) and w >= 0 for w in weights):
            raise ValidationError("level_weights must be 5 finite non-negative reals")
        if sum(weights) <= 0:
            raise ValidationError("level_weights must sum to > 0")
        noise = self.coupling_noise
        if not (_is_finite(noise) and 0 <= noise <= MAX_COUPLING_NOISE):
            raise ValidationError(f"coupling_noise must be in [0, {MAX_COUPLING_NOISE:g}]")
        window = self.date_window
        # pub_dates lie in [start, end), and ingest accepts epoch-ms below 2**63
        ok = len(window) == 2 and all(_is_int(v) for v in window)
        if not (ok and 0 < window[0] < window[1] <= 2**63):
            raise ValidationError("date_window must be two integers with 0 < start < end <= 2**63")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _level_cdfs(weights: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=np.float64)
    tilt = 1.0 + _RUSH_TILT * np.arange(5) / 4.0
    base = np.cumsum(w) / w.sum()
    rush = np.cumsum(w * tilt) / (w * tilt).sum()
    return base, rush


def _pub_dates(seed: int, start_row: int, n: int, window: tuple[int, int]) -> np.ndarray:
    lo, hi = window
    u = rng.uniforms(seed, _CH_PUB, start_row, n)
    return lo + (u * (hi - lo)).astype(np.int64)


def _pick(seed: int, channel: int, start_row: int, n: int, items: tuple) -> np.ndarray:
    """Indices into `items`, one per row."""
    return rng.integers(seed, channel, start_row, n, len(items))


def _banded(
    seed: int,
    ch_u: int,
    ch_n: int,
    start_row: int,
    level0: np.ndarray,
    mid: np.ndarray,
    half: np.ndarray,
    noise: float,
) -> np.ndarray:
    n = level0.shape[0]
    u = rng.uniforms(seed, ch_u, start_row, n)
    value = mid[level0] + (2.0 * u - 1.0) * half[level0]
    if noise > 0:
        value = value + noise * rng.normals(seed, ch_n, start_row, n)
    return np.maximum(value, 0.0)


def _jam_columns(config: GenConfig, seed: int, start_row: int, n: int) -> tuple:
    """The columns of jam rows start_row.. start_row + n, in `_JAM_LINE` order."""
    pub = _pub_dates(seed, start_row, n, config.date_window)
    hour = decompose_epoch_ms(pub)["hour"]
    rush = np.isin(hour, list(RUSH_HOURS))
    cdf_base, cdf_rush = _level_cdfs(config.level_weights)
    u_level = rng.uniforms(seed, _CH_LEVEL, start_row, n)
    lvl_base = np.searchsorted(cdf_base, u_level, side="right")
    lvl_rush = np.searchsorted(cdf_rush, u_level, side="right")
    level0 = np.where(rush, lvl_rush, lvl_base)  # 0-based level index

    noise = config.coupling_noise
    speed = _banded(seed, _CH_SPEED, _CH_SPEED_N, start_row, level0, SPEED_MID, SPEED_HALF, noise)
    delay = _banded(seed, _CH_DELAY, _CH_DELAY_N, start_row, level0, DELAY_MID, DELAY_HALF, noise)
    length = _banded(
        seed, _CH_LENGTH, _CH_LENGTH_N, start_row, level0, LENGTH_MID, LENGTH_HALF, noise
    )
    return *_place(seed, start_row, n), pub, level0 + 1, speed, length, delay


def _alert_columns(config: GenConfig, seed: int, start_row: int, n: int) -> tuple:
    """The columns of alert rows start_row.. start_row + n, in `_ALERT_LINE` order."""
    pub = _pub_dates(seed, start_row, n, config.date_window)
    types = _pick(seed, _CH_TYPE, start_row, n, EVENT_TYPES)
    descs = _pick(seed, _CH_DESC, start_row, n, DESCRIPTIONS)
    return *_place(seed, start_row, n), descs, types, pub


def _place(seed: int, start_row: int, n: int) -> tuple:
    """Longitude, latitude, street, city and road type: the first columns of both lines."""
    lon = -118.7 + rng.uniforms(seed, _CH_LON, start_row, n)
    lat = 33.7 + 0.7 * rng.uniforms(seed, _CH_LAT, start_row, n)
    streets = _pick(seed, _CH_STREET, start_row, n, STREETS)
    cities = _pick(seed, _CH_CITY, start_row, n, CITIES)
    roads = _pick(seed, _CH_ROAD, start_row, n, ROAD_TYPES)
    return lon, lat, streets, cities, roads


@functools.cache
def _digit_table() -> np.ndarray:
    """Row k < 10**4 holds the 4 ASCII digits of k as one uint32; row
    10**4 + k holds them with leading zeros NUL, so all four are NUL for 0.

    Built on first use, so commands that only import this module (every
    CLI command does) do not pay for it.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = np.stack([np.tile(np.repeat(digits, 10 ** (3 - j)), 10**j) for j in range(4)], 1)
    blank = padded.copy()
    for j in range(4):
        blank[: 10 ** (3 - j), j] = 0  # k < 10**(3 - j): digit j is a leading zero
    return np.concatenate([padded, blank]).view(np.uint32).ravel()


def _n_digits(v: np.ndarray) -> int:
    return len(str(int(v.max()))) if v.size else 1


def _digits(v: np.ndarray, width: int, pad: bool) -> np.ndarray:
    """Non-negative int64s as (n, width) right-aligned ASCII digits.

    With `pad` leading zeros are written (every value must fit in `width`);
    without, they are NUL and 0 is written "0".
    """
    table = _digit_table()
    n_groups = -(-width // 4)
    groups = np.empty((v.shape[0], n_groups), np.uint32)
    rest = v
    for g in range(n_groups - 1, -1, -1):
        rest, low = np.divmod(rest, 10_000)
        groups[:, g] = table[low if pad else np.where(rest == 0, low + 10_000, low)]
    cells = groups.view(np.uint8)[:, 4 * n_groups - width:]
    if not pad:
        cells[v == 0, -1] = ord("0")
    return cells


def _cells(texts: list[bytes]) -> np.ndarray:
    """Byte strings as rows of a NUL-padded uint8 matrix."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def _ints(v: np.ndarray) -> np.ndarray:
    """Cells of non-negative ints as `str` writes them."""
    return _digits(v, _n_digits(v), pad=False)


def _fixed(decimals: int):
    """Cells of floats as `format(v, ".{decimals}f")` writes them.

    A value is written from k = rint(p), p = |v| * 10**decimals in float64,
    as the digits of k // 10**decimals and k % 10**decimals, after a "-"
    wherever v's sign bit is set (so -0.0 and small negatives give "-0.00",
    as Python does). p is off the exact product by at most p * 2**-53, so
    where it lies farther than p * 2**-50 from a half-integer both round to
    the same integer: Python's round-half-even of the exact binary value.
    Values nearer a tie, with p >= 2**52, or not finite are written by
    Python's own `format`, in a slot widened to hold them.
    """
    spec = f".{decimals}f"

    def cells(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            p = np.abs(v) * 10.0**decimals
        exact = ~(p < 2.0**52)  # also inf and nan
        p[exact] = 0.0
        exact |= np.abs(p - np.floor(p) - 0.5) <= p * 2.0**-50
        whole, frac = np.divmod(np.rint(p).astype(np.int64), 10**decimals)
        n = v.shape[0]
        block = np.concatenate(
            [
                (np.signbit(v) * ord("-")).astype(np.uint8)[:, None],
                _digits(whole, _n_digits(whole), pad=False),
                np.full((n, 1), ord("."), np.uint8),
                _digits(frac, decimals, pad=True),
            ],
            axis=1,
        )
        if exact.any():
            texts = _cells([format(x, spec).encode() for x in v[exact].tolist()])
            block = np.pad(block, ((0, 0), (max(texts.shape[1] - block.shape[1], 0), 0)))
            block[exact] = 0
            block[exact, block.shape[1] - texts.shape[1]:] = texts
        return block

    return cells


def _table(items: tuple):
    """Cells of indices into `items`, each written as `str` writes it."""
    table = _cells([str(item).encode() for item in items])
    return lambda idx: table[idx]


# A line is a tuple of segments: literal bytes, or a function from one
# column to that column's cells, an (n, w) uint8 block whose unused bytes
# are NUL. Each function takes the next column in order.
_JAM_LINE = (
    b'{"location_x":', _fixed(5), b',"location_y":', _fixed(5),
    b',"street":"', _table(STREETS), b'","city":"', _table(CITIES),
    b'","country":"US","road_type":', _table(ROAD_TYPES),
    b',"pub_date":', _ints, b',"level":', _ints,
    b',"speed":', _fixed(2), b',"length":', _fixed(1), b',"delay":', _fixed(1), b"}\n",
)  # fmt: skip

_ALERT_LINE = (
    b'{"location_x":', _fixed(5), b',"location_y":', _fixed(5),
    b',"street":"', _table(STREETS), b'","city":"', _table(CITIES),
    b'","country":"US","road_type":', _table(ROAD_TYPES),
    b',"report_description":"', _table(DESCRIPTIONS), b'","type":"', _table(EVENT_TYPES),
    b'","pub_date":', _ints, b"}\n",
)  # fmt: skip


def _render(line: tuple, n: int, columns: tuple) -> bytes:
    """n lines laid out side by side in one (n, width) matrix, NULs dropped."""
    cols = iter(columns)
    blocks = [
        np.broadcast_to(np.frombuffer(seg, np.uint8), (n, len(seg)))
        if isinstance(seg, bytes)
        else seg(next(cols))
        for seg in line
    ]
    matrix = np.concatenate(blocks, axis=1)
    return matrix[matrix != 0].tobytes()


def _generate(config: GenConfig, sink: BinaryIO, n_rows: int, tag: int, line, columns) -> int:
    config.validate()
    seed = rng.derive_seed(config.seed, tag)
    written = 0
    while written < n_rows:
        n = min(_CHUNK, n_rows - written)
        sink.write(_render(line, n, columns(config, seed, written, n)))
        written += n
    return written


def generate_jams(config: GenConfig, sink: BinaryIO) -> int:
    """Write config.n_jams JSONL jam rows to a binary sink; returns row count."""
    return _generate(config, sink, config.n_jams, _TAG_JAMS, _JAM_LINE, _jam_columns)


def generate_alerts(config: GenConfig, sink: BinaryIO) -> int:
    """Write config.n_alerts JSONL alert rows to a binary sink; returns row count."""
    return _generate(config, sink, config.n_alerts, _TAG_ALERTS, _ALERT_LINE, _alert_columns)
