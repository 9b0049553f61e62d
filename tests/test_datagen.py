import hashlib
import json
import tracemalloc
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jamcast.datagen as dg
from helpers import column
from jamcast import rng
from jamcast.datagen import GenConfig, generate_alerts, generate_jams
from jamcast.errors import ValidationError
from jamcast.events import EVENT_TYPES
from jamcast.ingest import clean, parse_jams
from oracles import reference_alert_lines, reference_jam_lines

ALERT_KEYS = [
    "location_x",
    "location_y",
    "street",
    "city",
    "country",
    "road_type",
    "report_description",
    "type",
    "pub_date",
]


def _jam_bytes(**cfg) -> bytes:
    buf = BytesIO()
    generate_jams(GenConfig(**cfg), buf)
    return buf.getvalue()


def _alert_bytes(**cfg) -> bytes:
    buf = BytesIO()
    generate_alerts(GenConfig(**cfg), buf)
    return buf.getvalue()


def _alerts(data: bytes) -> list[dict]:
    """Every alert line decoded; each must be one object with exactly the documented keys."""
    alerts = [json.loads(line) for line in data.splitlines()]
    for alert in alerts:
        assert list(alert) == ALERT_KEYS
        assert alert["type"] in EVENT_TYPES
        assert type(alert["pub_date"]) is int and alert["pub_date"] > 0
    return alerts


def test_generator_output_is_pinned():
    """The corpus bytes of a fixed config; any change to either generator shows here."""
    config = GenConfig(n_jams=400, n_alerts=300, seed=2024)
    jams, alerts = BytesIO(), BytesIO()
    generate_jams(config, jams)
    generate_alerts(config, alerts)
    assert hashlib.sha256(jams.getvalue()).hexdigest() == (
        "82ab8102afd4b40e6da4b9547d328284dc35787fe7532e1414e70c912c2632a1"
    )
    assert hashlib.sha256(alerts.getvalue()).hexdigest() == (
        "4fe9e1045e97578cd4c518ab8742fd72bd68fef83a0e779f2dc5290cd8ca1eda"
    )


def test_noisy_generator_output_is_pinned():
    """The jam bytes at coupling_noise > 0, which draw rng.normals for every banded field."""
    buf = BytesIO()
    generate_jams(GenConfig(n_jams=400, seed=2024, coupling_noise=0.3), buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "a5b0c05f21b26fb04cc069ece24ee0105b82cff1fbb8b7b48c1f96312e0158c0"
    )


def test_seeded_determinism_bytes():
    a = _jam_bytes(n_jams=1000, seed=42)
    b = _jam_bytes(n_jams=1000, seed=42)
    assert a == b
    assert a != _jam_bytes(n_jams=1000, seed=43)
    assert _alert_bytes(n_alerts=500, seed=7) == _alert_bytes(n_alerts=500, seed=7)


def test_chunking_does_not_change_bytes(monkeypatch):
    import jamcast.datagen as dg

    full = _jam_bytes(n_jams=700, seed=3)
    monkeypatch.setattr(dg, "_CHUNK", 256)
    assert _jam_bytes(n_jams=700, seed=3) == full


def test_degenerate_weights_all_level_five():
    data = _jam_bytes(n_jams=300, seed=1, level_weights=(0, 0, 0, 0, 1))
    records, report = parse_jams(BytesIO(data))
    levels = column(records, "level")
    assert report.rows_rejected == 0
    assert set(levels) == {5}


def test_round_trip_zero_rejections():
    data = _jam_bytes(n_jams=5000, seed=9, coupling_noise=2.0)
    records, report = parse_jams(BytesIO(data))
    cleaned, creport = clean(records)
    n = sum(len(block) for block in cleaned)
    assert report.rows_rejected == 0
    assert creport.rows_rejected == 0
    assert n == 5000

    assert len(_alerts(_alert_bytes(n_alerts=2000, seed=9))) == 2000


def test_speed_decreases_with_level():
    data = _jam_bytes(n_jams=100_000, seed=11, level_weights=(0.2, 0.2, 0.2, 0.2, 0.2))
    records, _ = parse_jams(BytesIO(data))
    records = list(records)
    by_level = {lv: [] for lv in range(1, 6)}
    for level, speed in zip(column(records, "level"), column(records, "speed")):
        by_level[level].append(speed)
    means = {lv: np.mean(v) for lv, v in by_level.items() if v}
    assert means[5] < means[1]
    # monotone decreasing across all levels with disjoint noise-free bands
    assert all(means[lv + 1] < means[lv] for lv in range(1, 5))


def test_noise_free_bands_functionally_determine_level():
    # with coupling_noise=0 the speed bands are disjoint, so a speed value
    # can never appear under two different levels
    data = _jam_bytes(n_jams=20_000, seed=13)
    records, _ = parse_jams(BytesIO(data))
    records = list(records)
    level_of = {}
    for level, speed in zip(column(records, "level"), column(records, "speed")):
        assert level_of.setdefault(round(speed, 2), level) == level


def test_all_event_types_appear():
    alerts = _alerts(_alert_bytes(n_alerts=10_000, seed=5))
    assert {alert["type"] for alert in alerts} == set(EVENT_TYPES)


def test_empty_alert_stream():
    assert _alert_bytes(n_alerts=0, seed=1) == b""


def test_linear_size_scaling():
    small = len(_jam_bytes(n_jams=1000, seed=2))
    large = len(_jam_bytes(n_jams=4000, seed=2))
    per_row_small = small / 1000
    per_row_large = large / 4000
    assert abs(per_row_small - per_row_large) < 10  # constant per-row byte bound


def test_config_validation():
    with pytest.raises(ValidationError):
        GenConfig(n_jams=-1).validate()
    with pytest.raises(ValidationError):
        GenConfig(level_weights=(0, 0, 0, 0, 0)).validate()
    with pytest.raises(ValidationError):
        GenConfig(coupling_noise=-0.1).validate()
    with pytest.raises(ValidationError):
        GenConfig(date_window=(10, 5)).validate()


def test_positive_fraction_near_two_thirds():
    data = _jam_bytes(n_jams=50_000, seed=21)
    records, _ = parse_jams(BytesIO(data))
    labels = [level > 2 for level in column(records, "level")]
    frac = np.mean(labels)
    assert 0.60 < frac < 0.73


def _ulp_neighbours(values):
    out = []
    for v in values:
        out += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return out


# Floats where a fixed-point renderer is easiest to get wrong, and their
# negatives: exact binary ties at 1, 2 and 5 decimals (odd multiples of 1/4,
# 1/8 and 1/64) and their one-ulp neighbours, carries into the next digit,
# values that round to zero, the scale where |v| * 10**N reaches 2**52, the
# largest finite float, and non-finite values.
_TIES = [k / 64 for k in (1, 3, 5, 63, 65, 127, 6401)] + [k / 8 for k in (1, 3, 5, 79)]
_TIES += [k / 4 for k in (1, 3, 39, 4001)]
_CARRIES = [9.995, 99.995, 999.995, 9.95, 99.95, 0.99999, 0.999995, 9.999995, 0.005, 0.05]
_HUGE = [2.0**52 / 10**n for n in (1, 2, 5)] + [2.0**53, 1e17, 1e22, 1e300]
_ADVERSARIAL_FLOATS = [
    float(x)
    for v in _ulp_neighbours(_TIES + _CARRIES + _HUGE) + [0.0, 4e-6, 1e-9, 5e-324]
    for x in (v, -v)
] + [np.finfo(np.float64).max, np.inf, -np.inf, np.nan, -np.nan]
_ADVERSARIAL_INTS = [0, 9, 10, 2**63 - 1] + [x for k in range(2, 19) for x in (10**k - 1, 10**k)]

_FLOAT_COLUMNS = {"jam": (0, 1, 7, 8, 9), "alert": (0, 1)}
_TABLES = {
    "jam": {2: dg.STREETS, 3: dg.CITIES, 4: dg.ROAD_TYPES},
    "alert": {2: dg.STREETS, 3: dg.CITIES, 4: dg.ROAD_TYPES, 5: dg.DESCRIPTIONS, 6: EVENT_TYPES},
}
_LINES = {
    "jam": (dg._JAM_LINE, reference_jam_lines),
    "alert": (dg._ALERT_LINE, reference_alert_lines),
}


def _columns(kind, n, floats, ints, picks):
    """One chunk's columns: float, table and int columns drawn from the given callables."""
    line, _ = _LINES[kind]
    cols = []
    for j in range(sum(not isinstance(seg, bytes) for seg in line)):
        if j in _FLOAT_COLUMNS[kind]:
            cols.append(np.array(floats(j, n), dtype=np.float64))
        elif j in _TABLES[kind]:
            cols.append(np.array(picks(j, n, len(_TABLES[kind][j])), dtype=np.int64))
        else:
            cols.append(np.array(ints(j, n), dtype=np.int64))
    return tuple(cols)


def _assert_renders_as_oracle(kind, n, cols):
    line, oracle = _LINES[kind]
    assert dg._render(line, n, cols) == oracle(cols)


@pytest.mark.parametrize("kind", ["jam", "alert"])
def test_renderer_matches_oracle_on_adversarial_columns(kind):
    """Every adversarial value alone in a 1-row chunk, all of them in one chunk, and 0 rows."""
    floats, ints = _ADVERSARIAL_FLOATS, _ADVERSARIAL_INTS

    def cycle(values):
        return lambda j, n: [values[(i + 7 * j) % len(values)] for i in range(n)]

    def picks(j, n, size):
        return [(i * 5 + j) % size for i in range(n)]

    for n in (0, len(floats), len(ints)):
        _assert_renders_as_oracle(kind, n, _columns(kind, n, cycle(floats), cycle(ints), picks))
    for value in floats:
        _assert_renders_as_oracle(kind, 1, _columns(kind, 1, lambda j, n: [value], cycle(ints), picks))
    for value in ints:
        _assert_renders_as_oracle(kind, 1, _columns(kind, 1, cycle(floats), lambda j, n: [value], picks))


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(["jam", "alert"]), n=st.integers(0, 12), data=st.data())
def test_renderer_matches_oracle(kind, n, data):
    """Random chunks mixing adversarial values with arbitrary floats and ints."""
    float_st = st.one_of(st.sampled_from(_ADVERSARIAL_FLOATS), st.floats(width=64))
    int_st = st.one_of(st.sampled_from(_ADVERSARIAL_INTS), st.integers(0, 2**63 - 1))

    def floats(j, n):
        return data.draw(st.lists(float_st, min_size=n, max_size=n))

    def ints(j, n):
        return data.draw(st.lists(int_st, min_size=n, max_size=n))

    def picks(j, n, size):
        return data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))

    _assert_renders_as_oracle(kind, n, _columns(kind, n, floats, ints, picks))


@pytest.mark.parametrize("noise", [0.0, 0.3, 50.0, 1e308])
def test_generated_jams_match_the_oracle(noise):
    """Drawn columns through the oracle, across a chunk boundary; 1e308 overflows some to inf."""
    config = GenConfig(n_jams=5000, seed=17, coupling_noise=noise)
    seed = rng.derive_seed(config.seed, dg._TAG_JAMS)
    assert _jam_bytes(n_jams=5000, seed=17, coupling_noise=noise) == reference_jam_lines(
        dg._jam_columns(config, seed, 0, 5000)
    )


class _Discard:
    def write(self, data):
        return len(data)


def _generate_peak(n_jams: int) -> int:
    tracemalloc.start()
    try:
        generate_jams(GenConfig(n_jams=n_jams, seed=3), _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generator_peak_does_not_grow_with_rows():
    """One chunk's byte matrix, mask and bytes are all the generator holds."""
    small, large = _generate_peak(50_000), _generate_peak(200_000)
    assert large < small + 64 * 1024
    assert large < 6 * 2**20
