import hashlib
import json
from io import BytesIO

import numpy as np
import pytest

from helpers import column
from jamcast.datagen import GenConfig, generate_alerts, generate_jams
from jamcast.errors import ValidationError
from jamcast.events import EVENT_TYPES
from jamcast.ingest import clean, parse_jams

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
