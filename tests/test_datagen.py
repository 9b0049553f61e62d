from io import BytesIO

import numpy as np
import pytest

from conftest import column
from jamcast.datagen import GenConfig, generate_alerts, generate_jams
from jamcast.errors import ValidationError
from jamcast.events import EVENT_TYPES
from jamcast.ingest import clean, parse_alerts, parse_jams


def _jam_bytes(**cfg) -> bytes:
    buf = BytesIO()
    generate_jams(GenConfig(**cfg), buf)
    return buf.getvalue()


def _alert_bytes(**cfg) -> bytes:
    buf = BytesIO()
    generate_alerts(GenConfig(**cfg), buf)
    return buf.getvalue()


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

    alerts = _alert_bytes(n_alerts=2000, seed=9)
    arecords, areport = parse_alerts(BytesIO(alerts))
    assert sum(1 for _ in arecords) == 2000
    assert areport.rows_rejected == 0


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
    data = _alert_bytes(n_alerts=10_000, seed=5)
    records, _ = parse_alerts(BytesIO(data))
    seen = {r.event_type for r in records}
    assert seen == set(EVENT_TYPES)


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
