from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamcast.errors import ValidationError
from jamcast.events import decompose_epoch_ms, jam_labels
from oracles import calendar_decompose

# window wide enough to cover leap years and century boundaries
_MS_RANGE = st.integers(min_value=1, max_value=4_102_444_800_000)  # ..2100
_MS_ARRAYS = st.lists(_MS_RANGE, min_size=1, max_size=50)
_CLOCK = ("hour", "min", "sec")


def _at(fields: dict, i: int) -> dict:
    """Row `i` of decomposed calendar fields, as plain ints."""
    return {key: int(col[i]) for key, col in fields.items()}


def _naive(row: dict) -> datetime:
    return datetime(row["year"], row["month"], row["day"], row["hour"], row["min"], row["sec"])


@pytest.mark.parametrize(
    "level,expected",
    [(3, True), (2, False), (1, False), (5, True), (4, True)],
)
def test_derive_label_rule(level, expected):
    assert jam_labels(np.array([level])).tolist() == [expected]


@pytest.mark.parametrize("bad", [0, 6, -1, 100])
def test_derive_label_out_of_range(bad):
    with pytest.raises(ValidationError):
        jam_labels(np.array([3, bad, 4]))


def test_derive_label_rejects_non_integers():
    with pytest.raises(ValidationError):
        jam_labels(np.array([2.5]))
    with pytest.raises(ValidationError):
        jam_labels(np.array([True]))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_derive_label_monotone(a, b):
    if a <= b:
        assert jam_labels(np.array([a]))[0] <= jam_labels(np.array([b]))[0]


def test_decompose_examples_against_calendar_oracle():
    fields = decompose_epoch_ms(np.array([1514793600000, 1514793599000, 1514707200000]))
    # 2018-01-01T08:00:00Z is midnight PST on new year's day, a Monday
    row = _at(fields, 0)
    assert _naive(row).isoformat() == "2018-01-01T00:00:00"
    assert row["weekday"] == 0

    # one second earlier crosses midnight westward, into a Sunday
    row = _at(fields, 1)
    assert (row["month"], row["day"], row["hour"], row["min"], row["sec"]) == (12, 31, 23, 59, 59)
    assert row["weekday"] == 6

    # 2017-12-31T08:00:00Z
    row = _at(fields, 2)
    assert _naive(row).isoformat() == "2017-12-31T00:00:00"
    assert row["weekday"] == 6


@settings(max_examples=300, deadline=None)
@given(_MS_ARRAYS)
def test_decompose_matches_datetime(ms):
    fields = decompose_epoch_ms(np.array(ms, dtype=np.int64))
    for i, m in enumerate(ms):
        row = _at(fields, i)
        ref = calendar_decompose(m)
        assert _naive(row) == ref["naive"]
        assert row == {key: ref[key] for key in row}


@settings(max_examples=100, deadline=None)
@given(_MS_ARRAYS)
def test_decompose_day_shift_keeps_clock_fields(ms):
    ms = np.array(ms, dtype=np.int64)
    a = decompose_epoch_ms(ms)
    b = decompose_epoch_ms(ms + 24 * 3600 * 1000)
    for key in _CLOCK:
        assert np.array_equal(a[key], b[key])
    assert np.array_equal(b["weekday"], (a["weekday"] + 1) % 7)


@settings(max_examples=100, deadline=None)
@given(_MS_ARRAYS)
def test_decompose_round_trip_to_the_second(ms):
    fields = decompose_epoch_ms(np.array(ms, dtype=np.int64))
    for i, m in enumerate(ms):
        utc = _naive(_at(fields, i)).replace(tzinfo=timezone.utc) + timedelta(hours=8)
        assert int(utc.timestamp()) == m // 1000


@settings(max_examples=100, deadline=None)
@given(_MS_ARRAYS)
def test_vectorized_matches_scalar(ms):
    """Each instant decomposes alone exactly as it does inside a whole array."""
    fields = decompose_epoch_ms(np.array(ms, dtype=np.int64))
    for i, m in enumerate(ms):
        assert _at(fields, i) == _at(decompose_epoch_ms(np.array([m])), 0)
