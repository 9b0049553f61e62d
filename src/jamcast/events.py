"""Domain types for traffic events and the pure label/calendar derivations.

Everything here is a pure function on immutable values. Pacific time is a
fixed UTC-8 offset (no DST): the data window this pipeline models lies
entirely inside PST, and applying DST rules would change labels for no
modelled benefit. Documented as a limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum

import numpy as np

from jamcast.errors import ValidationError

EVENT_TYPES = ("road_closed", "jam", "accident", "hazard")

PACIFIC_OFFSET_SECONDS = 8 * 3600  # fixed PST, no DST

_DAY = 86400


class Weekday(IntEnum):
    MONDAY = 0
    TUESDAY = 1
    WEDNESDAY = 2
    THURSDAY = 3
    FRIDAY = 4
    SATURDAY = 5
    SUNDAY = 6


@dataclass(frozen=True, slots=True)
class AlertRecord:
    """User-reported traffic event (accident, jam, hazard, road closure)."""

    location_x: float
    location_y: float
    street: str
    city: str
    country: str
    road_type: float
    report_description: str
    event_type: str
    pub_date_utc: int


@dataclass(frozen=True, slots=True)
class TimeParts:
    """Calendar decomposition of a publication instant in fixed-offset Pacific time."""

    date_pst: datetime
    month: int
    day: int
    hour: int
    min: int
    sec: int
    weekday: Weekday


def derive_label(level: int) -> bool:
    """Jam label: true iff severity level exceeds 2.

    Levels run 1 (almost no jam) to 5 (standstill); anything else is a hard
    validation error rather than a clamp, since a silently clamped level
    would corrupt the label.
    """
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ValidationError(f"level must be an integer, got {level!r}")
    if not 1 <= level <= 5:
        raise ValidationError(f"level must be in 1..5, got {level}")
    return level > 2


def _civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gregorian (year, month, day) from days since 1970-01-01, vectorized."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = np.where(mp < 10, mp + 3, mp - 9)
    y = y + (m <= 2)
    return y, m, d


def decompose_epoch_ms(pub_date_utc: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized calendar fields (fixed PST) for an int64 epoch-ms array.

    Returns year/month/day/hour/min/sec/weekday arrays; weekday is 0=Monday.
    """
    ms = np.asarray(pub_date_utc, dtype=np.int64)
    pst = ms // 1000 - PACIFIC_OFFSET_SECONDS
    days = pst // _DAY
    sod = pst - days * _DAY
    year, month, day = _civil_from_days(days)
    return {
        "year": year,
        "month": month,
        "day": day,
        "hour": sod // 3600,
        "min": (sod // 60) % 60,
        "sec": sod % 60,
        "weekday": (days + 3) % 7,  # 1970-01-01 was a Thursday
    }


def decompose_time(pub_date_utc: int) -> TimeParts:
    """Decompose a UTC epoch-ms instant into fixed-PST calendar parts."""
    if pub_date_utc <= 0:
        raise ValidationError(f"pub_date_utc must be positive, got {pub_date_utc}")
    f = decompose_epoch_ms(np.array([pub_date_utc], dtype=np.int64))
    year, month, day = int(f["year"][0]), int(f["month"][0]), int(f["day"][0])
    hour, minute, sec = int(f["hour"][0]), int(f["min"][0]), int(f["sec"][0])
    return TimeParts(
        date_pst=datetime(year, month, day, hour, minute, sec),
        month=month,
        day=day,
        hour=hour,
        min=minute,
        sec=sec,
        weekday=Weekday(int(f["weekday"][0])),
    )
