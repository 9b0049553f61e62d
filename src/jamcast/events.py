"""The jam label rule and the fixed-PST calendar decomposition, on numpy arrays.

Both are pure functions of a whole column. Pacific time is a fixed UTC-8
offset (no DST): the data window this pipeline models lies entirely inside
PST, and applying DST rules would change labels for no modelled benefit.
Documented as a limitation.
"""

from __future__ import annotations

import numpy as np

from jamcast.errors import ValidationError

EVENT_TYPES = ("road_closed", "jam", "accident", "hazard")

PACIFIC_OFFSET_SECONDS = 8 * 3600  # fixed PST, no DST

_DAY = 86400


def jam_labels(levels: np.ndarray) -> np.ndarray:
    """Jam labels: true iff the severity level exceeds 2.

    Levels run 1 (almost no jam) to 5 (standstill); a non-integer level or
    one outside that range is a hard validation error rather than a clamp,
    since a silently clamped level would corrupt the label.
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iu":
        raise ValidationError(f"levels must be integers, got dtype {levels.dtype}")
    if ((levels < 1) | (levels > 5)).any():
        raise ValidationError("jam level outside 1..5")
    return levels > 2


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
    Sub-second parts of each instant are truncated.
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
