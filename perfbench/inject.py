"""Seeded defect injection for benchmark corpora.

A clean generated jam corpus gets a small share of defective lines, one kind
per rejection reason that `jamcast ingest` knows for jams, plus a few blank
lines (which are not rows). The plan is drawn from the workload seed before
any line is read, and it is the only source of the expected ingest counts:
the benchmark never takes them from the program's own report.

Malformed JSON stays rare, as in a real feed; each other reason gets the
same share. At any corpus size every reason occurs at least once, so the
reject path of every check stays inside the measured work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PARSE_REASONS = (
    "malformed_json",
    "missing_field",
    "bad_field_type",
    "level_out_of_range",
    "invalid_pub_date",
)
CLEAN_REASONS = ("negative_speed", "negative_length", "negative_delay", "null_island")
REASONS = PARSE_REASONS + CLEAN_REASONS

# share of generated lines made defective, per reason (about 2% in total)
SHARES = {reason: 0.0025 for reason in REASONS}
SHARES["malformed_json"] = 0.0005
BLANK_SHARE = 0.0005

JAM_FIELDS = (
    "location_x",
    "location_y",
    "street",
    "city",
    "country",
    "road_type",
    "pub_date",
    "level",
    "speed",
    "length",
    "delay",
)

_SEED_TAG = 0x44454654  # "DEFT": keeps this stream apart from the generator's


@dataclass(frozen=True)
class InjectionPlan:
    """Which generated line gets which defect, and where blank lines go."""

    n_lines: int
    defects: dict[int, str]  # generated-line index -> rejection reason
    blank_before: tuple[int, ...]  # a blank line is written before each of these lines

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(REASONS, 0)
        for reason in self.defects.values():
            out[reason] += 1
        return out

    @property
    def rows_accepted(self) -> int:
        return self.n_lines - len(self.defects)

    @property
    def nonempty_lines(self) -> int:
        return self.n_lines


def make_plan(n_lines: int, seed: int) -> InjectionPlan:
    """Draw the injection plan for a corpus of n_lines generated jams."""
    rng = np.random.default_rng([seed, _SEED_TAG])
    per_reason = {r: max(1, round(SHARES[r] * n_lines)) for r in REASONS}
    n_defects = sum(per_reason.values())
    if n_defects > n_lines:
        raise ValueError(f"corpus of {n_lines} lines is too small for {n_defects} defects")
    picked = rng.choice(n_lines, size=n_defects, replace=False)
    reasons = [r for r in REASONS for _ in range(per_reason[r])]
    defects = {int(i): r for i, r in zip(picked, reasons)}
    n_blank = max(1, round(BLANK_SHARE * n_lines))
    blank_before = tuple(sorted(int(i) for i in rng.choice(n_lines, n_blank, replace=False)))
    return InjectionPlan(n_lines=n_lines, defects=defects, blank_before=blank_before)


def _mutate(line: bytes, reason: str, rng: np.random.Generator) -> bytes:
    """Turn one valid generated jam line into a line rejected for `reason`."""
    if reason == "malformed_json":
        return line[: len(line) // 2]  # a cut object never parses
    obj = json.loads(line)
    if reason == "missing_field":
        del obj[JAM_FIELDS[rng.integers(len(JAM_FIELDS))]]
    elif reason == "bad_field_type":
        variant = int(rng.integers(4))
        if variant == 0:
            obj["level"] = str(obj["level"])
        elif variant == 1:
            obj["speed"] = f"{obj['speed']} km/h"
        elif variant == 2:
            obj["street"] = 17
        else:
            obj["pub_date"] = obj["pub_date"] / 1000.0
    elif reason == "level_out_of_range":
        obj["level"] = int(rng.choice([0, 6, 9, -1]))
    elif reason == "invalid_pub_date":
        obj["pub_date"] = int(rng.choice([0, -obj["pub_date"]]))
    elif reason == "negative_speed":
        obj["speed"] = -(obj["speed"] + 0.5)
    elif reason == "negative_length":
        obj["length"] = -(obj["length"] + 1.0)
    elif reason == "negative_delay":
        obj["delay"] = -(obj["delay"] + 1.0)
    elif reason == "null_island":
        obj["location_x"] = 0
        obj["location_y"] = 0
    else:
        raise ValueError(f"unknown rejection reason {reason!r}")
    return json.dumps(obj, separators=(",", ":")).encode()


def apply_plan(corpus: bytes, plan: InjectionPlan, seed: int) -> bytes:
    """Return the corpus with the plan's defects and blank lines written in."""
    lines = corpus.splitlines()
    if len(lines) != plan.n_lines:
        raise ValueError(f"plan is for {plan.n_lines} lines, corpus has {len(lines)}")
    rng = np.random.default_rng([seed, _SEED_TAG, 1])
    for index in sorted(plan.defects):
        lines[index] = _mutate(lines[index], plan.defects[index], rng)
    for offset, index in enumerate(plan.blank_before):
        lines.insert(index + offset, b"")
    return b"\n".join(lines) + b"\n"
