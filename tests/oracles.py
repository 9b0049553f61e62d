"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's code paths: calendar
arithmetic goes through datetime, AUC is the O(n^2) pairwise definition,
histogram sums are plain Python loops, split search over a histogram goes
one feature at a time, the exact-greedy tree enumerates splits over raw
(unquantized) values, and jam ingest goes one record at a time through
json.loads and scalar checks. Keeping these separate is what makes
agreement with the library meaningful.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from jamcast.events import decompose_epoch_ms
from jamcast.ingest import EncodingMap, FeatureMatrix, IngestReport
from jamcast.trees.grower import _GAIN_SCANS, SplitCandidate

PST = timezone(timedelta(hours=-8))


def calendar_decompose(pub_ms: int) -> dict:
    """Fixed UTC-8 calendar fields via datetime (independent of jamcast.events).

    Second granularity: sub-second parts of the instant are truncated, as in
    the library's decompose_epoch_ms.
    """
    dt = datetime.fromtimestamp(pub_ms // 1000, tz=timezone.utc).astimezone(PST)
    return {
        "year": dt.year,
        "month": dt.month,
        "day": dt.day,
        "hour": dt.hour,
        "min": dt.minute,
        "sec": dt.second,
        "weekday": dt.weekday(),  # Monday == 0
        "naive": dt.replace(tzinfo=None),
    }


def brute_auc(scores, labels) -> float:
    """All positive/negative pairs; ties count one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    pos = s[y]
    neg = s[~y]
    gt = (pos[:, None] > neg[None, :]).sum()
    eq = (pos[:, None] == neg[None, :]).sum()
    return float((gt + 0.5 * eq) / (pos.size * neg.size))


def naive_histogram(codes, rows, g, h, n_bins: int) -> np.ndarray:
    """Scalar accumulation loop over (feature, bin) cells."""
    n_features = codes.shape[0]
    out = np.zeros((n_features, n_bins, 3))
    for j in range(n_features):
        for r in rows:
            b = int(codes[j][r])
            out[j, b, 0] += g[r]
            out[j, b, 1] += h[r]
            out[j, b, 2] += 1
    return out


def logloss(margin: float, label: bool) -> float:
    p = 1.0 / (1.0 + math.exp(-margin))
    return -math.log(p) if label else -math.log(1.0 - p)


# ---------------------------------------------------------------------------
# per-feature histogram split search


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # NaN/inf gains are masked
def reference_find_best_split(hist, parent, config, *, objective="boost", allowed_features=None):
    """One feature at a time: the split search as a loop over features.

    It shares the library's gain formulas (`_GAIN_SCANS`, checked against
    `split_gain` on their own) so that agreement tests the search: which
    boundaries count, the masks, the skip rule and the tie-break. A feature
    is skipped when its first maximum is not a positive finite gain; a later
    feature replaces the best only with a strictly greater gain.
    """
    gp, hp, cp = parent
    scan = _GAIN_SCANS[objective]
    mcw = config.min_child_weight
    feats = (
        range(hist.sums.shape[0])
        if allowed_features is None
        else [int(f) for f in allowed_features]
    )
    best = None
    for f in feats:
        nb = int(hist.n_real_bins[f])
        if nb < 2:
            continue
        col = hist.sums[f]
        cum = np.cumsum(col[:nb], axis=0)  # over real bins
        gl0 = cum[: nb - 1, 0]
        hl0 = cum[: nb - 1, 1]
        cl0 = cum[: nb - 1, 2]
        gm, hm, cm = col[nb]  # missing slot
        # placement axis: 0 = missing goes left, 1 = missing goes right
        gl = np.stack([gl0 + gm, gl0], axis=1)
        hl = np.stack([hl0 + hm, hl0], axis=1)
        cl = np.stack([cl0 + cm, cl0], axis=1)
        gains = scan(gl, hl, gp, hp, config.lam, config.gamma)
        gains[(hl < mcw) | (hp - hl < mcw)] = -np.inf
        present_total = cum[nb - 1, 2]
        gains[(cl0 == 0) | (cl0 == present_total), :] = -np.inf
        flat = int(np.argmax(gains))
        b, pl = divmod(flat, 2)
        gain = float(gains[b, pl])
        if not gain > 0 or not math.isfinite(gain):
            continue
        if best is None or gain > best.gain:
            lg, lh, lc = float(gl[b, pl]), float(hl[b, pl]), float(cl[b, pl])
            best = SplitCandidate(
                feature=f,
                bin_threshold=int(b),
                gain=gain,
                left_sums=(lg, lh, lc),
                right_sums=(gp - lg, hp - lh, cp - lc),
                missing_goes_left=(pl == 0),
            )
    return best


# ---------------------------------------------------------------------------
# exact-greedy best-first reference tree


@dataclass
class OracleNode:
    feature: int = -1
    threshold: float = math.nan
    missing_left: bool = True
    left: int = -1
    right: int = -1
    value: float = 0.0
    gain: float = math.nan

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _best_exact_split(values, rows, g, h, lam, gamma, mcw):
    """Exhaustive scan over raw distinct values of every feature.

    Mirrors the library's stated tie-breaking: lowest feature, lowest
    threshold, missing-left first; gain must be positive.
    """
    gp = math.fsum(g[r] for r in rows)
    hp = math.fsum(h[r] for r in rows)
    best = None  # (gain, feature, threshold, missing_left, left_rows, right_rows)
    n_features = values.shape[1]
    for f in range(n_features):
        col = values[rows, f]
        present = [r for r in rows if not math.isnan(values[r, f])]
        missing = [r for r in rows if math.isnan(values[r, f])]
        if not present:
            continue
        distinct = sorted(set(values[r, f] for r in present))
        gm = math.fsum(g[r] for r in missing)
        hm = math.fsum(h[r] for r in missing)
        for thr in distinct[:-1]:
            base_left = [r for r in present if values[r, f] <= thr]
            base_right = [r for r in present if values[r, f] > thr]
            for miss_left in (True, False):
                gl = math.fsum(g[r] for r in base_left) + (gm if miss_left else 0.0)
                hl = math.fsum(h[r] for r in base_left) + (hm if miss_left else 0.0)
                gr = gp - gl
                hr = hp - hl
                if hl < mcw or hr < mcw:
                    continue
                if hl + lam <= 0 or hr + lam <= 0:
                    continue
                gain = 0.5 * (
                    gl * gl / (hl + lam) + gr * gr / (hr + lam) - gp * gp / (hp + lam)
                ) - gamma
                if gain <= 0:
                    continue
                if best is None or gain > best[0]:
                    left = base_left + (missing if miss_left else [])
                    right = base_right + ([] if miss_left else missing)
                    best = (gain, f, thr, miss_left, sorted(left), sorted(right))
    return best


def exact_greedy_tree(values, g, h, *, max_depth, max_leaves, lam=1.0, gamma=0.0, mcw=1.0):
    """Best-first exact-greedy reference: returns a list of OracleNode."""
    values = np.asarray(values, dtype=np.float64)
    rows0 = list(range(values.shape[0]))
    nodes = [OracleNode()]
    totals = {0: (math.fsum(g[r] for r in rows0), math.fsum(h[r] for r in rows0))}
    depths = {0: 0}
    rowsets = {0: rows0}
    heap = []

    def consider(nid):
        if depths[nid] >= max_depth:
            return
        if len(rowsets[nid]) < 2 or totals[nid][1] < 2 * mcw:
            return
        found = _best_exact_split(values, rowsets[nid], g, h, lam, gamma, mcw)
        if found is not None:
            heapq.heappush(heap, (-found[0], nid, found))

    consider(0)
    n_leaves = 1
    while heap:
        if n_leaves + 1 > max_leaves:
            break
        _, nid, (gain, f, thr, miss_left, left_rows, right_rows) = heapq.heappop(heap)
        lid, rid = len(nodes), len(nodes) + 1
        nodes.append(OracleNode())
        nodes.append(OracleNode())
        nodes[nid] = OracleNode(
            feature=f, threshold=thr, missing_left=miss_left, left=lid, right=rid, gain=gain
        )
        n_leaves += 1
        for cid, rws in ((lid, left_rows), (rid, right_rows)):
            rowsets[cid] = rws
            depths[cid] = depths[nid] + 1
            totals[cid] = (
                math.fsum(g[r] for r in rws),
                math.fsum(h[r] for r in rws),
            )
            consider(cid)
        del rowsets[nid]

    for nid, node in enumerate(nodes):
        if node.is_leaf:
            gsum, hsum = totals[nid]
            node.value = -gsum / (hsum + lam) + 0.0
    return nodes


# ---------------------------------------------------------------------------
# row-at-a-time jam ingest: the reference for the columnar block pipeline
#
# This is the row parser, clean and encode that jamcast ran before ingest
# became columnar, with three fixes applied: deep nesting is malformed JSON,
# an integer beyond float64 in a numeric field is a bad field type, and a
# pub_date of 2^63 or more is an invalid pub_date. One record per row, one
# check at a time.


@dataclass(frozen=True)
class JamRow:
    location_x: float
    location_y: float
    street: str
    city: str
    country: str
    road_type: float
    pub_date_utc: int
    level: int
    speed: float
    length: float
    delay: float


_REF_STRINGS = ("street", "city", "country")
_REF_NUMERICS = ("location_x", "location_y", "road_type", "speed", "length", "delay")


def _ref_as_float(value):
    if value is None:
        return float("nan"), None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0, "bad_field_type"
    try:
        return float(value), None
    except OverflowError:
        return 0.0, "bad_field_type"


def _ref_as_str(value):
    if value is None:
        return "", None
    if not isinstance(value, str):
        return "", "bad_field_type"
    return value, None


def _ref_parse_common(obj: dict):
    out: dict = {}
    for key in _REF_STRINGS + _REF_NUMERICS + ("pub_date",):
        if key not in obj:
            return {}, "missing_field"
    for key in _REF_STRINGS:
        out[key], err = _ref_as_str(obj[key])
        if err:
            return {}, err
    for key in _REF_NUMERICS:
        out[key], err = _ref_as_float(obj[key])
        if err:
            return {}, err
    pub = obj["pub_date"]
    if isinstance(pub, bool) or not isinstance(pub, int):
        return {}, "bad_field_type"
    if pub <= 0 or pub >= 2**63:
        return {}, "invalid_pub_date"
    out["pub_date_utc"] = pub
    return out, None


def reference_parse_jams(stream):
    """Every non-empty line through json.loads and the scalar checks; (rows, report)."""
    report = IngestReport()
    rows = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            report.reject("malformed_json")
            continue
        if not isinstance(obj, dict):
            report.reject("malformed_json")
            continue
        if "level" not in obj:
            report.reject("missing_field")
            continue
        level = obj["level"]
        if isinstance(level, bool) or not isinstance(level, int):
            report.reject("bad_field_type")
            continue
        if not 1 <= level <= 5:
            report.reject("level_out_of_range")
            continue
        common, err = _ref_parse_common(obj)
        if err:
            report.reject(err)
            continue
        report.rows_accepted += 1
        rows.append(JamRow(level=level, **common))
    return rows, report


def reference_clean(rows, window=None):
    report = IngestReport()
    kept = []
    for rec in rows:
        if rec.speed < 0:
            report.reject("negative_speed")
        elif rec.length < 0:
            report.reject("negative_length")
        elif rec.delay < 0:
            report.reject("negative_delay")
        elif rec.location_x == 0 and rec.location_y == 0:
            report.reject("null_island")
        elif window is not None and not window[0] <= rec.pub_date_utc < window[1]:
            report.reject("out_of_window")
        else:
            report.rows_accepted += 1
            kept.append(rec)
    return kept, report


def reference_encode(rows, schema):
    """Per-record getattr encoding with first-seen codes remapped lexicographically."""
    specs = schema.features
    n = len(rows)
    prov = {s.name: {} for s in specs if s.kind == "categorical"}
    values = np.empty((n, len(specs)), dtype=np.float64)
    pub = np.fromiter((r.pub_date_utc for r in rows), dtype=np.int64, count=n)
    time_fields = decompose_epoch_ms(pub)
    for j, spec in enumerate(specs):
        if spec.kind == "categorical":
            for i, rec in enumerate(rows):
                mapping = prov[spec.name]
                values[i, j] = mapping.setdefault(getattr(rec, spec.source), len(mapping))
        elif spec.source.startswith("time."):
            values[:, j] = time_fields[spec.source.split(".", 1)[1]]
        else:
            values[:, j] = np.fromiter(
                (getattr(r, spec.source) for r in rows), dtype=np.float64, count=n
            )
    labels = np.array([r.level > 2 for r in rows], dtype=bool)
    final = {name: {c: i + 1 for i, c in enumerate(sorted(m))} for name, m in prov.items()}
    for j, spec in enumerate(specs):
        mapping = prov.get(spec.name)
        if mapping:
            lut = np.zeros(len(mapping), dtype=np.float64)
            for cat, p in mapping.items():
                lut[p] = final[spec.name][cat]
            values[:, j] = lut[values[:, j].astype(np.int64)]
    matrix = FeatureMatrix(values=values, labels=labels, schema=schema)
    return matrix, EncodingMap(by_feature=final)
