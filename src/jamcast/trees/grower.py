"""Histogram-based best-first tree growth and its split mathematics.

The grower works entirely on quantized bin codes. Per-node statistics are
per-(feature, bin) sums of gradient, hessian and row count. Split finding
is one array pass over the whole node: prefix sums over every feature's
real bins give the left side of every bin boundary at once, the
regularized gain is scored at each boundary with the missing bin routed
both ways, and a single argmax keeps the best candidate under
deterministic tie-breaking (lowest feature, lowest bin, missing-left
first), which the C order of the scored array encodes. Growth is
best-first: the frontier node with the highest gain is expanded next,
which is what makes a global leaf budget (max_leaves) meaningful
alongside max_depth.

After a split only one child's histogram is built from its rows; the
sibling's is the parent's minus it. Which child is built depends on the
source's `exact_sums` flag. When every g, h and count sum of the tree is an
integer below 2**53 (rf: g = y * w and h = w with integer bootstrap
multiplicities), parent - child is exact either way, so the smaller child
is built, the cheaper one. Otherwise (gbt and xgb) the larger child is
built: there the order of the subtraction is part of the floating-point
result, and trees must not depend on which child is cheaper.

All accumulation orders and reduction shapes are fixed (see
jamcast.parallel), so grown trees never depend on scheduling.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from jamcast.errors import DegenerateNodeError, ValidationError

# ---------------------------------------------------------------------------
# logistic loss


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out if out.ndim else float(out)


def logistic_grad_hess(
    margin: np.ndarray | float, label: np.ndarray | bool
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Gradient and hessian of the log-loss w.r.t. the prediction margin.

    p = sigmoid(margin); g = p - label; h = p * (1 - p).
    """
    m = np.asarray(margin, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValidationError("margin must be finite")
    p = sigmoid(m)
    y = np.asarray(label, dtype=np.float64)
    g = p - y
    h = p * (1.0 - p)
    if np.ndim(margin) == 0 and np.ndim(label) == 0:
        return float(g), float(h)
    return g, h


def leaf_weight(g_sum: float, h_sum: float, lam: float) -> float:
    """Second-order optimal leaf value: -G / (H + lambda)."""
    denom = h_sum + lam
    if denom <= 0:
        raise DegenerateNodeError(f"H + lambda must be positive, got {denom}")
    return -g_sum / denom + 0.0  # normalize -0.0


# ---------------------------------------------------------------------------
# histograms


@dataclass
class GradHistogram:
    """Per-(feature, bin) sums: [..., 0] = gradient, [..., 1] = hessian, [..., 2] = count."""

    sums: np.ndarray  # (n_features, n_bins, 3) float64
    n_real_bins: np.ndarray  # per-feature real-bin counts (missing slot follows)

    def total(self) -> tuple[float, float, float]:
        """Node totals (G, H, count); every feature column carries the same totals."""
        with np.errstate(invalid="ignore"):  # inf and -inf total to NaN
            t = self.sums[0].sum(axis=0)
        return float(t[0]), float(t[1]), float(t[2])

    def subtract(self, other: "GradHistogram") -> "GradHistogram":
        return GradHistogram(sums=self.sums - other.sums, n_real_bins=self.n_real_bins)


# Rows per cache block of a histogram build: consecutive partitions share one
# bincount per column while their rows fit in it, so the block's intp codes
# and weights stay in L2. Measured on a 2-core host over 10 honest features,
# a 120k-row root build took 6.3 ms at 16,384 rows, 6.5 ms at 32,768 and
# 7.0 ms with no cap; a random 60k-row node 4.0, 4.1 and 4.4 ms.
HIST_BLOCK_ROWS = 16_384


def build_histograms(
    binned,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray | None,
    bounds: Sequence[int],
) -> np.ndarray:
    """Per-partition g/h/count histograms over exactly `rows` of a binned matrix.

    Returns an (n_parts, n_features, hist_bins, 3) array whose last axis is
    (gradient, hessian, count). `bounds` are ascending row edges
    b_0 <= ... <= b_P, and partition p sums the rows in [b_p, b_p+1).
    `rows` must be ascending and lie in [b_0, b_P). Every (partition, bin)
    slot accumulates its rows in that order, so the sums are
    bit-deterministic and the same as one build per partition.

    Block rule: consecutive partitions are built together while their rows
    fit in HIST_BLOCK_ROWS; a larger partition is a group of its own. A
    group is one bincount per column, with each row's code offset by its
    partition's place in the group times hist_bins. A group whose rows are
    one contiguous run reads codes and g/h by slice instead of by gather.

    `g` and `h` are per-row arrays over rows b_0..b_P, indexed by row - b_0.
    `h=None` is the unit hessian (h = 1 on every row): its column is then a
    copy of the count column, which is exactly what the weighted sum of
    ones would give.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cuts = np.searchsorted(rows, bounds).tolist()
    n_parts = len(cuts) - 1
    out = np.zeros((n_parts, binned.codes.shape[0], binned.hist_bins, 3), dtype=np.float64)
    p = 0
    while p < n_parts:
        q = p + 1
        while q < n_parts and cuts[q + 1] - cuts[p] <= HIST_BLOCK_ROWS:
            q += 1
        if cuts[q] > cuts[p]:
            group = rows[cuts[p] : cuts[q]]
            sizes = np.diff(cuts[p : q + 1])
            _accumulate_group(out[p:q], binned, group, sizes, g, h, bounds[0])
        p = q
    return out


def _accumulate_group(out, binned, rows, sizes, g, h, row_offset) -> None:
    """Fill the slots `out` of consecutive partitions holding `sizes` of `rows`.

    `g` and `h` are indexed by row - row_offset.
    """
    n_parts, n_features, n_bins, _ = out.shape
    first = int(rows[0])
    if int(rows[-1]) - first == rows.size - 1:  # a contiguous run
        sel = slice(first, first + rows.size)
        loc = slice(first - row_offset, first - row_offset + rows.size)
    else:
        sel = rows
        loc = rows - row_offset if row_offset else rows
    gr = g[loc]
    hr = None if h is None else h[loc]
    slot_base = None
    if n_parts > 1:
        slot_base = np.repeat(np.arange(0, n_parts * n_bins, n_bins, dtype=np.intp), sizes)
    n_slots, shape = n_parts * n_bins, (n_parts, n_bins)
    for j in range(n_features):
        # one up-front intp conversion instead of one inside each bincount
        cj = binned.codes[j][sel].astype(np.intp)
        if slot_base is not None:
            cj += slot_base
        out[:, j, :, 0] = np.bincount(cj, weights=gr, minlength=n_slots).reshape(shape)
        out[:, j, :, 2] = np.bincount(cj, minlength=n_slots).reshape(shape)
        if hr is None:
            out[:, j, :, 1] = out[:, j, :, 2]
        else:
            out[:, j, :, 1] = np.bincount(cj, weights=hr, minlength=n_slots).reshape(shape)


# ---------------------------------------------------------------------------
# split finding


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    bin_threshold: int
    gain: float
    left_sums: tuple[float, float, float]  # (G, H, count)
    right_sums: tuple[float, float, float]
    missing_goes_left: bool


def _boost_gain_scan(
    gl: np.ndarray, hl: np.ndarray, gp: float, hp: float, lam: float, gamma: float
) -> np.ndarray:
    gr = gp - gl
    hr = hp - hl
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - gp * gp / (hp + lam)) - gamma
    bad = (hl + lam <= 0) | (hr + lam <= 0)
    gains[bad] = -np.inf
    return gains


def _gini_gain_scan(
    gl: np.ndarray, hl: np.ndarray, gp: float, hp: float, lam: float, gamma: float
) -> np.ndarray:
    # weighted impurity decrease; G = positive weight, H = total weight
    gr = gp - gl
    hr = hp - hl
    dec = 2.0 * (gp * (hp - gp) / hp - gl * (hl - gl) / hl - gr * (hr - gr) / hr) - gamma
    bad = (hl <= 0) | (hr <= 0)
    dec[bad] = -np.inf
    return dec


def _positive_fraction(g_sum: float, h_sum: float, lam: float) -> float:
    """Gini leaf value: the weighted fraction of positive rows, G / H; lam is unused."""
    return g_sum / h_sum


class _Objective(NamedTuple):
    """An objective's two rules: how a split is scored and what value a leaf takes."""

    gain_scan: Callable[..., np.ndarray]  # (gl, hl, gp, hp, lam, gamma) -> gains
    leaf_value: Callable[[float, float, float], float]  # (G, H, lam) -> leaf value


# The scans divide by sums that may be 0 or tiny and may hold inf or NaN; they
# run under the errstate of their caller, which masks every such gain.
_OBJECTIVES = {
    "boost": _Objective(_boost_gain_scan, leaf_weight),
    "gini": _Objective(_gini_gain_scan, _positive_fraction),
}


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def find_best_split(
    hist: GradHistogram,
    parent: tuple[float, float, float],
    config,
    *,
    objective: str = "boost",
    allowed_features: np.ndarray | None = None,
) -> SplitCandidate | None:
    """Best positive-gain split over all bin boundaries and missing placements.

    One array pass scores every boundary of every allowed feature; at each
    boundary the missing bin is tried on both sides. A valid candidate must
    route at least one observed (non-missing) row to each side: the missing
    bin can tip a side but never constitute it, which keeps the candidate
    set a node-level property rather than an artifact of the global binning.
    Ties break to the first feature in `allowed_features` order (ascending
    feature index by default), then lowest bin, then missing-left (which
    also makes missing-left the default for nodes that saw no missing
    values). A feature with a NaN or +inf gain at any valid boundary is
    skipped whole, since that value would be its own maximum. Returns None
    when no candidate has positive gain and min_child_weight on both sides.
    """
    gp, hp, cp = parent
    feats = (
        np.arange(hist.sums.shape[0])
        if allowed_features is None
        else np.asarray(allowed_features, dtype=np.intp)
    )
    n_real = hist.n_real_bins[feats].astype(np.intp)
    splittable = n_real >= 2
    feats, n_real = feats[splittable], n_real[splittable]
    if not feats.size:
        return None
    sums = hist.sums[feats]
    # (G, H, count) planes of prefix sums over real bins; a prefix does not
    # depend on the bins after it
    cum = np.cumsum(sums[:, : int(n_real.max())].transpose(2, 0, 1), axis=2)
    n_cuts = n_real - 1  # boundary b sends bins 0..b left
    ends = np.cumsum(n_cuts)  # one past each feature's last boundary
    feature_rows = np.arange(feats.size)
    # valid boundaries in (feature, bin) order
    left = cum[:, np.arange(cum.shape[2]) < n_cuts[:, None]]
    # placement axis: 0 = missing goes left, 1 = missing goes right
    sides = np.empty(left.shape + (2,))
    sides[..., 0] = left + np.repeat(sums[feature_rows, n_real].T, n_cuts, axis=1)
    sides[..., 1] = left
    gl, hl, cl = sides
    gains = _OBJECTIVES[objective].gain_scan(gl, hl, gp, hp, config.lam, config.gamma)
    mcw = config.min_child_weight
    gains[(hl < mcw) | (hp - hl < mcw)] = -np.inf
    present_total = np.repeat(cum[2, feature_rows, n_real - 1], n_cuts)
    gains[(left[2] == 0) | (left[2] == present_total), :] = -np.inf
    unusable = ~(gains < np.inf)  # NaN or +inf
    if unusable.any():
        skip = np.logical_or.reduceat(unusable.any(axis=1), ends - n_cuts)
        gains[np.repeat(skip, n_cuts)] = -np.inf
    # C order is (feature, bin, placement): the first maximum is the tie-break
    flat = int(np.argmax(gains))
    cut, pl = divmod(flat, 2)
    gain = float(gains[cut, pl])
    if not gain > 0:
        return None
    i = int(np.searchsorted(ends, cut, side="right"))
    lg, lh, lc = float(gl[cut, pl]), float(hl[cut, pl]), float(cl[cut, pl])
    return SplitCandidate(
        feature=int(feats[i]),
        bin_threshold=int(cut - (ends[i] - n_cuts[i])),
        gain=gain,
        left_sums=(lg, lh, lc),
        right_sums=(gp - lg, hp - lh, cp - lc),
        missing_goes_left=(pl == 0),
    )


# ---------------------------------------------------------------------------
# trees


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    bin_threshold: int = -1
    threshold: float = math.nan  # raw-value threshold, edges[feature][bin_threshold]
    missing_goes_left: bool = True
    left: int = -1
    right: int = -1
    value: float = 0.0
    gain: float = math.nan  # split gain (internal nodes)

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class DecisionTree:
    """Axis-aligned binary tree; leaves carry margin contributions or class fractions."""

    nodes: list[TreeNode] = field(default_factory=list)

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def depth(self) -> int:
        if not self.nodes:
            return 0
        depths = {0: 0}
        out = 0
        for i, node in enumerate(self.nodes):
            d = depths[i]
            out = max(out, d)
            if not node.is_leaf:
                depths[node.left] = d + 1
                depths[node.right] = d + 1
        return out


def split_rows(
    rows: np.ndarray,
    codes: np.ndarray,
    bin_threshold: int,
    n_real_bins: int,
    missing_goes_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) rows of a split: the one routing rule of training and prediction.

    `codes` is the split feature's bin-code column, indexed by row. A row
    goes left when its code is at most `bin_threshold`, or when it is the
    missing bin, n_real_bins, and missing values go left.
    """
    c = codes[rows]
    go_left = c <= bin_threshold
    if missing_goes_left:
        go_left |= c == n_real_bins
    # compress, unlike a boolean index, does not slow down on a mask that
    # alternates at random (at 120k rows and half left: 0.23 ms against 1.2 ms)
    return np.compress(go_left, rows), np.compress(~go_left, rows)


class HistSource(Protocol):
    """Anything that can produce node histograms and apply split routing.

    `exact_sums` is True while every histogram sum of the current tree is an
    integer below 2**53, so that subtraction from the parent is exact.
    """

    exact_sums: bool

    def node_hist(self, node_id: int) -> GradHistogram: ...

    def expand(
        self,
        node_id: int,
        feature: int,
        bin_threshold: int,
        missing_goes_left: bool,
        left_id: int,
        right_id: int,
        build_id: int | None,
    ) -> GradHistogram | None: ...


@dataclass
class _NodeState:
    g: float
    h: float
    count: float
    depth: int


def grow_best_first(
    source: HistSource,
    config,
    edges: Sequence[np.ndarray],
    *,
    objective: str = "boost",
    feature_picker: Callable[[int], np.ndarray | None] | None = None,
) -> DecisionTree:
    """Grow one tree best-first from a histogram source (see module docstring).

    Root row set for node id 0 must already be installed in the source.
    Splits are scored and leaves valued by the rules of `objective`.
    """
    exact_sums = source.exact_sums
    nodes = [TreeNode()]
    root_hist = source.node_hist(0)
    g0, h0, c0 = root_hist.total()
    states = {0: _NodeState(g0, h0, c0, 0)}
    hists: dict[int, GradHistogram] = {0: root_hist}
    heap: list[tuple[float, int, SplitCandidate]] = []

    def expandable(node_id: int) -> bool:
        st = states[node_id]
        return (
            st.depth < config.max_depth
            and st.count >= 2
            and st.h >= 2 * config.min_child_weight
        )

    def consider(node_id: int) -> None:
        st = states[node_id]
        allowed = feature_picker(node_id) if feature_picker is not None else None
        cand = find_best_split(
            hists[node_id],
            (st.g, st.h, st.count),
            config,
            objective=objective,
            allowed_features=allowed,
        )
        if cand is None:
            del hists[node_id]
        else:
            heapq.heappush(heap, (-cand.gain, node_id, cand))

    if expandable(0):
        consider(0)
    n_leaves = 1
    while heap:
        if n_leaves + 1 > config.max_leaves:
            break
        _, nid, cand = heapq.heappop(heap)
        parent_state = states[nid]
        parent_hist = hists.pop(nid)
        left_id = len(nodes)
        right_id = left_id + 1
        nodes.append(TreeNode())
        nodes.append(TreeNode())
        nodes[nid] = TreeNode(
            feature=cand.feature,
            bin_threshold=cand.bin_threshold,
            threshold=float(edges[cand.feature][cand.bin_threshold]),
            missing_goes_left=cand.missing_goes_left,
            left=left_id,
            right=right_id,
            gain=cand.gain,
        )
        n_leaves += 1
        depth = parent_state.depth + 1
        states[left_id] = _NodeState(*cand.left_sums, depth)
        states[right_id] = _NodeState(*cand.right_sums, depth)
        need_left, need_right = expandable(left_id), expandable(right_id)
        built = derived = None
        if need_left and need_right:
            # build one child and derive the sibling by subtraction: the
            # smaller one where sums are exact, else the larger one, whose
            # order the floating-point results of gbt and xgb depend on
            n_left, n_right = states[left_id].count, states[right_id].count
            if (n_right < n_left) if exact_sums else (n_right > n_left):
                built, derived = right_id, left_id
            else:
                built, derived = left_id, right_id
        elif need_left:
            built = left_id
        elif need_right:
            built = right_id
        built_hist = source.expand(
            nid,
            cand.feature,
            cand.bin_threshold,
            cand.missing_goes_left,
            left_id,
            right_id,
            built,
        )
        if built is not None:
            hists[built] = built_hist
        if derived is not None:
            hists[derived] = parent_hist.subtract(built_hist)
        del parent_hist
        if need_left:
            consider(left_id)
        if need_right:
            consider(right_id)

    leaf_value = _OBJECTIVES[objective].leaf_value
    for nid, node in enumerate(nodes):
        if node.is_leaf:
            st = states[nid]
            node.value = leaf_value(st.g, st.h, config.lam)
    return DecisionTree(nodes=nodes)
