import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamcast.errors import DegenerateNodeError, ValidationError
from jamcast.parallel import N_HIST_PARTS, partition_rows, reduce_histograms
from jamcast.trees import grower
from jamcast.trees.binning import quantize
from jamcast.trees.grower import (
    GradHistogram,
    build_histograms,
    find_best_split,
    leaf_weight,
    logistic_grad_hess,
    sigmoid,
)
from jamcast.trees.training import TrainConfig
from helpers import grow_tree
from oracles import (
    exact_greedy_tree,
    logloss,
    naive_histogram,
    per_partition_histograms,
    reference_find_best_split,
    split_gain,
)


# ---------------------------------------------------------------------------
# logistic loss


def test_grad_hess_at_zero_margin():
    assert logistic_grad_hess(0.0, True) == (-0.5, 0.25)
    assert logistic_grad_hess(0.0, False) == (0.5, 0.25)


def test_grad_hess_extreme_margin_against_high_precision():
    g, h = logistic_grad_hess(20.0, True)
    # independent algebraic route: p - 1 = -e^-m / (1 + e^-m)
    e = math.exp(-20.0)
    assert g == pytest.approx(-e / (1.0 + e), rel=1e-12)
    assert g == pytest.approx(-2.0611536e-09, rel=1e-6)
    assert h == pytest.approx(2.0611536e-09, rel=1e-6)


def test_grad_hess_rejects_non_finite():
    with pytest.raises(ValidationError):
        logistic_grad_hess(float("inf"), True)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10, max_value=10), st.booleans())
def test_grad_matches_finite_differences(margin, label):
    g, h = logistic_grad_hess(margin, label)
    eps = 1e-5
    g_fd = (logloss(margin + eps, label) - logloss(margin - eps, label)) / (2 * eps)
    g1, _ = logistic_grad_hess(margin + eps, label)
    g0, _ = logistic_grad_hess(margin - eps, label)
    h_fd = (g1 - g0) / (2 * eps)
    assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-9)
    assert h == pytest.approx(h_fd, rel=1e-6, abs=1e-9)


def test_sigmoid_stability():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(0.0) == 0.5


# ---------------------------------------------------------------------------
# leaf weight and split gain


def test_leaf_weight_examples():
    assert leaf_weight(0.0, 3.0, 1.0) == 0.0
    assert leaf_weight(-2.0, 3.0, 1.0) == 0.5
    assert leaf_weight(1.0, 2.0, 0.0) == -0.5


def test_leaf_weight_degenerate():
    with pytest.raises(DegenerateNodeError):
        leaf_weight(1.0, 0.0, 0.0)


def test_split_gain_examples():
    assert split_gain((-2, 2), (2, 2), 0.0, 0.0) == 2.0
    assert split_gain((0, 1), (0, 1), 0.0, 0.0) == 0.0
    assert split_gain((-2, 2), (2, 2), 0.0, 3.0) == -1.0


def test_split_gain_degenerate():
    with pytest.raises(DegenerateNodeError):
        split_gain((1, 0), (1, 1), 0.0, 0.0)


# ---------------------------------------------------------------------------
# histograms


def _hist(binned, rows, g, h, row_offset=0) -> GradHistogram:
    """One node's histogram: a single partition over rows row_offset.. of the matrix."""
    (sums,) = build_histograms(binned, rows, g, h, (row_offset, binned.n_rows))
    return GradHistogram(sums=sums, n_real_bins=binned.n_real_bins)


def _hist_config(**kw):
    defaults = dict(max_depth=3, max_leaves=16, lam=0.0, gamma=0.0, min_child_weight=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_histogram_empty_rows():
    binned = quantize(np.arange(8, dtype=float).reshape(-1, 2), max_bins=8)
    g = np.ones(4)
    h = np.ones(4)
    hist = _hist(binned, np.array([], dtype=np.int64), g, h)
    assert hist.sums.sum() == 0.0


def test_histogram_single_row():
    binned = quantize(np.arange(8, dtype=float).reshape(-1, 2), max_bins=8)
    g = np.arange(4, dtype=float)
    h = np.ones(4)
    hist = _hist(binned, np.array([2]), g, h)
    for j in range(2):
        nonzero = np.nonzero(hist.sums[j, :, 2])[0]
        assert nonzero.size == 1
    assert hist.total() == (2.0, 1.0, 1.0)


def test_histogram_matches_naive_loop(rng):
    values = rng.standard_normal((50, 3))
    values[rng.random((50, 3)) < 0.1] = np.nan
    binned = quantize(values, max_bins=8)
    g = rng.standard_normal(50)
    h = rng.random(50)
    rows = np.sort(rng.choice(50, size=30, replace=False))
    hist = _hist(binned, rows, g, h)
    ref = naive_histogram(binned.codes, rows, g, h, binned.hist_bins)
    np.testing.assert_allclose(hist.sums, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_rows", [0, 1, 37, 50])
@pytest.mark.parametrize("row_offset", [0, 10])
def test_unit_hessian_histogram_equals_the_ones_weighted_build(rng, n_rows, row_offset):
    values = rng.standard_normal((60, 3))
    values[rng.random((60, 3)) < 0.1] = np.nan
    binned = quantize(values, max_bins=8)
    g = rng.standard_normal(60 - row_offset)
    rows = np.sort(rng.choice(np.arange(row_offset, 60), size=n_rows, replace=False))
    unit = _hist(binned, rows, g, None, row_offset=row_offset)
    ones = _hist(binned, rows, g, np.ones_like(g), row_offset=row_offset)
    assert np.array_equal(unit.sums, ones.sums)


def test_histogram_child_sums_equal_parent_exactly():
    # exact arithmetic: g in multiples of 0.5, h in multiples of 0.25
    rng = np.random.default_rng(7)
    values = rng.integers(0, 10, size=(64, 2)).astype(float)
    binned = quantize(values, max_bins=16)
    g = rng.integers(-4, 5, size=64) * 0.5
    h = np.full(64, 0.25)
    rows = np.arange(64)
    parent = _hist(binned, rows, g, h)
    mask = binned.codes[0][rows] <= 3
    left = _hist(binned, rows[mask], g, h)
    right = _hist(binned, rows[~mask], g, h)
    assert np.array_equal(left.sums + right.sums, parent.sums)
    # the subtraction trick is exact here too
    assert np.array_equal(parent.subtract(left).sums, right.sums)


_ANY_G = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, -1.25, math.inf, -math.inf, math.nan]),
)


@st.composite
def _partitioned_node(draw):
    """A node's rows within a run of the fixed partitions, as one engine state holds them.

    The run is all N_HIST_PARTS partitions (the inline engine) or any
    contiguous part of them (a pool worker). The rows are the whole run
    (every group read by slice), a subset of one partition, or any subset.
    """
    n_rows = draw(st.integers(1, 60))  # below 8 rows some partitions are empty
    n_features = draw(st.integers(1, 3))
    cells = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, math.nan])
    values = np.array(
        draw(st.lists(cells, min_size=n_rows * n_features, max_size=n_rows * n_features))
    ).reshape(n_rows, n_features)
    binned = quantize(values, max_bins=4)
    edges = [lo for lo, _ in partition_rows(n_rows, N_HIST_PARTS)] + [n_rows]
    first = draw(st.integers(0, N_HIST_PARTS - 1))
    last = draw(st.integers(first + 1, N_HIST_PARTS))
    bounds = edges[first : last + 1]
    lo, hi = bounds[0], bounds[-1]
    mode = draw(st.sampled_from(["whole run", "one partition", "any subset"]))
    if mode == "one partition":
        p = draw(st.integers(first, last - 1))
        lo, hi = edges[p], edges[p + 1]
    candidates = np.arange(lo, hi, dtype=np.int64)
    rows = candidates
    if mode != "whole run":
        keep = draw(st.lists(st.booleans(), min_size=candidates.size, max_size=candidates.size))
        rows = candidates[np.array(keep, dtype=bool)]
    n_local = bounds[-1] - bounds[0]
    g = np.array(draw(st.lists(_ANY_G, min_size=n_local, max_size=n_local)))
    h = None
    if draw(st.booleans()):
        h = np.array(draw(st.lists(_ANY_G, min_size=n_local, max_size=n_local)))
    return binned, rows, g, h, bounds


@settings(max_examples=300, deadline=None)
@given(_partitioned_node(), st.sampled_from([1, 5, 1 << 62]))  # one row, middle, unbounded
def test_blocked_histograms_match_the_per_partition_builds(node, block):
    """Grouping partitions into blocks changes no bit of any partition's sums."""
    binned, rows, g, h, bounds = node
    with mock.patch.object(grower, "HIST_BLOCK_ROWS", block):
        sums = build_histograms(binned, rows, g, h, bounds)
    expected = per_partition_histograms(binned, rows, g, h, bounds)
    assert sums.shape == expected.shape
    assert sums.tobytes() == expected.tobytes()
    with np.errstate(invalid="ignore"):  # inf and -inf sum to NaN
        reduced = reduce_histograms(sums)
        reference = reduce_histograms(expected)
    assert reduced.tobytes() == reference.tobytes()


@settings(max_examples=100, deadline=None)
@given(_partitioned_node(), st.sampled_from([1, 5, 1 << 62]))
def test_histograms_built_into_a_used_block_overwrite_every_slot(node, block):
    """The engine reuses one block per state: a build leaves nothing of the one before."""
    binned, rows, g, h, bounds = node
    out = np.full((len(bounds) - 1, binned.n_features, binned.hist_bins, 3), 7.25)
    with mock.patch.object(grower, "HIST_BLOCK_ROWS", block):
        assert build_histograms(binned, rows, g, h, bounds, out=out) is out
    assert out.tobytes() == per_partition_histograms(binned, rows, g, h, bounds).tobytes()


# ---------------------------------------------------------------------------
# split finding


def test_find_best_split_none_when_identical():
    values = np.full((10, 2), 3.0)
    binned = quantize(values, max_bins=8)
    g = np.ones(10)
    h = np.ones(10)
    hist = _hist(binned, np.arange(10), g, h)
    assert find_best_split(hist, hist.total(), _hist_config()) is None


def test_find_best_split_perfect_separation():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    binned = quantize(values, max_bins=8)
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    h = np.full(4, 0.25)
    hist = _hist(binned, np.arange(4), g, h)
    cand = find_best_split(hist, hist.total(), _hist_config())
    assert cand is not None
    assert cand.feature == 0
    # boundary between 2 and 3: bin_threshold 1 means "value <= 2 goes left"
    assert cand.bin_threshold == 1
    assert cand.left_sums == (-1.0, 0.5, 2.0)
    assert cand.right_sums == (1.0, 0.5, 2.0)
    # exhaustive check: this boundary maximizes the gain over all boundaries
    best = max(
        split_gain(
            (g[: i + 1].sum(), h[: i + 1].sum()), (g[i + 1 :].sum(), h[i + 1 :].sum()), 0.0, 0.0
        )
        for i in range(3)
    )
    assert cand.gain == pytest.approx(best, abs=1e-12)


def test_find_best_split_tie_breaks_to_lowest_feature():
    # two identical features produce exactly equal gains; feature 0 must win
    col = np.array([1.0, 1.0, 2.0, 2.0])
    values = np.stack([col, col], axis=1)
    binned = quantize(values, max_bins=8)
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    h = np.full(4, 0.25)
    hist = _hist(binned, np.arange(4), g, h)
    cand = find_best_split(hist, hist.total(), _hist_config())
    assert cand.feature == 0
    assert cand.missing_goes_left is True  # no missing rows: default left


def test_find_best_split_respects_min_child_weight():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    binned = quantize(values, max_bins=8)
    g = np.array([-1.0, 0.5, 0.5, 0.5])
    h = np.ones(4)
    hist = _hist(binned, np.arange(4), g, h)
    cand = find_best_split(hist, hist.total(), _hist_config(min_child_weight=2.0))
    assert cand is not None
    assert cand.left_sums[1] >= 2.0 and cand.right_sums[1] >= 2.0


def test_find_best_split_routes_missing_both_ways():
    values = np.array([[1.0], [2.0], [np.nan], [np.nan]])
    binned = quantize(values, max_bins=8)
    # missing rows carry positive gradient: better routed right with the 2.0 row
    g = np.array([-1.0, 1.0, 1.0, 1.0])
    h = np.ones(4)
    hist = _hist(binned, np.arange(4), g, h)
    cand = find_best_split(hist, hist.total(), _hist_config())
    assert cand is not None
    assert cand.missing_goes_left is False


def test_find_best_split_allowed_features():
    values = np.stack(
        [np.array([1.0, 1.0, 2.0, 2.0]), np.array([1.0, 2.0, 1.0, 2.0])], axis=1
    )
    binned = quantize(values, max_bins=8)
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    h = np.full(4, 0.25)
    hist = _hist(binned, np.arange(4), g, h)
    cand = find_best_split(
        hist, hist.total(), _hist_config(), allowed_features=np.array([1])
    )
    assert cand is None or cand.feature == 1


_SPECIAL_G = (1e200, -1e200, math.inf, -math.inf)  # overflow to +inf gains, or NaN
_SPECIAL_H = (1e-310, math.inf)  # 4 / 1e-310 overflows


@st.composite
def _split_search_inputs(draw):
    """A node histogram built from random rows, with its parent sums and a config.

    Features may repeat an earlier feature's codes (exact gain ties), bins may
    stay empty, codes equal to n_real_bins land in the missing slot, and an
    optional few rows carry huge, infinite or tiny values so that some
    boundaries score NaN or +inf.
    """
    n_features = draw(st.integers(1, 5))
    max_real = draw(st.integers(1, 8))
    n_real = []
    for f in range(n_features):
        if f and draw(st.booleans()):
            n_real.append(n_real[draw(st.integers(0, f - 1))])
        else:
            n_real.append(draw(st.integers(1, max_real)))
    n_rows = draw(st.integers(0, 24))
    g = np.array(draw(st.lists(st.integers(-4, 4), min_size=n_rows, max_size=n_rows))) * 0.5
    h = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]), min_size=n_rows, max_size=n_rows))
    )
    if n_rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            r = draw(st.integers(0, n_rows - 1))
            if draw(st.booleans()):
                g[r] = draw(st.sampled_from(_SPECIAL_G))
            else:
                h[r] = draw(st.sampled_from(_SPECIAL_H))
    codes = []
    for f, nb in enumerate(n_real):
        twin = draw(st.integers(0, f - 1)) if f and draw(st.booleans()) else None
        if twin is not None and n_real[twin] == nb:
            codes.append(codes[twin])
        else:
            codes.append(
                np.array(draw(st.lists(st.integers(0, nb), min_size=n_rows, max_size=n_rows)))
            )
    sums = np.zeros((n_features, max(n_real) + 1, 3))
    with np.errstate(invalid="ignore"):  # a bin may sum inf and -inf to NaN
        for f in range(n_features):
            for r in range(n_rows):
                sums[f, codes[f][r]] += (g[r], h[r], 1.0)
    hist = GradHistogram(sums=sums, n_real_bins=np.array(n_real))
    allowed = draw(
        st.none()
        | st.lists(st.integers(0, n_features - 1), unique=True).map(np.array)
    )
    config = _hist_config(
        lam=draw(st.sampled_from([0.0, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.0, 0.1, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])),
    )
    return hist, config, allowed, draw(st.sampled_from(["boost", "gini"]))


def _first_feature_scores_inf():
    """Feature 0's only boundary isolates a row with H ~ 1e-310 (gain +inf); feature 1 splits."""
    sums = np.array(
        [
            [[2.0, 1e-310, 1.0], [-1.0, 2.0, 2.0], [0.0, 0.0, 0.0]],
            [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
        ]
    )
    hist = GradHistogram(sums=sums, n_real_bins=np.array([2, 2]))
    return hist, _hist_config(), None, "boost"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no floating-point warning leaks
@settings(max_examples=400, deadline=None)
@given(_split_search_inputs())
@example(_first_feature_scores_inf())
def test_find_best_split_matches_the_per_feature_loop(case):
    hist, config, allowed, objective = case

    def outcome(search):
        try:
            found = search(
                hist, hist.total(), config, objective=objective, allowed_features=allowed
            )
        except ZeroDivisionError as exc:  # a parent with H + lambda == 0
            return type(exc)
        # repr compares a NaN sum equal to itself, and a float's repr is exact
        return repr(found)

    assert outcome(find_best_split) == outcome(reference_find_best_split)


# ---------------------------------------------------------------------------
# grow_tree


def test_grow_tree_zero_gradients_single_leaf():
    values = np.arange(20, dtype=float).reshape(-1, 2)
    binned = quantize(values, max_bins=16)
    g = np.zeros(10)
    h = np.full(10, 0.25)
    tree = grow_tree(binned, g, h, _hist_config())
    assert len(tree.nodes) == 1
    assert tree.nodes[0].is_leaf
    assert tree.nodes[0].value == 0.0


def test_grow_tree_depth_one_is_stump():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 8, size=(40, 3)).astype(float)
    binned = quantize(values, max_bins=16)
    g = rng.integers(-2, 3, size=40) * 0.5
    h = np.full(40, 0.25)
    tree = grow_tree(binned, g, h, _hist_config(max_depth=1))
    internal = [n for n in tree.nodes if not n.is_leaf]
    assert len(internal) <= 1
    assert tree.depth() <= 1


def test_grow_tree_max_leaves_budget():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((200, 4))
    binned = quantize(values, max_bins=64)
    g = rng.integers(-2, 3, size=200) * 0.5
    h = np.full(200, 0.25)
    tree = grow_tree(binned, g, h, _hist_config(max_depth=8, max_leaves=5))
    assert tree.n_leaves <= 5


def _compare_to_oracle(values, g, h, config):
    binned = quantize(values, max_bins=256)
    tree = grow_tree(binned, g, h, config)
    ref = exact_greedy_tree(
        values,
        g,
        h,
        max_depth=config.max_depth,
        max_leaves=config.max_leaves,
        lam=config.lam,
        gamma=config.gamma,
        mcw=config.min_child_weight,
    )
    assert len(tree.nodes) == len(ref), "node count differs from exact oracle"
    for mine, theirs in zip(tree.nodes, ref):
        assert mine.is_leaf == theirs.is_leaf
        if mine.is_leaf:
            assert mine.value == pytest.approx(theirs.value, abs=1e-9)
        else:
            assert mine.feature == theirs.feature
            assert mine.threshold == theirs.threshold
            assert mine.missing_goes_left == theirs.missing_left
            assert (mine.left, mine.right) == (theirs.left, theirs.right)
            assert mine.gain == pytest.approx(theirs.gain, abs=1e-9)


def test_grow_tree_matches_exact_greedy_small():
    # quantized gradients keep both routes in exact float arithmetic, so the
    # comparison tests algorithm identity rather than rounding coincidences
    rng = np.random.default_rng(10)
    values = rng.integers(0, 12, size=(20, 2)).astype(float)
    g = rng.integers(-4, 5, size=20) * 0.5
    h = np.full(20, 0.25)
    _compare_to_oracle(values, g, h, _hist_config(max_depth=3, lam=1.0))


def test_grow_tree_matches_exact_greedy_with_missing():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 8, size=(30, 3)).astype(float)
    values[rng.random((30, 3)) < 0.2] = np.nan
    g = rng.integers(-4, 5, size=30) * 0.5
    h = np.full(30, 0.25)
    _compare_to_oracle(values, g, h, _hist_config(max_depth=4, lam=0.5, min_child_weight=0.25))


def test_reduce_histograms_partition_invariance():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 6, size=(40, 2)).astype(float)
    binned = quantize(values, max_bins=8)
    g = rng.integers(-2, 3, size=40) * 0.5
    h = np.full(40, 0.5)
    rows = np.arange(40)
    whole = _hist(binned, rows, g, h)
    parts = [_hist(binned, rows[lo:hi], g, h) for lo, hi in ((0, 13), (13, 26), (26, 40))]
    # exact-arithmetic data: chunked reduction equals the monolithic sums
    assert np.array_equal(reduce_histograms([p.sums for p in parts]), whole.sums)
