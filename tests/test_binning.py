import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import synthetic_matrix
from jamcast.errors import ConfigError, ValidationError
from jamcast.ingest import load_matrix, save_matrix
from jamcast.trees import binning
from jamcast.trees.binning import bin_codes, quantize
from oracles import reference_feature_thresholds


def col(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def test_constant_feature_single_bin():
    binned = quantize(col([5, 5, 5]), max_bins=8)
    assert binned.n_real_bins[0] == 1
    assert binned.codes[0].tolist() == [0, 0, 0]
    assert binned.edges[0].size == 0


def test_distinct_values_get_distinct_bins():
    binned = quantize(col([1, 2, 3, 4]), max_bins=4)
    assert binned.n_real_bins[0] == 4
    assert binned.codes[0].tolist() == [0, 1, 2, 3]
    assert binned.edges[0].tolist() == [1, 2, 3]


def test_quantile_bins_are_balanced():
    values = np.sort(np.random.default_rng(0).random(1000))
    binned = quantize(values.reshape(-1, 1), max_bins=10)
    counts = np.bincount(binned.codes[0], minlength=10)
    # quantile-edge oracle: each bin holds 100 +- 1 rows
    assert counts.min() >= 99 and counts.max() <= 101
    assert counts.sum() == 1000
    # oracle check: edges sit at the sorted 100th, 200th, ... values
    expected = values[np.arange(1, 10) * 100 - 1]
    assert np.array_equal(binned.edges[0], expected)


def test_missing_goes_to_reserved_bin():
    binned = quantize(col([1.0, np.nan, 2.0]), max_bins=4)
    assert binned.n_real_bins[0] == 2
    assert binned.codes[0].tolist() == [0, 2, 1]


def test_order_preservation_property():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(500)
    binned = quantize(values.reshape(-1, 1), max_bins=16)
    codes = binned.codes[0]
    order = np.argsort(values, kind="mergesort")
    assert (np.diff(codes[order].astype(int)) >= 0).all()


def test_threshold_semantics_left_inclusive():
    # bin(x) <= b exactly when x <= edges[b]
    values = col([1.0, 2.0, 2.0, 3.0])
    binned = quantize(values, max_bins=8)
    edges = binned.edges[0]
    for b, thr in enumerate(edges):
        going_left = binned.codes[0] <= b
        assert np.array_equal(going_left, values[:, 0] <= thr)


def test_max_bins_validation():
    with pytest.raises(ConfigError):
        quantize(col([1, 2]), max_bins=1)


def test_dtype_upgrade_when_many_bins():
    values = np.arange(300, dtype=np.float64).reshape(-1, 1)
    binned = quantize(values, max_bins=300)
    assert binned.codes.dtype == np.uint16
    assert binned.n_real_bins[0] == 300
    small = quantize(values, max_bins=128)
    assert small.codes.dtype == np.uint8


@pytest.mark.parametrize("n_threads", [1, 3])
def test_rows_quantize_exactly_as_their_copy(n_threads):
    rng = np.random.default_rng(6)
    values = rng.normal(size=(300_000, 4))
    values[rng.random(values.shape) < 0.1] = np.nan
    values[:, 1] = rng.integers(0, 300, size=values.shape[0])  # one bin per value: uint16
    columns = np.asfortranarray(values)  # column-major, as encode and load_matrix hold it
    for rows in (np.sort(rng.choice(len(values), 200_000, replace=False)),
                 rng.permutation(len(values))[:1000], np.array([7])):
        want = quantize(values[rows], 512, n_threads=n_threads)
        got = quantize(columns, 512, n_threads=n_threads, rows=rows)
        assert got.n_rows == rows.size and got.codes.dtype == want.codes.dtype
        assert got.codes.tobytes() == want.codes.tobytes()
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.edges, want.edges))
    with pytest.raises(ValidationError):
        quantize(columns, 16, rows=np.array([], dtype=np.intp))


def test_thread_count_does_not_change_output():
    rng = np.random.default_rng(9)
    values = rng.standard_normal((4000, 5))
    # few distinct values, +-0.0 and +-inf among them, in the last two columns
    special = np.array([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf])
    values[:, 3] = rng.choice(special, 4000)
    values[:, 4] = np.where(rng.random(4000) < 0.5, rng.choice(special, 4000), values[:, 4])
    values[rng.random((4000, 5)) < 0.05] = np.nan
    a = quantize(values, max_bins=32, n_threads=1)
    b = quantize(values, max_bins=32, n_threads=4)
    assert np.array_equal(a.codes, b.codes)
    assert all(np.array_equal(x, y) for x, y in zip(a.edges, b.edges))
    # a short column keeps its zeros in input order, so a zero edge's sign shows which
    # of them the rule picked
    short = np.array([[0.0, -0.0, 1.0, -np.inf, np.nan, np.inf, -0.0],
                      [-0.0, 0.0, 1.0, np.inf, np.nan, -np.inf, 0.0]]).T
    for m, binned in ((values, a), (short, quantize(short, max_bins=32))):
        for j, edges in enumerate(binned.edges):  # byte-equal: zero edges keep their sign
            assert edges.tobytes() == reference_feature_thresholds(m[:, j], 32).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60),
    st.integers(min_value=2, max_value=12),
)
def test_binning_respects_order_and_bounds(raw, max_bins):
    values = col(raw)
    binned = quantize(values, max_bins=max_bins)
    assert binned.n_real_bins[0] <= max_bins
    codes = binned.codes[0].astype(int)
    assert (codes < binned.n_real_bins[0]).all()
    order = np.argsort(values[:, 0], kind="mergesort")
    assert (np.diff(codes[order]) >= 0).all()


def _searchsorted_codes(column, edges):
    """Codes as one int64 searchsorted of the whole column, NaN to edges.size + 1."""
    codes = np.searchsorted(edges, column, side="left")
    codes[np.isnan(column)] = edges.size + 1
    return codes


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_bin_codes_equal_searchsorted_codes(monkeypatch, block):
    """Codes searched a block at a time into uint8 or uint16 equal one searchsorted's."""
    monkeypatch.setattr(binning, "_CODE_BLOCK", block)
    rng = np.random.default_rng(4)
    for n_edges in (0, 1, 5, 253, 254, 300):
        edges = np.unique(rng.integers(-400, 400, size=4 * n_edges))[:n_edges].astype(float)
        if n_edges > 1:
            edges[0] = -np.inf  # quantize makes -inf an edge when it is a value
        special = np.r_[edges, np.nan, np.inf, -np.inf, -0.0, 0.0]
        column = rng.choice(np.r_[rng.normal(0, 300, 500), special], 150_001)
        out = np.empty(column.size, dtype=np.min_scalar_type(n_edges + 1))
        assert out.dtype == (np.uint8 if n_edges < 255 else np.uint16)
        assert bin_codes(column, edges, out) is out
        assert np.array_equal(out, _searchsorted_codes(column, edges))


@pytest.fixture(scope="module")
def stored_matrix(tmp_path_factory):
    """A 90k-row leaky matrix, and the same matrix loaded from its .tjm file."""
    matrix, enc = synthetic_matrix(90_000, seed=8, feature_set="leaky")
    path = tmp_path_factory.mktemp("stored") / "m.tjm"
    save_matrix(path, matrix, enc)
    return matrix, load_matrix(path)[0]


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("max_bins", [255, 300])  # uint8 and uint16 codes
def test_a_loaded_matrix_quantizes_as_its_values(stored_matrix, n_threads, max_bins):
    """quantize reads a loaded matrix a column at a time: the same codes, dtype and edges."""
    matrix, loaded = stored_matrix
    dtype = np.uint8 if max_bins < 256 else np.uint16
    rng = np.random.default_rng(5)
    for rows in (None, np.sort(rng.choice(matrix.n_rows, 67_500, replace=False)),
                 rng.integers(0, matrix.n_rows, 500)):
        want = quantize(matrix.values, max_bins, n_threads=n_threads, rows=rows)
        got = quantize(loaded, max_bins, n_threads=n_threads, rows=rows)
        assert got.n_rows == want.n_rows and got.codes.dtype == want.codes.dtype == dtype
        assert got.codes.flags.c_contiguous
        assert got.codes.tobytes() == want.codes.tobytes()
        assert np.array_equal(got.n_real_bins, want.n_real_bins)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.edges, want.edges))
