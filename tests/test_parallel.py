import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamcast.errors import ConfigError, ValidationError
from jamcast.parallel import N_HIST_PARTS, partition_rows, reduce_histograms


def _sizes(ranges) -> list[int]:
    return [hi - lo for lo, hi in ranges]


def test_partition_examples():
    assert _sizes(partition_rows(10, 4)) == [3, 3, 2, 2]
    assert _sizes(partition_rows(5, 1)) == [5]
    assert _sizes(partition_rows(0, 4)) == [0, 0, 0, 0]


def test_partition_zero_workers():
    with pytest.raises(ConfigError):
        partition_rows(10, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
def test_partition_properties(n_rows, n_workers):
    ranges = partition_rows(n_rows, n_workers)
    sizes = _sizes(ranges)
    assert len(sizes) == n_workers
    assert sum(sizes) == n_rows
    assert max(sizes) - min(sizes) <= 1
    # earlier workers take the larger shares and ranges are contiguous
    assert sizes == sorted(sizes, reverse=True)
    lo = 0
    for a, b in ranges:
        assert a == lo and b >= a
        lo = b
    assert lo == n_rows


def test_reduce_identity():
    h = np.arange(24, dtype=float).reshape(2, 4, 3)
    zero = np.zeros((2, 4, 3))
    out = reduce_histograms([h, zero])
    assert np.array_equal(out, h)


def test_reduce_hand_sums():
    a = [[[1, 2, 3], [4, 5, 6]]]
    b = [[[10, 20, 30], [40, 50, 60]]]
    out = reduce_histograms([a, b])
    assert out.tolist() == [[[11, 22, 33], [44, 55, 66]]]


def test_reduce_empty_input():
    with pytest.raises(ValidationError):
        reduce_histograms([])
    with pytest.raises(ValidationError):
        reduce_histograms(np.zeros((0, 2, 4, 3)))


def test_reduce_completion_order_invariance(rng):
    parts = [rng.standard_normal((3, 5, 3)) for _ in range(N_HIST_PARTS)]
    forward = reduce_histograms(parts)
    # simulate workers finishing in reverse: results still placed by index
    slots = [None] * len(parts)
    for i in reversed(range(len(parts))):
        slots[i] = parts[i]
    reversed_completion = reduce_histograms(slots)
    assert np.array_equal(forward, reversed_completion)


def test_reduce_is_fixed_shape_pairwise(rng):
    # the reduction tree must be pairwise by construction, not a linear fold:
    # for 4 parts the result is exactly (p0+p1) + (p2+p3)
    parts = rng.standard_normal((4, 2, 4, 3))
    out = reduce_histograms(parts)
    expected = (parts[0] + parts[1]) + (parts[2] + parts[3])
    assert np.array_equal(out, expected)
    # and for 3 parts: (p0+p1) + p2
    out3 = reduce_histograms(parts[:3])
    expected3 = (parts[0] + parts[1]) + parts[2]
    assert np.array_equal(out3, expected3)
