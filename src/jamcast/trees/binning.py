"""Feature quantization: quantile-based bin edges and integer bin codes.

Bin semantics: a feature with thresholds t_0 < ... < t_{k-1} has k+1 real
bins, and bin(x) = #{i : t_i < x}, i.e. "go left at threshold b" means
x <= t_b exactly. Each feature additionally reserves one missing bin at
index n_real_bins (the NaN sentinel never mixes with real values), so a
feature occupies at most max_bins + 1 histogram slots.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from jamcast.errors import ConfigError, ValidationError
from jamcast.parallel import usable_cpus


@dataclass
class BinnedMatrix:
    """Quantized feature matrix, stored feature-major for partition locality."""

    codes: np.ndarray  # (n_features, n_rows) unsigned integer bin indices
    edges: list[np.ndarray]  # per-feature ascending thresholds, float64
    n_real_bins: np.ndarray  # per-feature count of real (non-missing) bins
    n_rows: int

    @property
    def n_features(self) -> int:
        return self.codes.shape[0]

    @property
    def hist_bins(self) -> int:
        """Histogram slots per feature: widest feature's real bins + missing slot."""
        return int(self.n_real_bins.max()) + 1


def _feature_thresholds(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Pick ascending thresholds for one feature column (NaN excluded)."""
    finite = col[~np.isnan(col)]
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    v = np.sort(finite)
    distinct = v[np.r_[True, v[1:] != v[:-1]]]
    if distinct.size <= max_bins:
        # one bin per distinct value: exact splits are representable
        return distinct[:-1].astype(np.float64)
    k = np.arange(1, max_bins, dtype=np.int64)
    pos = k * finite.size // max_bins - 1
    return np.unique(v[pos]).astype(np.float64)


_CODE_BLOCK = 1 << 16  # values searched at a time by bin_codes


def bin_codes(column: np.ndarray, edges: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each value's bin code into `out` and return it: the count of edges
    below the value; NaN gets the missing bin, edges.size + 1.

    The codes are searched a block of values at a time and cast into `out`'s
    unsigned type, so no int64 code array of the whole column exists.
    """
    missing = edges.size + 1
    for lo in range(0, column.size, _CODE_BLOCK):
        part = column[lo : lo + _CODE_BLOCK]
        codes = np.searchsorted(edges, part, side="left")
        codes[np.isnan(part)] = missing
        out[lo : lo + _CODE_BLOCK] = codes
    return out


def feature_columns(data, rows: np.ndarray | None = None):
    """(n_rows, n_features, column): the number of rows `rows` selects (all
    without it), the number of features, and column(j), feature j's values
    at those rows, in that order.

    `data` is a 2-d (n_rows, n_features) array, or a matrix with `column(j)`,
    `n_rows` and `n_features` (an `ingest.FeatureMatrix`, which may read each
    column from its spool or .tjm file when asked for it).
    """
    if hasattr(data, "column"):
        read, (n_rows, n_features) = data.column, (data.n_rows, data.n_features)
    else:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValidationError(f"expected a 2-d matrix, got shape {data.shape}")
        read, (n_rows, n_features) = (lambda j: data[:, j]), data.shape
    if rows is None:
        return n_rows, n_features, read
    return len(rows), n_features, lambda j: read(j)[rows]


def quantize(
    values, max_bins: int = 256, n_threads: int = 1, rows: np.ndarray | None = None
) -> BinnedMatrix:
    """Quantize an (n_rows, n_features) float matrix into bin codes.

    `values` is a row-major array or a matrix whose columns are read one at
    a time (see `feature_columns`). Per-feature quantile edges over at most
    max_bins real bins; constant features get a single bin; NaN maps to the
    feature's reserved missing bin. Binning preserves order: a <= b implies
    bin(a) <= bin(b). Each feature's column is read once, for its edges and
    its codes. The codes' type is the narrowest unsigned one holding
    `max_bins`, which bounds every feature's real bins and so its missing
    bin's code: uint8 up to 255 bins, else uint16.

    With `rows`, only those rows are quantized, in that order, exactly as
    quantize(values[rows]) would be; each feature's rows are gathered from
    its column when it is binned, so the selected rows are never copied as
    a whole.

    Features are independent, so n_threads > 1 only parallelizes the
    per-feature work (sorting dominates and releases the GIL); the output
    is identical for any thread count.
    """
    if max_bins < 2:
        raise ConfigError(f"max_bins must be >= 2, got {max_bins}")
    if max_bins > 65534:
        raise ConfigError(f"max_bins too large for uint16 codes: {max_bins}")
    n_rows, n_features, column = feature_columns(values, rows)
    if n_rows < 1:
        raise ValidationError(f"expected at least one row, got {n_rows}")
    n_threads = max(1, min(n_threads, n_features, usable_cpus()))

    def _map(fn, items):
        if n_threads == 1 or n_rows * n_features < 1 << 20:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(n_threads) as pool:
            return list(pool.map(fn, items))

    codes = np.empty((n_features, n_rows), dtype=np.min_scalar_type(max_bins))

    def _bin(j: int) -> np.ndarray:
        col = column(j)
        edges = _feature_thresholds(col, max_bins)
        bin_codes(col, edges, codes[j])
        return edges

    edges: list[np.ndarray] = _map(_bin, range(n_features))
    n_real = np.array([e.size + 1 for e in edges], dtype=np.int64)
    return BinnedMatrix(codes=codes, edges=edges, n_real_bins=n_real, n_rows=n_rows)
