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


def bin_codes(col: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin code per value: the count of edges below it; NaN gets the missing bin, edges.size + 1."""
    codes = np.searchsorted(edges, col, side="left")
    codes[np.isnan(col)] = edges.size + 1
    return codes


def quantize(
    values: np.ndarray, max_bins: int = 256, n_threads: int = 1, rows: np.ndarray | None = None
) -> BinnedMatrix:
    """Quantize a row-major (n_rows, n_features) float matrix into bin codes.

    Per-feature quantile edges over at most max_bins real bins; constant
    features get a single bin; NaN maps to the feature's reserved missing
    bin. Binning preserves order: a <= b implies bin(a) <= bin(b).

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
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {values.shape}")
    n_rows, n_features = values.shape if rows is None else (len(rows), values.shape[1])
    if n_rows < 1:
        raise ValidationError(f"expected at least one row, got shape {values.shape}")
    n_threads = max(1, min(n_threads, n_features, usable_cpus()))

    def column(j: int) -> np.ndarray:
        return values[:, j] if rows is None else values[rows, j]

    def _map(fn, items):
        if n_threads == 1 or n_rows * n_features < 1 << 20:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(n_threads) as pool:
            return list(pool.map(fn, items))

    edges: list[np.ndarray] = _map(
        lambda j: _feature_thresholds(column(j), max_bins), range(n_features)
    )
    n_real = np.array([e.size + 1 for e in edges], dtype=np.int64)

    dtype = np.uint8 if int(n_real.max()) + 1 <= 256 else np.uint16
    codes = np.empty((n_features, n_rows), dtype=dtype)

    def _bin_feature(j: int) -> None:
        codes[j] = bin_codes(column(j), edges[j])

    _map(_bin_feature, range(n_features))

    return BinnedMatrix(codes=codes, edges=edges, n_real_bins=n_real, n_rows=n_rows)
