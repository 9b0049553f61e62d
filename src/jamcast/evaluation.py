"""Train/test splitting, ranking metrics, and the model-comparison bench.

AUC is the Mann-Whitney statistic (ties counted 1/2), computed from average
ranks in O(n log n); it equals the trapezoidal ROC area exactly. The
confusion matrix counts score >= `bench`'s `threshold` (0.5 by default)
positive. The bench harness trains each model kind on the same
deterministic split and renders the comparison as an AUC / precision /
recall / computing-time table.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from jamcast import rng
from jamcast.errors import (
    ConfigError,
    FileChangedError,
    JamcastError,
    UndefinedMetricError,
    ValidationError,
)
from jamcast.ingest import FeatureMatrix
from jamcast.manifest import write_json
from jamcast.trees.binning import quantize
from jamcast.trees.training import TRAINERS, TrainConfig, predict

_TAG_SPLIT = 0x53504C54

MODEL_DISPLAY = {"rf": "RF", "gbt": "GBT", "xgb": "XGBoost"}


def split_indices(n_rows: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic uniform split: floor(n * fraction) train rows, rest test.

    A seeded permutation decides membership; returned index sets are sorted
    ascending (membership, not order, is the contract).
    """
    if not 0 < train_fraction < 1:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if n_rows < 2:
        raise ValidationError(f"need at least 2 rows to split, got {n_rows}")
    n_train = int(n_rows * train_fraction)
    if n_train == 0 or n_train == n_rows:
        raise ValidationError(
            f"degenerate split: {n_train} train rows out of {n_rows}"
        )
    perm = rng.permutation(seed, _TAG_SPLIT, n_rows)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def split_train_test(
    matrix: FeatureMatrix, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """A FeatureMatrix's disjoint, exhaustive train/test row indices.

    The split is by index only: no row is copied, so a caller reads the
    rows it needs from the matrix (see `bench`).
    """
    return split_indices(matrix.n_rows, train_fraction, seed)


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties count 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError("scores and labels must be 1-d and the same length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative label")
    order = np.argsort(s, kind="mergesort")
    s_sorted = s[order]
    new_group = np.r_[True, s_sorted[1:] != s_sorted[:-1]]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    ends = np.cumsum(counts)  # 1-based rank of each group's last member
    avg_rank = ends - (counts - 1) / 2.0
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = avg_rank[group_id]
    u_stat = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(scores, labels, threshold: float = 0.5) -> ConfusionMatrix:
    """Threshold scores (>= is positive) against boolean labels."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValidationError("scores and labels must have the same shape")
    pred = s >= threshold
    return ConfusionMatrix(
        tp=int(np.sum(pred & y)),
        fp=int(np.sum(pred & ~y)),
        tn=int(np.sum(~pred & ~y)),
        fn=int(np.sum(~pred & y)),
    )


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool


def precision_recall(cm: ConfusionMatrix) -> PrecisionRecall:
    """precision = tp/(tp+fp), recall = tp/(tp+fn); 0 with a flag when undefined."""
    p_den = cm.tp + cm.fp
    r_den = cm.tp + cm.fn
    return PrecisionRecall(
        precision=cm.tp / p_den if p_den else 0.0,
        recall=cm.tp / r_den if r_den else 0.0,
        precision_defined=p_den > 0,
        recall_defined=r_den > 0,
    )


# what a successful kind measures; a failed kind reports none of it
_MEASURED = ("auc", "precision", "recall", "quantize_seconds", "train_seconds", "predict_seconds")


@dataclass
class EvalReport:
    """One model's evaluation: confusion-derived metrics plus wall times.

    quantize_seconds is the one quantize of the training split that every
    kind of a bench shares; train_seconds excludes it.
    """

    model_kind: str
    feature_set: str
    n_train: int
    n_test: int
    threshold: float
    n_workers: int
    config: dict = field(default_factory=dict)
    cm: ConfusionMatrix | None = None
    auc: float = math.nan
    precision: float = math.nan
    recall: float = math.nan
    precision_defined: bool = True
    recall_defined: bool = True
    quantize_seconds: float = math.nan
    train_seconds: float = math.nan
    predict_seconds: float = math.nan
    error: str | None = None

    def as_dict(self) -> dict:
        """The report's fields, with the confusion matrix under "confusion".

        A failed kind's metrics and seconds are None, not the NaN defaults,
        which JSON cannot hold.
        """
        doc = dataclasses.asdict(self)
        doc["confusion"] = doc.pop("cm")
        if self.error is not None:
            doc.update(dict.fromkeys(_MEASURED))
        return doc


def bench(
    matrix: FeatureMatrix,
    kinds: Sequence[str],
    config: TrainConfig,
    train_fraction: float = 0.75,
    seed: int = 0,
    threshold: float = 0.5,
) -> list[EvalReport]:
    """Split, quantize the training rows once, then train, predict and score
    each model kind under one config.

    The split is by row index and no row is copied: quantize gathers the
    training rows from each feature's column, and predict gathers the test
    rows of each feature its trees split on. A FeatureMatrix is read a
    column at a time from its store, so bench never holds its float
    values.

    Kinds run one at a time so timings are not contaminated by
    co-scheduling; wall times cover the split's quantize, training and
    prediction, never ingestion or serialization. A kind that fails is
    recorded in its report and the remaining kinds still run; a failed
    quantize is recorded in every kind's report. A matrix file changed
    after it was loaded (FileChangedError) fails the whole bench.
    """
    if not kinds:
        return []
    train_rows, test_rows = split_train_test(matrix, train_fraction, seed)
    reports = [
        EvalReport(
            model_kind=kind,
            feature_set=matrix.schema.feature_set,
            n_train=train_rows.size,
            n_test=test_rows.size,
            threshold=threshold,
            n_workers=config.n_workers,
            config=dataclasses.asdict(config),
        )
        for kind in kinds
    ]
    try:
        t0 = time.perf_counter()
        binned = quantize(matrix, config.max_bins, n_workers=config.n_workers, rows=train_rows)
        quantize_seconds = time.perf_counter() - t0
    except FileChangedError:
        raise
    except JamcastError as exc:
        for report in reports:
            report.error = f"{type(exc).__name__}: {exc}"
        return reports
    train_labels, test_labels = matrix.labels[train_rows], matrix.labels[test_rows]
    for report in reports:
        report.quantize_seconds = quantize_seconds
        try:
            trainer = TRAINERS.get(report.model_kind)
            if trainer is None:
                raise ConfigError(f"unknown model kind {report.model_kind!r}")
            t0 = time.perf_counter()
            model = trainer(binned, train_labels, config, matrix.schema)
            report.train_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            scores = predict(model, matrix, rows=test_rows)
            report.predict_seconds = time.perf_counter() - t0
            report.cm = confusion(scores, test_labels, threshold)
            pr = precision_recall(report.cm)
            report.auc = auc(scores, test_labels)
            report.precision = pr.precision
            report.recall = pr.recall
            report.precision_defined = pr.precision_defined
            report.recall_defined = pr.recall_defined
        except FileChangedError:
            raise
        except JamcastError as exc:
            report.error = f"{type(exc).__name__}: {exc}"
    return reports


def format_duration(seconds: float) -> str:
    """Human duration in the comparison-table style: '1 hrs 8 min 53 sec'."""
    if not math.isfinite(seconds):
        return "n/a"
    if seconds < 60:
        return f"{seconds:.1f} sec"
    total = int(round(seconds))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h} hrs {m} min {s} sec"
    return f"{m} min {s} sec"


def render_table(reports: Sequence[EvalReport]) -> str:
    """Fixed-layout comparison table: AUC / Precision / Recall / Computing Time."""
    headers = [""] + [MODEL_DISPLAY.get(r.model_kind, r.model_kind) for r in reports]
    rows = [
        ["AUC"] + [
            "error" if r.error else f"{100.0 * r.auc:.1f}%" for r in reports
        ],
        ["Precision"] + [
            "error" if r.error else f"{r.precision:.3f}" for r in reports
        ],
        ["Recall"] + [
            "error" if r.error else f"{r.recall:.3f}" for r in reports
        ],
        ["Computing Time"] + [
            "error" if r.error else format_duration(r.quantize_seconds + r.train_seconds)
            for r in reports
        ],
    ]
    widths = [
        max(len(str(line[i])) for line in [headers] + rows) for i in range(len(headers))
    ]
    out = []
    for line in [headers] + rows:
        out.append("  ".join(str(cell).ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["model", "feature_set", "auc", "precision", "recall",
         "quantize_seconds", "train_seconds", "predict_seconds", "n_workers", "error"]
    )
    for r in reports:
        writer.writerow(
            [r.model_kind, r.feature_set, r.auc, r.precision, r.recall,
             r.quantize_seconds, r.train_seconds, r.predict_seconds, r.n_workers,
             r.error or ""]
        )
    return buf.getvalue()


def write_reports(path, reports: Sequence[EvalReport], run_id: str | None = None) -> str:
    """Write the reports as one strict JSON list, stamped with `run_id` if given; its sha256."""
    docs = [r.as_dict() for r in reports]
    if run_id is not None:
        for doc in docs:
            doc["run_id"] = run_id
    return write_json(path, docs)
