import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import strict_json, synthetic_matrix
from jamcast.errors import UndefinedMetricError, ValidationError
from jamcast.evaluation import (
    ConfusionMatrix,
    auc,
    bench,
    confusion,
    format_duration,
    precision_recall,
    render_table,
    reports_to_csv,
    split_indices,
    split_train_test,
    write_reports,
)
from jamcast.trees.training import TrainConfig
from oracles import brute_auc


def test_split_75_25():
    train, test = split_indices(100, 0.75, 0)
    assert train.size == 75 and test.size == 25
    assert np.intersect1d(train, test).size == 0
    assert np.array_equal(np.sort(np.r_[train, test]), np.arange(100))


def test_split_floor_rule():
    train, test = split_indices(4, 0.75, 1)
    assert train.size == 3 and test.size == 1


def test_split_determinism():
    a = split_indices(1000, 0.6, 42)
    b = split_indices(1000, 0.6, 42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split_indices(1000, 0.6, 43)
    assert not np.array_equal(a[0], c[0])


def test_split_validation():
    with pytest.raises(ValidationError):
        split_indices(1, 0.5, 0)
    with pytest.raises(ValidationError):
        split_indices(100, 0.0, 0)
    with pytest.raises(ValidationError):
        split_indices(100, 1.0, 0)
    with pytest.raises(ValidationError):
        split_indices(3, 0.1, 0)  # floor gives zero train rows


def test_split_matrix_partition():
    matrix, _ = synthetic_matrix(400, seed=3)
    train, test = split_train_test(matrix, 0.75, 9)
    assert train.size == 300 and test.size == 100
    assert np.array_equal(np.sort(np.r_[train, test]), np.arange(400))


def test_auc_examples():
    assert auc([0.9, 0.1], [True, False]) == 1.0
    assert auc([0.5, 0.5], [True, False]) == 0.5
    assert auc([0.8, 0.4, 0.6, 0.2], [True, True, False, False]) == 0.75


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc([0.4, 0.5], [True, True])


def test_auc_matches_brute_force(rng):
    for trial in range(30):
        n = int(rng.integers(2, 400))
        scores = rng.integers(0, 12, size=n) / 4.0  # force plenty of ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        assert auc(scores, labels) == pytest.approx(brute_auc(scores, labels), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
        min_size=2,
        max_size=80,
    )
)
def test_auc_invariant_under_increasing_transform(pairs):
    # coarse grid keeps exp() strictly increasing in float arithmetic, so
    # the transform preserves the exact tie structure
    scores = np.array([p[0] for p in pairs]) / 100.0
    labels = np.array([p[1] for p in pairs])
    if labels.all() or not labels.any():
        return
    base = auc(scores, labels)
    transformed = auc(np.exp(3.0 * scores), labels)
    assert transformed == pytest.approx(base, abs=1e-12)


def test_confusion_reference_matrix_fixture():
    cm = ConfusionMatrix(tp=4_398_279, fp=0, tn=2_259_865, fn=0)
    assert cm.total == 6_658_144
    pr = precision_recall(cm)
    assert pr.precision == 1.0 and pr.recall == 1.0
    assert pr.precision_defined and pr.recall_defined


def test_confusion_all_negative():
    cm = confusion(np.zeros(8), np.zeros(8, dtype=bool), 0.5)
    assert cm.tn == 8 and cm.tp == cm.fp == cm.fn == 0


def test_confusion_threshold_boundary_counts_positive():
    cm = confusion(np.array([0.5, 0.49]), np.array([True, True]), 0.5)
    assert cm.tp == 1 and cm.fn == 1


def test_confusion_counts_sum_to_n(rng):
    scores = rng.random(500)
    labels = rng.random(500) < 0.3
    cm = confusion(scores, labels)
    assert cm.total == 500


def test_precision_recall_arithmetic():
    pr = precision_recall(ConfusionMatrix(tp=8, fp=2, tn=0, fn=4))
    assert pr.precision == pytest.approx(0.8)
    assert pr.recall == pytest.approx(8 / 12)


def test_precision_recall_degenerate_flags():
    pr = precision_recall(ConfusionMatrix(tp=0, fp=0, tn=5, fn=0))
    assert pr.precision == 0.0 and not pr.precision_defined
    assert pr.recall == 0.0 and not pr.recall_defined


def test_perfect_classifier_all_ones():
    labels = np.array([True, False, True, False])
    scores = labels.astype(float)
    assert auc(scores, labels) == 1.0
    pr = precision_recall(confusion(scores, labels))
    assert pr.precision == 1.0 and pr.recall == 1.0


def test_bench_three_models():
    matrix, _ = synthetic_matrix(3000, seed=17)
    tc = TrainConfig(n_trees=2, max_depth=3, seed=1)
    reports = bench(matrix, ["rf", "gbt", "xgb"], tc, seed=5)
    assert [r.model_kind for r in reports] == ["rf", "gbt", "xgb"]
    assert all(r.error is None for r in reports)
    assert all(r.cm.total == r.n_test for r in reports)
    for r in reports:
        pr = precision_recall(r.cm)
        assert r.precision == pr.precision and r.recall == pr.recall
    table = render_table(reports)
    assert "XGBoost" in table and "Computing Time" in table and "AUC" in table
    csv_text = reports_to_csv(reports)
    assert csv_text.splitlines()[0].startswith("model,")
    assert len(csv_text.splitlines()) == 4


def test_bench_empty_configs():
    matrix, _ = synthetic_matrix(100, seed=17)
    assert bench(matrix, [], TrainConfig()) == []


def test_bench_records_failures_and_continues():
    matrix, _ = synthetic_matrix(1000, seed=17)
    good = TrainConfig(n_trees=1, max_depth=2)
    reports = bench(matrix, ["nope", "xgb"], good, seed=2)
    assert reports[0].error is not None and math.isnan(reports[0].auc)
    assert reports[1].error is None
    (bad,) = bench(matrix, ["xgb"], TrainConfig(n_trees=-5), seed=2)
    assert bad.error is not None and math.isnan(bad.auc)
    # max_bins too large for the codes: the split's one quantize fails every kind
    too_wide = bench(matrix, ["rf", "gbt", "xgb"], TrainConfig(max_bins=70000), seed=2)
    error = "ConfigError: max_bins too large for uint16 codes: 70000"
    assert [r.error for r in too_wide] == [error] * 3
    assert all(math.isnan(r.auc) for r in too_wide)


def test_failed_kinds_write_null_metrics_as_strict_json(tmp_path):
    matrix, _ = synthetic_matrix(1000, seed=5)
    measured = ("auc", "precision", "recall", "quantize_seconds", "train_seconds",
                "predict_seconds")
    too_wide = bench(matrix, ["xgb"], TrainConfig(max_bins=70000))
    mixed = bench(matrix, ["nope", "xgb"], TrainConfig(n_trees=2, max_depth=3))
    assert [r.error is None for r in too_wide + mixed] == [False, False, True]
    for reports in (too_wide, mixed):
        write_reports(tmp_path / "reports.json", reports, run_id="r")
        docs = strict_json((tmp_path / "reports.json").read_text())
        for report, doc in zip(reports, docs):
            if report.error:
                assert {key: doc[key] for key in measured} == dict.fromkeys(measured)
            else:  # a successful kind's report is written as it is
                assert {key: doc[key] for key in measured} == {
                    key: getattr(report, key) for key in measured
                }
                assert doc["confusion"] == vars(report.cm)


def test_bench_holds_the_matrix_once():
    """bench splits by row index: no copy of the training rows sits beside the matrix."""
    matrix, _ = synthetic_matrix(50_000, seed=11, feature_set="honest")
    tracemalloc.start()
    try:
        reports = bench(matrix, ["rf", "gbt", "xgb"], TrainConfig(n_trees=3, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.error for r in reports] == [None] * 3
    assert peak < 1.5 * 8 * matrix.n_rows * matrix.n_features


def test_bench_leaky_beats_honest_for_every_model():
    leaky, _ = synthetic_matrix(30_000, seed=23, feature_set="leaky")
    honest, _ = synthetic_matrix(30_000, seed=23, feature_set="honest")
    tc = TrainConfig(n_trees=3, max_depth=4, seed=1)
    kinds = ("rf", "gbt", "xgb")
    auc_leaky = {r.model_kind: r.auc for r in bench(leaky, kinds, tc, seed=4)}
    auc_honest = {r.model_kind: r.auc for r in bench(honest, kinds, tc, seed=4)}
    for kind in kinds:
        assert auc_honest[kind] < auc_leaky[kind]
        assert auc_honest[kind] >= 0.5


def test_bench_repeat_same_seed_identical_metrics():
    matrix, _ = synthetic_matrix(2000, seed=17)
    tc = TrainConfig(n_trees=2, max_depth=3, seed=1)
    r1 = bench(matrix, ["xgb"], tc, seed=3)[0]
    r2 = bench(matrix, ["xgb"], tc, seed=3)[0]
    assert (r1.auc, r1.precision, r1.recall) == (r2.auc, r2.precision, r2.recall)
    assert r1.cm == r2.cm


def test_format_duration_styles():
    assert format_duration(21.04) == "21.0 sec"
    assert format_duration(4133.0) == "1 hrs 8 min 53 sec"
    assert format_duration(125.0) == "2 min 5 sec"
