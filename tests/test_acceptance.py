"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines and
measured values as they happen. The 1M-row corpus is generated once and
shared; the final test is a 16M-row scale smoke and takes several minutes.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from jamcast.datagen import GenConfig, generate_jams
from jamcast.evaluation import (
    ConfusionMatrix,
    auc,
    confusion,
    precision_recall,
    split_train_test,
)
from jamcast.ingest import ingest_files, schema_for
from jamcast.parallel import reduce_histograms
from jamcast.trees.binning import quantize
from jamcast.trees.grower import logistic_grad_hess
from jamcast.trees.training import TrainConfig, predict, save_model, train_xgb
from helpers import fit, grow_tree
from oracles import brute_auc, exact_greedy_tree, logloss

SEED = 42
N_ROWS = 1_000_000


def _line(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """1M-row seeded leaky/honest matrices plus stage timings."""
    root = tmp_path_factory.mktemp("acceptance")
    path = root / "jams.jsonl"
    timings = {}
    t0 = time.perf_counter()
    with open(path, "wb") as fh:
        generate_jams(GenConfig(n_jams=N_ROWS, seed=SEED, coupling_noise=0.0), fh)
    timings["generate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    leaky, _, summary = ingest_files([path], schema_for("leaky"))
    timings["ingest"] = time.perf_counter() - t0
    honest, _, _ = ingest_files([path], schema_for("honest"))
    return {
        "path": path,
        "leaky": leaky,
        "honest": honest,
        "summary": summary,
        "timings": timings,
    }


def _train_and_score(matrix, n_workers=1, n_trees=20):
    train_m, test_m = map(matrix.take, split_train_test(matrix, 0.75, SEED))
    config = TrainConfig(
        n_trees=n_trees, max_depth=5, max_leaves=256, seed=SEED, n_workers=n_workers
    )
    t0 = time.perf_counter()
    model = fit(train_xgb, train_m, config=config)
    train_seconds = time.perf_counter() - t0
    scores = predict(model, test_m)
    cm = confusion(scores, test_m.labels, 0.5)
    pr = precision_recall(cm)
    return {
        "auc": auc(scores, test_m.labels),
        "precision": pr.precision,
        "recall": pr.recall,
        "train_seconds": train_seconds,
    }


@pytest.fixture(scope="module")
def leaky_run(corpus):
    return _train_and_score(corpus["leaky"])


def test_criterion_1_leakage_reproduction(corpus, leaky_run):
    t = corpus["timings"]
    total = t["generate"] + t["ingest"] + leaky_run["train_seconds"]
    detail = (
        f"leaky xgb(depth=5, leaves=256): auc={leaky_run['auc']:.6f} "
        f"precision={leaky_run['precision']:.6f} recall={leaky_run['recall']:.6f}; "
        f"generate {t['generate']:.1f}s + ingest {t['ingest']:.1f}s + "
        f"train {leaky_run['train_seconds']:.1f}s = {total:.1f}s"
    )
    ok = (
        leaky_run["auc"] >= 0.99
        and leaky_run["precision"] >= 0.99
        and leaky_run["recall"] >= 0.99
    )
    _line(1, ok, detail)


def test_criterion_2_honest_feature_contrast(corpus, leaky_run):
    honest_run = _train_and_score(corpus["honest"])
    detail = (
        f"honest auc={honest_run['auc']:.6f} vs leaky auc={leaky_run['auc']:.6f} "
        "(perfect scores are feature-set dependent)"
    )
    ok = honest_run["auc"] < leaky_run["auc"] and honest_run["auc"] >= 0.5
    _line(2, ok, detail)


def test_criterion_3_exact_split_oracle_equivalence():
    rng = np.random.default_rng(777)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        f = int(rng.integers(1, 5))
        values = rng.integers(0, 16, size=(n, f)).astype(float)
        if rng.random() < 0.5:
            values[rng.random((n, f)) < 0.15] = np.nan
        g = rng.integers(-8, 9, size=n) * 0.25
        h = np.full(n, 0.25) if rng.random() < 0.5 else rng.integers(1, 5, size=n) * 0.25
        config = TrainConfig(
            max_depth=int(rng.integers(1, 6)),
            max_leaves=int(rng.integers(2, 40)),
            lam=float(rng.choice([0.0, 0.5, 1.0])),
            gamma=float(rng.choice([0.0, 0.25])),
            min_child_weight=float(rng.choice([0.0, 0.25, 1.0])),
        )
        tree = grow_tree(quantize(values, max_bins=256), g, h, config)
        ref = exact_greedy_tree(
            values, g, h,
            max_depth=config.max_depth, max_leaves=config.max_leaves,
            lam=config.lam, gamma=config.gamma, mcw=config.min_child_weight,
        )
        same = len(tree.nodes) == len(ref)
        if same:
            for mine, theirs in zip(tree.nodes, ref):
                if mine.is_leaf != theirs.is_leaf:
                    same = False
                    break
                if mine.is_leaf:
                    same = abs(mine.value - theirs.value) <= 1e-9
                else:
                    same = (
                        mine.feature == theirs.feature
                        and mine.threshold == theirs.threshold
                        and mine.missing_goes_left == theirs.missing_left
                        and (mine.left, mine.right) == (theirs.left, theirs.right)
                        and abs(mine.gain - theirs.gain) <= 1e-9
                    )
                if not same:
                    break
        mismatches += 0 if same else 1
    _line(3, mismatches == 0, f"{50 - mismatches}/50 randomized datasets node-for-node identical")


def test_criterion_4_auc_oracle_and_reference_fixture():
    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 1001))
        scores = rng.integers(0, 50, size=n) / 8.0  # plenty of ties
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        worst = max(worst, abs(auc(scores, labels) - brute_auc(scores, labels)))
        checked += 1
    cm = ConfusionMatrix(tp=4_398_279, fp=0, tn=2_259_865, fn=0)
    pr = precision_recall(cm)
    ok = worst <= 1e-12 and pr.precision == 1.0 and pr.recall == 1.0
    _line(
        4,
        ok,
        f"100 random vectors: max |auc - pairwise oracle| = {worst:.2e}; "
        f"fixture matrix precision={pr.precision} recall={pr.recall}",
    )


def test_criterion_5_gradient_checks():
    eps = 1e-5
    worst_g = worst_h = 0.0
    for margin in np.linspace(-10, 10, 201):
        for label in (True, False):
            g, h = logistic_grad_hess(float(margin), label)
            g_fd = (logloss(margin + eps, label) - logloss(margin - eps, label)) / (2 * eps)
            g_hi, _ = logistic_grad_hess(float(margin + eps), label)
            g_lo, _ = logistic_grad_hess(float(margin - eps), label)
            h_fd = (g_hi - g_lo) / (2 * eps)
            worst_g = max(worst_g, abs(g - g_fd) / max(abs(g_fd), 1e-12))
            worst_h = max(worst_h, abs(h - h_fd) / max(abs(h_fd), 1e-12))
    ok = worst_g <= 1e-6 and worst_h <= 1e-6
    _line(5, ok, f"max relative error over [-10,10]: g {worst_g:.2e}, h {worst_h:.2e}")


def test_criterion_6_determinism_and_worker_invariance(corpus, tmp_path):
    sub = corpus["leaky"].take(np.arange(50_000))
    files = {}
    for w in (1, 2, 4, 8):
        config = TrainConfig(n_trees=3, max_depth=5, max_leaves=256, seed=SEED, n_workers=w)
        model = fit(train_xgb, sub, config=config)
        path = tmp_path / f"model_w{w}.json"
        save_model(path, model, run_id="fixed")
        files[w] = path.read_bytes()
    identical = all(b == files[1] for b in files.values())

    rng = np.random.default_rng(99)
    parts = [rng.standard_normal((4, 9, 3)) for _ in range(8)]
    forward = reduce_histograms(parts)
    slots = [None] * 8
    for i in np.random.default_rng(1).permutation(8):
        slots[i] = parts[i]  # arbitrary completion order, slotted by index
    permuted = reduce_histograms(slots)
    reduction_invariant = np.array_equal(forward, permuted)
    ok = identical and reduction_invariant
    _line(
        6,
        ok,
        f"model files byte-identical for workers 1/2/4/8: {identical}; "
        f"reduction completion-order invariant: {reduction_invariant}",
    )


def test_criterion_7_parallel_scaling(corpus):
    run1 = _train_and_score(corpus["leaky"], n_workers=1)
    run8 = _train_and_score(corpus["leaky"], n_workers=8)
    speedup = run1["train_seconds"] / run8["train_seconds"]
    detail = (
        f"1M rows xgb: workers=1 {run1['train_seconds']:.2f}s, "
        f"workers=8 {run8['train_seconds']:.2f}s, speedup {speedup:.2f}x (required >= 1.5x)"
    )
    _line(7, speedup >= 1.5, detail)


def test_criterion_8_ingestion_conservation(corpus, tmp_path):
    # clean corpus ingests with zero rejections
    clean_ok = (
        corpus["summary"].parse.rows_rejected == 0
        and corpus["summary"].clean.rows_rejected == 0
        and corpus["summary"].parse.rows_accepted == N_ROWS
    )
    # corpus with injected malformed lines conserves every line
    path = tmp_path / "dirty.jsonl"
    with open(path, "wb") as fh:
        generate_jams(GenConfig(n_jams=5000, seed=7), fh)
        fh.write(b"not json\n\n")
        fh.write(b'{"level": 99, "speed": 1}\n')
        fh.write(b'{"level": 3}\n')
        fh.write(b"\n{broken\n")
    raw_lines = sum(1 for ln in path.read_bytes().splitlines() if ln.strip())
    _, _, summary = ingest_files([path], schema_for("leaky"))
    conserved = summary.parse.rows_accepted + summary.parse.rows_rejected == raw_lines
    ok = clean_ok and conserved and summary.parse.rows_rejected == 4
    _line(
        8,
        ok,
        f"clean corpus: 0 rejections over {N_ROWS} rows; dirty corpus: "
        f"{summary.parse.rows_accepted}+{summary.parse.rows_rejected} == {raw_lines} non-empty lines",
    )


def test_criterion_9_scale_smoke_16m(tmp_path_factory):
    n = 16_058_236
    root = tmp_path_factory.mktemp("scale")
    path = root / "jams16m.jsonl"
    timings = {}
    try:
        t0 = time.perf_counter()
        with open(path, "wb") as fh:
            generate_jams(GenConfig(n_jams=n, seed=SEED), fh)
        timings["generate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        matrix, _, summary = ingest_files([path], schema_for("leaky"))
        timings["ingest"] = time.perf_counter() - t0
        assert matrix.n_rows == n
        assert summary.parse.rows_rejected == 0

        t0 = time.perf_counter()
        config = TrainConfig(n_trees=4, max_depth=5, max_leaves=256, seed=SEED, n_workers=2)
        model = fit(train_xgb, matrix, config=config)
        timings["train"] = time.perf_counter() - t0
        assert len(model.trees) == 4
    finally:
        path.unlink(missing_ok=True)

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    child_gb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / (1 << 20)
    total = sum(timings.values())
    _line(
        9,
        True,
        f"{n} rows: generate {timings['generate']:.0f}s, ingest {timings['ingest']:.0f}s, "
        f"train {timings['train']:.0f}s (total {total:.0f}s), "
        f"peak RSS parent {peak_gb:.1f} GiB / worker max {child_gb:.1f} GiB",
    )
