import errno
import json
import math
import multiprocessing
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamcast import rng as streams
from jamcast.errors import ConfigError, JamcastError, ValidationError
from jamcast.evaluation import split_train_test
from jamcast.ingest import EncodingMap, load_matrix, save_matrix
from jamcast.trees import binning, engine
from jamcast.trees.binning import quantize
from jamcast.trees.grower import sigmoid
from jamcast.trees.training import (
    _TAG_BOOTSTRAP,
    Ensemble,
    TrainConfig,
    _bootstrap_weights,
    load_model,
    model_to_doc,
    predict,
    save_model,
    train_gbt,
    train_rf,
    train_xgb,
)
from helpers import fit, synthetic_matrix
from oracles import reference_leaf_values, reference_predict


def _linearly_separable():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([False, False, True, True])
    return x, y


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_trees=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(max_depth=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lam=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(n_workers=0).validate()
    TrainConfig().validate()


def test_labels_must_match_the_binned_rows():
    x, y = _linearly_separable()
    for train in (train_rf, train_gbt, train_xgb):
        with pytest.raises(ValidationError, match="labels length"):
            train(quantize(x), y[:-1], TrainConfig(n_trees=1))


def test_xgb_zero_trees_predicts_base_rate():
    x, y = _linearly_separable()
    model = fit(train_xgb, x, y, config=TrainConfig(n_trees=0))
    p = predict(model, x)
    assert np.allclose(p, sigmoid(model.base_margin))
    assert model.base_margin == pytest.approx(math.log(0.5 / 0.5), abs=1e-12)


def test_xgb_separable_stump_perfect_training_accuracy():
    x, y = _linearly_separable()
    config = TrainConfig(n_trees=1, max_depth=1, lam=0.0, min_child_weight=0.0)
    model = fit(train_xgb, x, y, config=config)
    p = predict(model, x)
    assert ((p >= 0.5) == y).all()
    assert len(model.trees) == 1
    internal = [n for n in model.trees[0].nodes if not n.is_leaf]
    assert len(internal) == 1
    assert internal[0].threshold == 2.0


def test_gbt_zero_trees_base_rate():
    x, y = _linearly_separable()
    model = fit(train_gbt, x, y, config=TrainConfig(n_trees=0))
    assert np.allclose(predict(model, x), 0.5)


def test_gbt_first_order_leaf_weights():
    # with h == 1 per row, leaf weight -G/(count + lam)
    x, y = _linearly_separable()
    config = TrainConfig(n_trees=1, max_depth=1, lam=0.0, min_child_weight=0.0)
    model = fit(train_gbt, x, y, config=config)
    tree = model.trees[0]
    leaves = [n for n in tree.nodes if n.is_leaf]
    # g at base margin 0 is +-0.5; each side has two rows: weight = -(-1)/2 or -(1)/2
    assert sorted(round(n.value, 12) for n in leaves) == [-0.5, 0.5]


def test_gbt_and_xgb_first_trees_differ_with_lambda():
    # lambda rescales gains differently under h=1 vs h=p(1-p), flipping the
    # chosen split on this frozen dataset
    rng = np.random.default_rng(0)
    x = rng.integers(0, 6, size=(20, 3)).astype(float)
    y = rng.random(20) < 0.5
    tc = TrainConfig(n_trees=2, max_depth=3, max_leaves=8, lam=1.0, seed=0)
    mx = fit(train_xgb, x, y, config=tc)
    mg = fit(train_gbt, x, y, config=tc)
    sx = [(n.feature, n.bin_threshold) for n in mx.trees[0].nodes]
    sg = [(n.feature, n.bin_threshold) for n in mg.trees[0].nodes]
    assert sx != sg


def test_rf_single_tree_reduction_case():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 6, size=(60, 3)).astype(float)
    y = rng.random(60) < 0.5
    tc = TrainConfig(
        n_trees=1, max_depth=4, subsample_rows=1.0, subsample_features=1.0, bootstrap=False
    )
    model = fit(train_rf, x, y, config=tc)
    assert len(model.trees) == 1
    # every training row lands in a leaf whose value is that leaf's class fraction
    p = predict(model, x)
    assert ((p >= 0.0) & (p <= 1.0)).all()
    # plain tree: training with a different seed gives the identical tree
    model2 = fit(train_rf, x, y, config=TrainConfig(
        n_trees=1, max_depth=4, subsample_rows=1.0, subsample_features=1.0,
        bootstrap=False, seed=999,
    ))
    assert json.dumps(model_to_doc(model)["trees"]) == json.dumps(model_to_doc(model2)["trees"])


def test_rf_all_true_labels():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 2))
    y = np.ones(30, dtype=bool)
    model = fit(train_rf, x, y, config=TrainConfig(n_trees=3, max_depth=3))
    assert np.allclose(predict(model, x), 1.0)


def test_rf_seed_determinism_across_workers(small_matrix):
    tc1 = TrainConfig(n_trees=2, max_depth=3, seed=3, n_workers=1, subsample_features=0.5)
    tc2 = TrainConfig(n_trees=2, max_depth=3, seed=3, n_workers=4, subsample_features=0.5)
    m1 = fit(train_rf, small_matrix, config=tc1)
    m2 = fit(train_rf, small_matrix, config=tc2)
    assert json.dumps(model_to_doc(m1), sort_keys=True) == json.dumps(
        model_to_doc(m2), sort_keys=True
    )


def test_boosting_worker_invariance(small_matrix):
    docs = []
    for w in (1, 2, 4):
        tc = TrainConfig(n_trees=3, max_depth=4, seed=9, n_workers=w)
        model = fit(train_xgb, small_matrix, config=tc)
        docs.append(json.dumps(model_to_doc(model), sort_keys=True))
    assert docs[0] == docs[1] == docs[2]


def test_uneven_pool_models_match_the_inline_engine(monkeypatch, tmp_path, honest_matrix):
    """Three processes split the 8 partitions 3/3/2 and change no model byte."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    row_runs = []
    pool_init = engine.PoolSource.__init__

    def recording_init(self, *args):
        pool_init(self, *args)
        row_runs.append(list(self._rows))

    monkeypatch.setattr(engine.PoolSource, "__init__", recording_init)
    for train in (train_rf, train_gbt, train_xgb):
        files = []
        for w in (1, 3):
            config = TrainConfig(n_trees=2, max_depth=5, max_leaves=32, seed=5, n_workers=w)
            path = tmp_path / f"{train.__name__}_w{w}.json"
            save_model(path, fit(train, honest_matrix, config=config), run_id="fixed")
            files.append(path.read_bytes())
        assert files[0] == files[1]
    n = honest_matrix.n_rows
    edges = np.cumsum([0] + [n // 8 + (p < n % 8) for p in range(8)]).tolist()
    runs = [(edges[0], edges[3]), (edges[3], edges[6]), (edges[6], edges[8])]
    assert row_runs == [runs] * 3  # one pool per model


def test_pool_forks_no_more_workers_than_the_process_may_use(monkeypatch, honest_matrix):
    """os.cpu_count() counts the host; a process pinned to one CPU forks no worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    forked = []
    pool_init = engine.PoolSource.__init__

    def recording_init(self, *args):
        pool_init(self, *args)
        forked.append(len(self._procs))

    monkeypatch.setattr(engine.PoolSource, "__init__", recording_init)
    docs = []
    for w in (1, 2):
        config = TrainConfig(n_trees=2, max_depth=4, seed=5, n_workers=w)
        docs.append(json.dumps(model_to_doc(fit(train_xgb, honest_matrix, config=config))))
    assert forked == [0]
    assert docs[0] == docs[1]


def test_a_platform_without_fork_trains_in_the_parent(monkeypatch, tmp_path, honest_matrix):
    """With no fork context, 2 workers fork nothing and write the 1-worker model bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked = []
    pool_init = engine.PoolSource.__init__

    def recording_init(self, *args):
        pool_init(self, *args)
        forked.append(len(self._procs))

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    def model_files(w):
        config = TrainConfig(n_trees=2, max_depth=4, seed=5, n_workers=w)
        for train in (train_rf, train_gbt, train_xgb):
            path = tmp_path / f"{train.__name__}_w{w}.json"
            save_model(path, fit(train, honest_matrix, config=config), run_id="fixed")
            yield path.read_bytes()

    inline = list(model_files(1))
    monkeypatch.setattr(engine.mp, "get_context", no_fork)
    monkeypatch.setattr(engine.PoolSource, "__init__", recording_init)
    assert list(model_files(2)) == inline
    assert forked == [0, 0, 0]


def test_a_failing_parent_step_collects_every_reply_first(monkeypatch, small_matrix):
    """The parent's own step raises only once every forked worker has replied."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    parent = os.getpid()
    begin_round = engine.PartitionState.begin_round

    def fail_in_parent(self, second_order):
        if os.getpid() == parent:
            raise ValueError("parent rows went sideways")
        begin_round(self, second_order)

    monkeypatch.setattr(engine.PartitionState, "begin_round", fail_in_parent)
    binned = quantize(small_matrix.values[:1000], 16)
    source = engine.PoolSource(binned, small_matrix.labels[:1000].astype(np.float64), 3)
    procs = list(source._procs)
    try:
        source.init_boost(0.0)
        with pytest.raises(ValueError, match="sideways"):
            source.begin_round(second_order=True)
        assert len(source._conns) == 2
        assert not any(conn.poll(0.5) for conn in source._conns)  # no reply left unread
    finally:
        source.close()
    assert not any(proc.is_alive() for proc in procs)


def test_a_failed_fork_stops_the_workers_already_started(monkeypatch, small_matrix):
    """A worker that cannot be forked (EAGAIN, ENOMEM) closes the engine before the
    error propagates, so the workers started before it do not outlive it."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 3)
    start = multiprocessing.context.ForkProcess.start
    started = []

    def fail_the_second(proc):
        if started:
            raise OSError(errno.EAGAIN, "fork failed")
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", fail_the_second)
    binned = quantize(small_matrix.values[:1000], 16)
    with pytest.raises(OSError, match="fork failed"):
        engine.open_engine(binned, small_matrix.labels[:1000].astype(np.float64), 3)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_quantize_threads_no_more_than_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    values = np.random.default_rng(4).normal(size=(1 << 17, 8))  # big enough for threads
    want = quantize(values, 64)

    def no_threads(*args, **kwargs):
        raise AssertionError("quantize started a thread pool on one CPU")

    monkeypatch.setattr(binning, "ThreadPoolExecutor", no_threads)
    got = quantize(values, 64, n_threads=4)
    assert got.codes.tobytes() == want.codes.tobytes()


class _RecordingConn:
    """A pipe end that records every message sent through it."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)
        self.conn.send(msg)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def test_pool_workers_receive_only_their_own_rows_weights(monkeypatch, small_matrix):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    binned = quantize(small_matrix.values[:1000], 16)
    y = small_matrix.labels[:1000].astype(np.float64)
    mult = np.arange(1000, dtype=np.int64) % 3
    source = engine.PoolSource(binned, y, n_workers=2)
    try:
        source._conns = [_RecordingConn(c) for c in source._conns]
        source.begin_tree_weighted(mult)
        own_weights = source.state.h  # the parent's rows, never pickled
        pooled = source.node_hist(0)
        sent = [c.sent[0] for c in source._conns]
    finally:
        source.close()
    assert len(sent) == 1 and np.array_equal(own_weights, mult[0:500])
    for (lo, hi), (method, args, build_id) in zip(((500, 1000),), sent):
        assert method == "begin_tree_weighted" and build_id is None
        (weights,) = args
        assert np.array_equal(weights, mult[lo:hi])
    for msg in sent:  # half of the weights travel to each worker, not all of them
        assert mult.nbytes // 2 < len(pickle.dumps(msg)) < mult.nbytes
    inline = engine.InlineSource(binned, y)
    inline.begin_tree_weighted(mult)
    assert inline.node_hist(0).sums.tobytes() == pooled.sums.tobytes()


def test_margin_update_identity(small_matrix):
    train = small_matrix.take(split_train_test(small_matrix, 0.75, 1)[0])
    tc = TrainConfig(n_trees=4, max_depth=4, seed=2)
    model = fit(train_xgb, train, config=tc)
    # recompute margins from scratch over all trees
    margins = np.full(train.n_rows, model.base_margin)
    for tree in model.trees:
        margins += model.learning_rate * reference_leaf_values(tree, train.values)
    np.testing.assert_allclose(predict(model, train), sigmoid(margins), atol=1e-12, rtol=0)


def test_monotone_binning_invariance():
    # strictly increasing transforms leave binned decisions, hence
    # predictions on the training rows, bit-identical
    rng = np.random.default_rng(8)
    x = rng.integers(0, 50, size=(120, 3)).astype(float)
    y = rng.random(120) < 0.4
    tc = TrainConfig(n_trees=3, max_depth=3, max_bins=256)
    p_base = predict(fit(train_xgb, x, y, config=tc), x)
    x2 = np.stack([np.exp(x[:, 0] / 10.0), x[:, 1] ** 3, 5.0 * x[:, 2] - 7.0], axis=1)
    p_trans = predict(fit(train_xgb, x2, y, config=tc), x2)
    assert np.array_equal(p_base, p_trans)


def test_predict_contracts():
    x, y = _linearly_separable()
    model = fit(train_xgb, x, y, config=TrainConfig(n_trees=1, max_depth=1))
    # empty boosting ensemble with base margin zero predicts one half
    empty = Ensemble(
        kind="xgb", trees=[], learning_rate=0.3, base_margin=0.0,
        n_features=1, schema_fingerprint="raw:1", config=TrainConfig(),
        bin_edges=[np.array([2.0, 3.0])],
    )
    assert predict(empty, x).tolist() == [0.5] * 4
    with pytest.raises(ValidationError):
        predict(model, np.zeros((2, 7)))


def test_predict_stump_sigmoid_values():
    from jamcast.trees.grower import DecisionTree, TreeNode

    stump = DecisionTree(
        nodes=[
            TreeNode(feature=0, bin_threshold=0, threshold=1.5, left=1, right=2, gain=1.0),
            TreeNode(value=1.0),
            TreeNode(value=-1.0),
        ]
    )
    model = Ensemble(
        kind="xgb", trees=[stump], learning_rate=1.0, base_margin=0.0,
        n_features=1, schema_fingerprint="raw:1", config=TrainConfig(),
        bin_edges=[np.array([1.5])],
    )
    p = predict(model, np.array([[1.0], [2.0]]))
    assert p[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    assert p[1] == pytest.approx(1 / (1 + math.exp(1)), abs=1e-12)


def test_rf_prediction_averages():
    from jamcast.trees.grower import DecisionTree, TreeNode

    t1 = DecisionTree(nodes=[TreeNode(value=1.0)])
    t2 = DecisionTree(nodes=[TreeNode(value=0.0)])
    model = Ensemble(
        kind="rf", trees=[t1, t2], learning_rate=1.0, base_margin=0.0,
        n_features=2, schema_fingerprint="raw:2", config=TrainConfig(),
        bin_edges=[np.array([0.5]), np.empty(0)],
    )
    assert predict(model, np.zeros((3, 2))).tolist() == [0.5, 0.5, 0.5]


def test_missing_values_routed_by_direction():
    x = np.array([[1.0], [4.0], [np.nan], [np.nan], [2.0], [3.0]])
    y = np.array([False, True, True, True, False, True])
    config = TrainConfig(n_trees=3, max_depth=2, min_child_weight=0.0, lam=0.1)
    model = fit(train_xgb, x, y, config=config)
    p = predict(model, x)
    assert np.isfinite(p).all()
    # NaN rows got pushed toward the positive side by the learned direction
    assert p[2] > 0.5 and p[3] > 0.5


def test_model_serialization_round_trip(tmp_path, small_matrix):
    tc = TrainConfig(n_trees=2, max_depth=3, seed=4)
    model = fit(train_xgb, small_matrix, config=tc)
    path = tmp_path / "model.json"
    save_model(path, model, run_id="deadbeef")
    loaded = load_model(path)
    assert loaded.kind == "xgb"
    assert loaded.base_margin == model.base_margin
    assert loaded.schema_fingerprint == model.schema_fingerprint
    np.testing.assert_array_equal(
        predict(loaded, small_matrix), predict(model, small_matrix)
    )
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save_model(path2, loaded, run_id="deadbeef")
    assert path.read_bytes() == path2.read_bytes()


def _small_model_doc() -> dict:
    x, y = _linearly_separable()
    config = TrainConfig(n_trees=2, max_depth=2, min_child_weight=0.0)
    return model_to_doc(fit(train_xgb, x, y, config=config), run_id="r")


def _first_split(doc: dict) -> dict:
    return doc["trees"][0]["nodes"][0]


def _edited(edit):
    def apply(doc):
        edit(doc)
        return json.dumps(doc).encode()

    return apply


_MALFORMED_MODELS = {
    "invalid_json": lambda doc: json.dumps(doc).encode()[:-3],
    "not_an_object": lambda doc: b"[1, 2]",
    "not_utf8": lambda doc: b"\xff" + json.dumps(doc).encode(),
    "missing_trees": _edited(lambda doc: doc.pop("trees")),
    "missing_node_key": _edited(lambda doc: _first_split(doc).pop("right")),
    "n_features_is_a_string": _edited(lambda doc: doc.update(n_features="1")),
    "config_is_a_list": _edited(lambda doc: doc.update(config=[])),
    "config_value_is_a_string": _edited(lambda doc: doc["config"].update(max_depth="2")),
    "nodes_is_a_dict": _edited(lambda doc: doc["trees"][0].update(nodes={})),
    "node_is_a_number": _edited(lambda doc: doc["trees"][0]["nodes"].append(3)),
    "threshold_is_null": _edited(lambda doc: _first_split(doc).update(threshold=None)),
    "missing_left_is_a_number": _edited(lambda doc: _first_split(doc).update(missing_left=1)),
    "feature_out_of_range": _edited(lambda doc: _first_split(doc).update(feature=1)),
    # a child at or before its parent made prediction loop forever
    "child_is_its_parent": _edited(lambda doc: _first_split(doc).update(left=0)),
    "child_past_the_end": _edited(lambda doc: _first_split(doc).update(right=99)),
    "empty_tree": _edited(lambda doc: doc["trees"][0].update(nodes=[])),
    "bin_edges_ragged": _edited(lambda doc: doc.update(bin_edges=[[1.0, [2.0]]])),
    # the root splits feature 0 at bin 1, threshold 2.0, under edges [1.0, 2.0, 3.0]
    "bin_edges_per_feature_twice": _edited(lambda doc: doc.update(bin_edges=doc["bin_edges"] * 2)),
    "bin_edges_descending": _edited(lambda doc: doc.update(bin_edges=[[3.0, 2.0, 1.0]])),
    "bin_edge_is_nan": _edited(lambda doc: doc.update(bin_edges=[[1.0, 2.0, math.nan]])),
    "bin_edge_overflows": _edited(lambda doc: doc["bin_edges"][0].insert(0, -(10**400))),
    "bin_is_negative": _edited(lambda doc: _first_split(doc).update(bin=-2)),
    "bin_past_the_end": _edited(lambda doc: _first_split(doc).update(bin=3)),
    "threshold_is_not_its_edge": _edited(lambda doc: _first_split(doc).update(threshold=2.5)),
}


@pytest.mark.parametrize("corrupt", list(_MALFORMED_MODELS.values()), ids=list(_MALFORMED_MODELS))
def test_load_model_rejects_a_malformed_file(tmp_path, corrupt):
    doc = _small_model_doc()
    assert "value" not in _first_split(doc)  # the edits above need a split at the root
    path = tmp_path / "model.json"
    path.write_bytes(corrupt(doc))
    with pytest.raises(ValidationError):
        load_model(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.binary(min_size=1)), max_size=4))
def test_corrupt_model_file_loads_or_raises_a_jamcast_error(edits):
    """Overwritten bytes anywhere in a model file never escape as another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        data = bytearray(json.dumps(_small_model_doc()).encode())
        for where, new in edits:
            at = int(where * len(data))
            data[at : at + len(new)] = new
        path.write_bytes(data)
        try:
            model = load_model(path)
        except (JamcastError, OSError):
            return
    # whatever loads also predicts
    if model.n_features == 1:
        assert predict(model, np.zeros((3, 1))).shape == (3,)


_CELLS = [-math.inf, -1.5, 0.0, 2.0, 3.5, 7.0, math.inf, math.nan]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([train_rf, train_gbt, train_xgb]),
    st.integers(1, 3),
    st.sampled_from([2, 4, 256]),
    st.booleans(),
    st.data(),
)
def test_binned_prediction_matches_raw_thresholds(train, n_features, max_bins, inf_first, data):
    """Binned routing predicts exactly what the raw-threshold walk does, also at
    edge values, between edges, on NaN and on +-inf, with -inf training edges."""
    n_rows = data.draw(st.integers(4, 40))
    cells = st.lists(st.sampled_from(_CELLS), min_size=n_rows * n_features,
                     max_size=n_rows * n_features)
    x = np.array(data.draw(cells)).reshape(n_rows, n_features)
    if inf_first:  # every column's first edge is -inf
        x[0] = -math.inf
    y = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    config = TrainConfig(n_trees=3, max_depth=3, max_bins=max_bins, min_child_weight=0.0,
                         lam=0.1, subsample_features=0.6, seed=1)
    model = fit(train, x, y, config=config)
    columns = []
    for e in model.bin_edges:
        finite = e[np.isfinite(e)]
        between = (finite[:-1] + finite[1:]) / 2
        pool = [*e.tolist(), *between.tolist(), -math.inf, math.inf, math.nan]
        columns.append(st.one_of(st.sampled_from(pool), st.floats(-10, 10)))
    n_pred = data.draw(st.integers(1, 30))
    rows = data.draw(st.lists(st.tuples(*columns), min_size=n_pred, max_size=n_pred))
    values = np.array(rows, dtype=np.float64).reshape(n_pred, n_features)
    assert np.array_equal(predict(model, values), reference_predict(model, values))


def test_model_doc_excludes_worker_count(small_matrix):
    tc = TrainConfig(n_trees=1, max_depth=2, n_workers=4)
    doc = model_to_doc(fit(train_xgb, small_matrix, config=tc))
    assert "n_workers" not in doc["config"]
    assert doc["config"]["max_depth"] == 2


def test_schema_fingerprint_checked(small_matrix):
    from jamcast.ingest import FeatureMatrix, schema_for

    model = fit(train_xgb, small_matrix, config=TrainConfig(n_trees=1, max_depth=2))
    honest = FeatureMatrix(
        values=small_matrix.values[:10, :10],
        labels=small_matrix.labels[:10],
        schema=schema_for("honest"),
    )
    with pytest.raises(ValidationError):
        predict(model, honest)


# ---------------------------------------------------------------------------
# exact histogram sums


@pytest.fixture(scope="module")
def honest_matrix():
    """A small honest matrix: its trees split to full depth, unlike leaky ones."""
    matrix, _ = synthetic_matrix(6_000, seed=17, feature_set="honest")
    return matrix


def _rf_doc(monkeypatch, matrix, config, exact_sums):
    """Model document of an rf run, with the flag and top multiplicity of each tree.

    `exact_sums` replaces the engine's flag rule (tests only).
    """
    trees = []

    def flag_rule(labels, mult):
        trees.append((exact_sums(labels, mult), float(mult.max())))
        return trees[-1][0]

    monkeypatch.setattr(engine, "_exact_sums", flag_rule)
    return json.dumps(model_to_doc(fit(train_rf, matrix, config=config)), sort_keys=True), trees


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"n_workers": 2},
        {"bootstrap": False, "subsample_rows": 0.7},
        {"bootstrap": False, "subsample_rows": 0.7, "n_workers": 2},
        {"subsample_features": 0.6},
        {"subsample_features": 0.6, "n_workers": 2},
    ],
    ids=["w1", "w2", "no-bootstrap-w1", "no-bootstrap-w2", "features-w1", "features-w2"],
)
def test_rf_model_is_the_same_whichever_child_is_built(monkeypatch, honest_matrix, overrides):
    """rf sums are exact, so building the smaller child changes no model byte."""
    config = TrainConfig(n_trees=3, max_depth=6, max_leaves=40, seed=5, **overrides)
    smaller, trees = _rf_doc(monkeypatch, honest_matrix, config, engine._exact_sums)
    larger, _ = _rf_doc(monkeypatch, honest_matrix, config, lambda labels, mult: False)
    assert [flag for flag, _ in trees] == [True] * config.n_trees
    if config.bootstrap:
        assert all(top > 1 for _, top in trees)  # multiplicities above 1 occur
    assert smaller == larger


@pytest.mark.parametrize("train, smaller", [(train_rf, True), (train_gbt, False), (train_xgb, False)])
def test_built_child_is_the_smaller_one_only_where_sums_are_exact(
    monkeypatch, honest_matrix, train, smaller
):
    """rf builds the smaller child, gbt and xgb the larger; ties build the left one."""
    splits = []
    expand = engine.InlineSource.expand

    def recording(self, node_id, feature, bin_threshold, missing_left, left_id, right_id, build_id):
        hist = expand(
            self, node_id, feature, bin_threshold, missing_left, left_id, right_id, build_id
        )
        sizes = [len(self.state.nodes[c]) for c in (left_id, right_id)]
        splits.append((build_id, left_id, right_id, *sizes))
        return hist

    monkeypatch.setattr(engine.InlineSource, "expand", recording)
    # with min_child_weight 0, a child below max_depth needs a histogram iff it has 2 rows
    config = TrainConfig(n_trees=2, max_depth=6, max_leaves=40, min_child_weight=0.0, seed=5)
    fit(train, honest_matrix, config=config)
    both = [s for s in splits if s[0] is not None and min(s[3:]) >= 2]
    assert len(both) > 20
    for build_id, left_id, right_id, n_left, n_right in both:
        build_right = n_right < n_left if smaller else n_right > n_left
        assert build_id == (right_id if build_right else left_id)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n_rows", [1, 2, 17, 1000])
def test_sample_without_replacement_is_the_permutation_prefix(monkeypatch, n_rows, ties):
    if ties:  # few distinct keys, so the m-th key is shared by many rows
        uniforms = streams.uniforms
        monkeypatch.setattr(streams, "uniforms", lambda *a: np.floor(uniforms(*a) * 5) / 5)
    for fraction in (1e-9, 0.3, 0.5, 0.999, 1.0):
        config = TrainConfig(bootstrap=False, subsample_rows=fraction, seed=8)
        m = max(1, int(fraction * n_rows))
        for tree in range(3):
            perm = streams.permutation(streams.derive_seed(8, _TAG_BOOTSTRAP, tree), 0, n_rows)
            expected = np.zeros(n_rows, dtype=np.int64)
            expected[perm[:m]] = 1
            assert np.array_equal(_bootstrap_weights(config, tree, n_rows), expected)


def test_exact_sums_needs_0_1_labels_and_integer_weights_below_2_to_53():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert engine._exact_sums(y, np.array([0, 3, 1, 2]))
    assert engine._exact_sums(y.astype(bool), np.zeros(4, dtype=np.int32))
    assert engine._exact_sums(y, np.array([2**52 - 1, 0, 0, 0]))
    assert not engine._exact_sums(y, np.array([2**52, 2**52, 0, 0]))  # total 2**53
    assert not engine._exact_sums(y, np.array([-1, 1, 1, 1]))
    assert not engine._exact_sums(np.array([0.0, 0.5, 1.0, 0.0]), np.ones(4, dtype=np.int64))
    assert not engine._exact_sums(np.array([0.0, 2.0, 1.0, 0.0]), np.ones(4, dtype=np.int64))
    # float weights are not integer multiplicities, whatever their values
    assert not engine._exact_sums(y, np.array([0.5, 1.0, 1.0, 1.0]))
    assert not engine._exact_sums(y, np.array([1.0, np.nan, 1.0, 1.0]))
    assert not engine._exact_sums(y, np.ones(4))


def test_engine_sets_the_exact_sums_flag_per_tree(small_matrix):
    binned = quantize(small_matrix.values[:500], 16)
    y = small_matrix.labels[:500].astype(np.float64)
    source = engine.InlineSource(binned, y)
    assert not source.exact_sums
    source.begin_tree_weighted(np.full(500, 2))
    assert source.exact_sums
    source.begin_tree_weighted(np.full(500, 0.5))
    assert not source.exact_sums
    source.begin_tree_weighted(np.ones(500, dtype=np.int64))
    source.init_boost(0.0)
    source.begin_round(second_order=False)
    assert not source.exact_sums


def test_predict_rows_equal_predict_of_their_copy(small_matrix, tmp_path):
    """predict(rows=) bins only the chosen rows of the used features, bit for bit as a copy."""
    save_matrix(tmp_path / "m.tjm", small_matrix, EncodingMap())
    loaded, _ = load_matrix(tmp_path / "m.tjm")
    rng = np.random.default_rng(12)
    n = small_matrix.n_rows
    row_sets = (np.sort(rng.choice(n, n // 4, replace=False)), rng.integers(0, n, 3000),
                np.array([n - 1]))
    tc = TrainConfig(n_trees=3, max_depth=4, seed=3)
    for trainer in (train_rf, train_gbt, train_xgb):
        model = fit(trainer, small_matrix, config=tc)
        for rows in row_sets:
            want = predict(model, small_matrix.take(rows))
            for data in (small_matrix, loaded, small_matrix.values):
                assert predict(model, data, rows=rows).tobytes() == want.tobytes()
