"""The three ensemble trainers, prediction, and model (de)serialization.

train_xgb: second-order boosting (logistic g and h), regularized gain.
train_gbt: first-order boosting, hessian fixed at 1 per row, so gains and
    leaf weights degenerate to the squared-gradient / SSE form.
train_rf:  bagged trees grown on gini impurity with per-node feature
    subsampling; prediction averages per-tree leaf positive fractions.

Each trainer takes its training rows already binned by `binning.quantize`
(with `config.max_bins`), so the caller quantizes a split once for every
kind it trains, and a trainer's time excludes that quantize. The feature
schema (`ingest.FeatureSchema`), when given, names the model's features;
without one the model's schema fingerprint is `raw:{n_features}`.

Trained ensembles are pure functions of (data, config, seed): all sampling
comes from the documented counter-based streams and all float accumulation
has a fixed structure, so model files are byte-identical for any n_workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from jamcast import rng
from jamcast.errors import ConfigError, ValidationError
from jamcast.manifest import write_json
from jamcast.trees.binning import BinnedMatrix, bin_codes, feature_columns
from jamcast.trees.engine import open_engine
from jamcast.trees.grower import (
    DecisionTree,
    TreeNode,
    grow_best_first,
    sigmoid,
    split_rows,
)

_TAG_BOOTSTRAP = 0x42535452  # per-tree bootstrap stream
_TAG_FEATURES = 0x46454154  # per-node feature-subset stream


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the three trainers; each field says which kinds read it."""

    n_trees: int = 100  # all kinds
    max_depth: int = 5  # all kinds
    max_leaves: int = 256  # all kinds
    learning_rate: float = 0.3  # gbt, xgb: shrinkage of each tree's leaf values
    lam: float = 1.0  # gbt, xgb: leaf L2 regularization
    gamma: float = 0.0  # all kinds: minimum split gain
    min_child_weight: float = 1.0  # all kinds: minimum hessian (rf: row weight) per child
    max_bins: int = 256  # all kinds
    subsample_rows: float = 1.0  # rf: bagging fraction
    subsample_features: float = 1.0  # rf: fraction of features tried at each node
    bootstrap: bool = True  # rf: sample rows with replacement
    seed: int = 0  # rf: seeds the bootstrap and feature-subset streams
    n_workers: int = 1  # all kinds: execution only, never part of the model

    def validate(self) -> None:
        if self.n_trees < 0:
            raise ConfigError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1 or self.max_leaves < 2:
            raise ConfigError("max_depth must be >= 1 and max_leaves >= 2")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0 < self.subsample_rows <= 1 or not 0 < self.subsample_features <= 1:
            raise ConfigError("subsample fractions must be in (0, 1]")
        penalties = (self.lam, self.gamma, self.min_child_weight)
        if not all(math.isfinite(v) and v >= 0 for v in penalties):
            raise ConfigError("lam, gamma and min_child_weight must be finite and >= 0")
        if self.max_bins < 2:
            raise ConfigError(f"max_bins must be >= 2, got {self.max_bins}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")

    def identity(self) -> dict:
        """The fields that decide a model, for model files and run ids: all but n_workers."""
        doc = asdict(self)
        del doc["n_workers"]
        return doc


@dataclass
class Ensemble:
    """A trained model: averaged trees (rf) or additive margin trees (gbt/xgb)."""

    kind: str
    trees: list[DecisionTree]
    learning_rate: float
    base_margin: float
    n_features: int
    schema_fingerprint: str
    config: TrainConfig
    bin_edges: list[np.ndarray]  # per feature, strictly ascending: the bins splits route by
    feature_names: tuple[str, ...] | None = None


def _labels(binned: BinnedMatrix, labels) -> np.ndarray:
    y = np.asarray(labels).astype(np.float64)
    if y.shape != (binned.n_rows,):
        raise ValidationError("labels length must match the number of rows")
    return y


def _ensemble(kind, trees, learning_rate, base_margin, binned, config, schema) -> Ensemble:
    """The trained model, named by its schema, or by `raw:{n_features}` without one."""
    return Ensemble(
        kind=kind,
        trees=trees,
        learning_rate=learning_rate,
        base_margin=base_margin,
        n_features=binned.n_features,
        schema_fingerprint=f"raw:{binned.n_features}" if schema is None else schema.fingerprint(),
        config=config,
        bin_edges=binned.edges,
        feature_names=None if schema is None else tuple(schema.names()),
    )


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _leaf_deltas(tree: DecisionTree, learning_rate: float) -> list[tuple[int, float]]:
    return [
        (nid, learning_rate * node.value)
        for nid, node in enumerate(tree.nodes)
        if node.is_leaf
    ]


def _train_boosted(binned, labels, config, schema, *, second_order: bool) -> Ensemble:
    config.validate()
    y = _labels(binned, labels)
    base = _logit(min(max(float(y.mean()), 1e-12), 1.0 - 1e-12))
    engine = open_engine(binned, y, config.n_workers)
    trees: list[DecisionTree] = []
    try:
        engine.init_boost(base)
        for _ in range(config.n_trees):
            engine.begin_round(second_order)
            tree = grow_best_first(engine, config, binned.edges, objective="boost")
            engine.finalize_tree(_leaf_deltas(tree, config.learning_rate))
            trees.append(tree)
    finally:
        engine.close()
    kind = "xgb" if second_order else "gbt"
    return _ensemble(kind, trees, config.learning_rate, base, binned, config, schema)


def train_xgb(binned: BinnedMatrix, labels, config: TrainConfig, schema=None) -> Ensemble:
    """Second-order regularized boosting on the logistic loss."""
    return _train_boosted(binned, labels, config, schema, second_order=True)


def train_gbt(binned: BinnedMatrix, labels, config: TrainConfig, schema=None) -> Ensemble:
    """First-order gradient boosting: h fixed to 1 per row."""
    return _train_boosted(binned, labels, config, schema, second_order=False)


def _bootstrap_weights(config: TrainConfig, tree_index: int, n_rows: int) -> np.ndarray:
    """Per-row integer multiplicities of one tree's sample: m draws with
    replacement, or without it the m rows of smallest uniform key, ties to
    the lower index.

    The sample without replacement is the first m rows of
    `rng.permutation(sub_seed, 0, n_rows)`, selected in O(n) by a partition
    at the m-th smallest key instead of a sort of all keys.
    """
    m = max(1, int(config.subsample_rows * n_rows))
    sub_seed = rng.derive_seed(config.seed, _TAG_BOOTSTRAP, tree_index)
    if config.bootstrap:
        draws = rng.integers(sub_seed, 0, 0, m, n_rows)
        return np.bincount(draws, minlength=n_rows)
    if m >= n_rows:
        return np.ones(n_rows, dtype=np.int64)
    keys = rng.uniforms(sub_seed, 0, 0, n_rows)
    kth = np.partition(keys, m - 1)[m - 1]
    mult = (keys < kth).astype(np.int64)
    n_tied = m - int(mult.sum())
    mult[np.flatnonzero(keys == kth)[:n_tied]] = 1
    return mult


def train_rf(binned: BinnedMatrix, labels, config: TrainConfig, schema=None) -> Ensemble:
    """Random forest: bootstrap bagging, gini splits, per-node feature subsets."""
    config.validate()
    y = _labels(binned, labels)
    n_features = binned.n_features
    k = max(1, int(config.subsample_features * n_features))
    engine = open_engine(binned, y, config.n_workers)
    trees: list[DecisionTree] = []
    try:
        for t in range(config.n_trees):
            engine.begin_tree_weighted(_bootstrap_weights(config, t, binned.n_rows))
            if k < n_features:
                feat_seed = rng.derive_seed(config.seed, _TAG_FEATURES, t)

                def picker(node_id: int, _seed=feat_seed) -> np.ndarray:
                    perm = rng.permutation(_seed, node_id, n_features)
                    return np.sort(perm[:k])

            else:
                picker = None
            tree = grow_best_first(
                engine,
                config,
                binned.edges,
                objective="gini",
                feature_picker=picker,
            )
            engine.finalize_tree([])
            trees.append(tree)
    finally:
        engine.close()
    return _ensemble("rf", trees, 1.0, 0.0, binned, config, schema)


# the one registry of model kinds: the CLI, the bench and load_model read it
TRAINERS = {"rf": train_rf, "gbt": train_gbt, "xgb": train_xgb}


def _leaf_values(tree: DecisionTree, codes: dict[int, np.ndarray], edges, n_rows: int):
    """Each row's leaf value, routing rows by their bin codes as training did."""
    out = np.empty(n_rows, dtype=np.float64)
    stack = [(0, np.arange(n_rows))]
    while stack:
        nid, rows = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out[rows] = node.value
            continue
        f = node.feature
        left, right = split_rows(
            rows, codes[f], node.bin_threshold, edges[f].size + 1, node.missing_goes_left
        )
        stack += [(node.left, left), (node.right, right)]
    return out


def predict(ensemble: Ensemble, matrix, rows: np.ndarray | None = None) -> np.ndarray:
    """Probability of the positive class for each row of `matrix`, or for
    each of `rows` in that order, exactly as for a copy of those rows.

    `matrix` is a FeatureMatrix, whose schema must be the model's and whose
    columns are read from its store, or an in-memory (n_rows, n_features)
    array (a 1-d array is one row). Only the features the trees split on
    are read, and only at the rows predicted; each tree routes rows by
    their bin codes under bin_edges, as training did.
    rf: mean of per-tree leaf fractions. Boosting kinds:
    sigmoid(base_margin + learning_rate * sum of leaf weights).
    """
    if hasattr(matrix, "schema_fingerprint"):
        if matrix.schema_fingerprint != ensemble.schema_fingerprint:
            raise ValidationError(
                "matrix schema fingerprint does not match the model's training schema"
            )
    else:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.shape[1] != ensemble.n_features:
            raise ValidationError(
                f"expected {ensemble.n_features} features, got {matrix.shape[1]}"
            )
    n_rows, _, column = feature_columns(matrix, rows)
    used = {n.feature for tree in ensemble.trees for n in tree.nodes if not n.is_leaf}
    codes = {}
    for f in sorted(used):
        edges = ensemble.bin_edges[f]
        out = np.empty(n_rows, dtype=np.min_scalar_type(edges.size + 1))
        codes[f] = bin_codes(column(f), edges, out)
    rf = ensemble.kind == "rf"
    if rf and not ensemble.trees:
        return np.full(n_rows, 0.5)
    out = np.full(n_rows, 0.0 if rf else ensemble.base_margin)
    for tree in ensemble.trees:
        leaf = _leaf_values(tree, codes, ensemble.bin_edges, n_rows)
        out += leaf if rf else ensemble.learning_rate * leaf
    return out / len(ensemble.trees) if rf else sigmoid(out)


# ---------------------------------------------------------------------------
# serialization: versioned, human-diffable JSON; byte-identical given the
# same trained model (no timestamps, no worker count)

MODEL_FORMAT = "jamcast-model"
MODEL_VERSION = 1


def _node_to_doc(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "bin": node.bin_threshold,
        "threshold": node.threshold,
        "missing_left": node.missing_goes_left,
        "left": node.left,
        "right": node.right,
        "gain": node.gain,
    }


_NUMBER = (int, float)


def _typed(doc: dict, key: str, types: tuple[type, ...]):
    """doc[key], whose JSON type must be one of `types` (a bool is not a number)."""
    value = doc[key]
    if type(value) not in types:
        raise TypeError(f"{key!r} is a {type(value).__name__}")
    return value


def _node_from_doc(doc: dict, node_id: int, n_nodes: int, edges: list[np.ndarray]) -> TreeNode:
    if "value" in doc:
        return TreeNode(value=float(_typed(doc, "value", _NUMBER)))
    node = TreeNode(
        feature=_typed(doc, "feature", (int,)),
        bin_threshold=_typed(doc, "bin", (int,)),
        threshold=float(_typed(doc, "threshold", _NUMBER)),
        missing_goes_left=_typed(doc, "missing_left", (bool,)),
        left=_typed(doc, "left", (int,)),
        right=_typed(doc, "right", (int,)),
        gain=float(_typed(doc, "gain", _NUMBER)) if "gain" in doc else math.nan,
    )
    # children follow their parent, so prediction always reaches a leaf, and
    # prediction routes by `bin`, which must name the edge `threshold` records
    if not (
        0 <= node.feature < len(edges)
        and node_id < node.left < n_nodes
        and node_id < node.right < n_nodes
        and 0 <= node.bin_threshold < edges[node.feature].size
        and edges[node.feature][node.bin_threshold] == node.threshold
    ):
        raise ValueError(f"node {node_id} has a bad feature, child or bin index")
    return node


def _tree_from_doc(doc: dict, edges: list[np.ndarray]) -> DecisionTree:
    nodes = _typed(doc, "nodes", (list,))
    if not nodes:
        raise ValueError("a tree has no nodes")
    return DecisionTree(
        nodes=[_node_from_doc(n, i, len(nodes), edges) for i, n in enumerate(nodes)]
    )


def model_to_doc(ensemble: Ensemble, run_id: str | None = None) -> dict:
    """JSON-ready document for a trained ensemble.

    Its config is `TrainConfig.identity()`, so files stay byte-identical
    across worker counts.
    """
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": ensemble.kind,
        "base_margin": ensemble.base_margin,
        "learning_rate": ensemble.learning_rate,
        "n_features": ensemble.n_features,
        "schema_fingerprint": ensemble.schema_fingerprint,
        "feature_names": list(ensemble.feature_names) if ensemble.feature_names else None,
        "config": ensemble.config.identity(),
        "bin_edges": [edges.tolist() for edges in ensemble.bin_edges],
        "trees": [{"nodes": [_node_to_doc(n) for n in t.nodes]} for t in ensemble.trees],
        "run_id": run_id,
    }


def save_model(path: str | Path, ensemble: Ensemble, run_id: str | None = None) -> str:
    """Write the model file; its sha256. A non-finite value (a bin edge at -inf) is a
    ValidationError."""
    return write_json(path, model_to_doc(ensemble, run_id))


def load_model(path: str | Path) -> Ensemble:
    """Read a model file; malformed JSON, keys, types, tree links or bins are a ValidationError."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data)
        if doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_VERSION:
            raise ValidationError(f"not a {MODEL_FORMAT} v{MODEL_VERSION} file: {path}")
        kind = _typed(doc, "kind", (str,))
        if kind not in TRAINERS:
            raise ValidationError(f"unknown model kind {kind!r}")
        config_fields = {f.name for f in fields(TrainConfig)}
        config = TrainConfig(
            **{k: v for k, v in _typed(doc, "config", (dict,)).items() if k in config_fields}
        )
        config.validate()
        n_features = _typed(doc, "n_features", (int,))
        edges = [np.asarray(e, dtype=np.float64) for e in _typed(doc, "bin_edges", (list,))]
        if len(edges) != n_features or any(
            e.ndim != 1 or np.isnan(e).any() or not (e[1:] > e[:-1]).all() for e in edges
        ):
            raise ValueError("bin_edges must be one strictly ascending array per feature")
        trees = [_tree_from_doc(t, edges) for t in _typed(doc, "trees", (list,))]
        names = _typed(doc, "feature_names", (list, type(None)))
        return Ensemble(
            kind=kind,
            trees=trees,
            learning_rate=float(_typed(doc, "learning_rate", _NUMBER)),
            base_margin=float(_typed(doc, "base_margin", _NUMBER)),
            n_features=n_features,
            schema_fingerprint=_typed(doc, "schema_fingerprint", (str,)),
            config=config,
            bin_edges=edges,
            feature_names=tuple(names) if names else None,
        )
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError,
            ConfigError) as exc:
        raise ValidationError(f"{path}: corrupt model file ({exc})") from None
