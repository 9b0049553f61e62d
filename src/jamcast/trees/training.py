"""The three ensemble trainers, prediction, and model (de)serialization.

train_xgb: second-order boosting (logistic g and h), regularized gain.
train_gbt: first-order boosting, hessian fixed at 1 per row, so gains and
    leaf weights degenerate to the squared-gradient / SSE form.
train_rf:  bagged trees grown on gini impurity with per-node feature
    subsampling; prediction averages per-tree leaf positive fractions.

Trained ensembles are pure functions of (data, config, seed): all sampling
comes from the documented counter-based streams and all float accumulation
has a fixed structure, so model files are byte-identical for any n_workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from jamcast import rng
from jamcast.errors import ConfigError, ValidationError
from jamcast.trees.binning import quantize
from jamcast.trees.engine import open_engine
from jamcast.trees.grower import (
    DecisionTree,
    TreeNode,
    grow_best_first,
    sigmoid,
)

_TAG_BOOTSTRAP = 0x42535452  # per-tree bootstrap stream
_TAG_FEATURES = 0x46454154  # per-node feature-subset stream

_KINDS = ("rf", "gbt", "xgb")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by the three trainers."""

    n_trees: int = 100
    max_depth: int = 5
    max_leaves: int = 256
    learning_rate: float = 0.3
    lam: float = 1.0  # leaf L2 regularization
    gamma: float = 0.0  # minimum split gain
    min_child_weight: float = 1.0
    max_bins: int = 256
    subsample_rows: float = 1.0  # RF bagging fraction; boosting ignores it
    subsample_features: float = 1.0
    bootstrap: bool = True  # RF: sample rows with replacement
    seed: int = 0
    n_workers: int = 1

    def validate(self) -> None:
        if self.n_trees < 0:
            raise ConfigError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1 or self.max_leaves < 2:
            raise ConfigError("max_depth must be >= 1 and max_leaves >= 2")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0 < self.subsample_rows <= 1 or not 0 < self.subsample_features <= 1:
            raise ConfigError("subsample fractions must be in (0, 1]")
        if self.lam < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ConfigError("lam, gamma and min_child_weight must be >= 0")
        if self.max_bins < 2:
            raise ConfigError(f"max_bins must be >= 2, got {self.max_bins}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")


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
    bin_edges: list[np.ndarray] = field(default_factory=list)
    feature_names: tuple[str, ...] | None = None


def _unpack(matrix, labels):
    if hasattr(matrix, "values") and hasattr(matrix, "labels"):
        values = matrix.values
        if labels is None:
            labels = matrix.labels
        fingerprint = matrix.schema_fingerprint
        names = tuple(matrix.schema.names())
    else:
        values = np.asarray(matrix, dtype=np.float64)
        fingerprint = f"raw:{values.shape[1]}"
        names = None
    if labels is None:
        raise ValidationError("labels are required when training from a bare matrix")
    y = np.asarray(labels).astype(np.float64)
    if y.shape != (values.shape[0],):
        raise ValidationError("labels length must match the number of rows")
    return values, y, fingerprint, names


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _leaf_deltas(tree: DecisionTree, learning_rate: float) -> list[tuple[int, float]]:
    return [
        (nid, learning_rate * node.value)
        for nid, node in enumerate(tree.nodes)
        if node.is_leaf
    ]


def _train_boosted(matrix, labels, config: TrainConfig, *, second_order: bool) -> Ensemble:
    config.validate()
    values, y, fingerprint, names = _unpack(matrix, labels)
    binned = quantize(values, config.max_bins, n_threads=config.n_workers)
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
    return Ensemble(
        kind="xgb" if second_order else "gbt",
        trees=trees,
        learning_rate=config.learning_rate,
        base_margin=base,
        n_features=binned.n_features,
        schema_fingerprint=fingerprint,
        config=config,
        bin_edges=binned.edges,
        feature_names=names,
    )


def train_xgb(matrix, labels=None, config: TrainConfig | None = None) -> Ensemble:
    """Second-order regularized boosting on the logistic loss."""
    return _train_boosted(matrix, labels, config or TrainConfig(), second_order=True)


def train_gbt(matrix, labels=None, config: TrainConfig | None = None) -> Ensemble:
    """First-order gradient boosting: h fixed to 1 per row."""
    return _train_boosted(matrix, labels, config or TrainConfig(), second_order=False)


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


def train_rf(matrix, labels=None, config: TrainConfig | None = None) -> Ensemble:
    """Random forest: bootstrap bagging, gini splits, per-node feature subsets."""
    config = config or TrainConfig()
    config.validate()
    values, y, fingerprint, names = _unpack(matrix, labels)
    binned = quantize(values, config.max_bins, n_threads=config.n_workers)
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
                leaf_value=lambda g, h: g / h,
                feature_picker=picker,
            )
            engine.finalize_tree([])
            trees.append(tree)
    finally:
        engine.close()
    return Ensemble(
        kind="rf",
        trees=trees,
        learning_rate=1.0,
        base_margin=0.0,
        n_features=n_features,
        schema_fingerprint=fingerprint,
        config=config,
        bin_edges=binned.edges,
        feature_names=names,
    )


def predict(ensemble: Ensemble, rows) -> np.ndarray:
    """Probability of the positive class for each row.

    rf: mean of per-tree leaf fractions. Boosting kinds:
    sigmoid(base_margin + learning_rate * sum of leaf weights).
    """
    if hasattr(rows, "values") and hasattr(rows, "schema_fingerprint"):
        if rows.schema_fingerprint != ensemble.schema_fingerprint:
            raise ValidationError(
                "matrix schema fingerprint does not match the model's training schema"
            )
        values = rows.values
    else:
        values = np.asarray(rows, dtype=np.float64)
        if values.ndim == 1:
            values = values[None, :]
        if values.shape[1] != ensemble.n_features:
            raise ValidationError(
                f"expected {ensemble.n_features} features, got {values.shape[1]}"
            )
    if ensemble.kind == "rf":
        if not ensemble.trees:
            return np.full(values.shape[0], 0.5)
        acc = np.zeros(values.shape[0], dtype=np.float64)
        for tree in ensemble.trees:
            acc += tree.predict_values(values)
        return acc / len(ensemble.trees)
    margin = np.full(values.shape[0], ensemble.base_margin, dtype=np.float64)
    for tree in ensemble.trees:
        margin += ensemble.learning_rate * tree.predict_values(values)
    return sigmoid(margin)


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


def _node_from_doc(doc: dict, node_id: int, n_nodes: int, n_features: int) -> TreeNode:
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
    # children follow their parent, so prediction always reaches a leaf
    if not (
        0 <= node.feature < n_features
        and node_id < node.left < n_nodes
        and node_id < node.right < n_nodes
    ):
        raise ValueError(f"node {node_id} has a bad feature or child index")
    return node


def _tree_from_doc(doc: dict, n_features: int) -> DecisionTree:
    nodes = _typed(doc, "nodes", (list,))
    if not nodes:
        raise ValueError("a tree has no nodes")
    return DecisionTree(
        nodes=[_node_from_doc(n, i, len(nodes), n_features) for i, n in enumerate(nodes)]
    )


def model_to_doc(ensemble: Ensemble, run_id: str | None = None) -> dict:
    """JSON-ready document for a trained ensemble.

    n_workers is an execution detail, not part of the model, and is omitted
    so files stay byte-identical across worker counts.
    """
    config = asdict(ensemble.config)
    config.pop("n_workers")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": ensemble.kind,
        "base_margin": ensemble.base_margin,
        "learning_rate": ensemble.learning_rate,
        "n_features": ensemble.n_features,
        "schema_fingerprint": ensemble.schema_fingerprint,
        "feature_names": list(ensemble.feature_names) if ensemble.feature_names else None,
        "config": config,
        "bin_edges": [edges.tolist() for edges in ensemble.bin_edges],
        "trees": [{"nodes": [_node_to_doc(n) for n in t.nodes]} for t in ensemble.trees],
        "run_id": run_id,
    }
    return doc


def save_model(path: str | Path, ensemble: Ensemble, run_id: str | None = None) -> None:
    doc = model_to_doc(ensemble, run_id)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_model(path: str | Path) -> Ensemble:
    """Read a model file; malformed JSON, keys, types or tree links are a ValidationError."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data)
        if doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_VERSION:
            raise ValidationError(f"not a {MODEL_FORMAT} v{MODEL_VERSION} file: {path}")
        kind = _typed(doc, "kind", (str,))
        if kind not in _KINDS:
            raise ValidationError(f"unknown model kind {kind!r}")
        config_fields = {f.name for f in fields(TrainConfig)}
        config = TrainConfig(
            **{k: v for k, v in _typed(doc, "config", (dict,)).items() if k in config_fields}
        )
        config.validate()
        n_features = _typed(doc, "n_features", (int,))
        trees = [_tree_from_doc(t, n_features) for t in _typed(doc, "trees", (list,))]
        names = _typed(doc, "feature_names", (list, type(None)))
        edges = _typed(doc, "bin_edges", (list,))
        return Ensemble(
            kind=kind,
            trees=trees,
            learning_rate=float(_typed(doc, "learning_rate", _NUMBER)),
            base_margin=float(_typed(doc, "base_margin", _NUMBER)),
            n_features=n_features,
            schema_fingerprint=_typed(doc, "schema_fingerprint", (str,)),
            config=config,
            bin_edges=[np.asarray(e, dtype=np.float64) for e in edges],
            feature_names=tuple(names) if names else None,
        )
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, ConfigError) as exc:
        raise ValidationError(f"{path}: corrupt model file ({exc})") from None
