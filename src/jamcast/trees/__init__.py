"""From-scratch tree-ensemble learning: quantization, histogram growth, trainers."""

from jamcast.trees.binning import BinnedMatrix, quantize
from jamcast.trees.grower import (
    DecisionTree,
    GradHistogram,
    SplitCandidate,
    TreeNode,
    build_histograms,
    find_best_split,
    leaf_weight,
    logistic_grad_hess,
    sigmoid,
    split_gain,
)
from jamcast.trees.training import (
    Ensemble,
    TrainConfig,
    load_model,
    model_to_doc,
    predict,
    save_model,
    train_gbt,
    train_rf,
    train_xgb,
)

__all__ = [
    "BinnedMatrix",
    "quantize",
    "GradHistogram",
    "SplitCandidate",
    "DecisionTree",
    "TreeNode",
    "build_histograms",
    "find_best_split",
    "leaf_weight",
    "logistic_grad_hess",
    "sigmoid",
    "split_gain",
    "Ensemble",
    "TrainConfig",
    "train_xgb",
    "train_gbt",
    "train_rf",
    "predict",
    "save_model",
    "load_model",
    "model_to_doc",
]
