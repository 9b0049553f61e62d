"""jamcast: traffic-jam prediction pipeline on synthetic Waze-style event streams.

Generate seeded alert/jam JSONL corpora, ingest them into numeric feature
matrices, train from-scratch tree ensembles (random forest, gradient boosted
trees, second-order regularized boosting) with deterministic data-parallel
histogram aggregation, and evaluate with AUC / precision / recall.
"""

__version__ = "0.1.0"
