"""From-scratch tree-ensemble learning: quantization, histogram growth, trainers."""
