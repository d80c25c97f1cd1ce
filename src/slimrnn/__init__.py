"""Reduced-gate recurrent network engine.

Implements a standard LSTM next to two slimmed variants (lstm6: all
gates removed in favor of a constant forget scalar; lstm_c6: additionally
a vector recurrence instead of a matrix) and a plain recurrent baseline,
with hand-derived exact gradients, a complex-step gradient oracle that
certifies them, and a text-classification experiment harness.

The names below are the documented surface; everything else is imported
from its submodule (slimrnn.cells, .data, .harness, .numerics, .training).
"""

import os

# One BLAS thread unless the environment names a count: a product that
# OpenBLAS splits over threads moves gradient bits. It binds only where
# NumPy is not loaded yet, so it comes before any submodule imports NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cells import init_cell, output_layer_apply, run_cell, step_mac_count
from .harness import (ExperimentConfig, build_dataset, build_model,
                      cmd_gradcheck, load_checkpoint, save_checkpoint)
from .training import (OptimizerState, SequenceClassifier, evaluate,
                       finite_difference_model, model_gradients,
                       optimizer_step, train_epoch)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "build_dataset", "build_model", "OptimizerState",
    "train_epoch", "evaluate", "save_checkpoint", "load_checkpoint",
    "init_cell", "run_cell", "output_layer_apply", "SequenceClassifier",
    "model_gradients", "finite_difference_model", "optimizer_step",
    "cmd_gradcheck", "step_mac_count", "__version__",
]
