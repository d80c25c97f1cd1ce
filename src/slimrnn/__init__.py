"""Reduced-gate recurrent network engine.

Implements a standard LSTM next to two slimmed variants (lstm6: all
gates removed in favor of a constant forget scalar; lstm_c6: additionally
a vector recurrence instead of a matrix) and a plain recurrent baseline,
with hand-derived exact gradients, a finite-difference oracle, and a
text-classification experiment harness.
"""

from .cells import (CellParams, OutputLayer, gate_override_step, init_cell,
                    init_output, lstm6_step, lstm_step, lstmc6_step,
                    output_layer_apply, param_count, run_cell, srnn_step,
                    step_mac_count)
from .data import (EmbeddingTable, SequenceBatch, VectorBatch, build_vocab,
                   embed_lookup, init_embedding, load_frozen_embeddings,
                   load_tsv_corpus, pad_or_truncate, synth_generate)
from .harness import (ExperimentConfig, SweepSpec, build_dataset, build_model,
                      cmd_bench, cmd_gradcheck, cmd_params, cmd_sweep,
                      cmd_train, load_checkpoint, save_checkpoint)
from .numerics import (activate, activate_grad_from_output, init_matrix,
                       make_rng, matvec)
from .training import (MetricsRecord, OptimizerState, SequenceClassifier,
                       bptt_gradients, evaluate, finite_difference_model,
                       finite_difference_oracle, loss_eval, model_gradients,
                       optimizer_step, train_epoch)

__version__ = "0.1.0"

__all__ = [
    "CellParams", "OutputLayer", "gate_override_step",
    "init_cell", "init_output", "lstm6_step", "lstm_step", "lstmc6_step",
    "output_layer_apply", "param_count", "run_cell", "srnn_step",
    "step_mac_count",
    "EmbeddingTable", "SequenceBatch", "VectorBatch", "build_vocab",
    "embed_lookup", "init_embedding", "load_frozen_embeddings",
    "load_tsv_corpus", "pad_or_truncate", "synth_generate",
    "ExperimentConfig", "SweepSpec", "build_dataset", "build_model",
    "cmd_bench", "cmd_gradcheck", "cmd_params", "cmd_sweep", "cmd_train",
    "load_checkpoint", "save_checkpoint",
    "activate", "activate_grad_from_output", "init_matrix", "make_rng",
    "matvec",
    "MetricsRecord", "OptimizerState", "SequenceClassifier",
    "bptt_gradients", "evaluate", "finite_difference_model",
    "finite_difference_oracle", "loss_eval", "model_gradients",
    "optimizer_step", "train_epoch",
    "__version__",
]
