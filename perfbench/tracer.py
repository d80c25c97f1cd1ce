"""Trace wrappers of the slimrnn benchmark.

A traced run replaces library functions at the module attributes their
callers resolve (run_cell where slimrnn.training looks it up, activate
where slimrnn.cells does, ...) and restores them afterwards. Nothing under
src/ changes. Each name is resolved when the run starts; one that no longer
exists is listed as absent, and so is every per-layer metric that needs it.

Timed wrappers add a call count and the seconds spent; counting wrappers
add only a count, so that the per-step dispatch they measure is not buried
under timer calls. Counts go to the scope the benchmark is in
("train:<model>", "eval:<model>", "certify").
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, layer, timed)
WRAPPED = (
    ("slimrnn.training", "run_cell", "run_cell", True),
    ("slimrnn.training", "embed_lookup", "embed_lookup", True),
    ("slimrnn.training", "output_layer_apply", "output_layer_apply", True),
    ("slimrnn.training", "loss_eval", "loss_eval", True),
    ("slimrnn.cells", "srnn_step", "step", False),
    ("slimrnn.cells", "lstm_step", "step", False),
    ("slimrnn.cells", "lstm6_step", "step", False),
    ("slimrnn.cells", "lstmc6_step", "step", False),
    ("slimrnn.cells", "activate", "activate", False),
    ("slimrnn.training", "activate", "activate", False),
    ("slimrnn.training", "activate_grad_from_output", "activate_grad", False),
    ("slimrnn.cells", "matvec", "matvec", False),
    ("slimrnn.harness", "bptt_gradients", "bptt_gradients", True),
    ("slimrnn.harness", "finite_difference_oracle", "finite_difference_oracle", True),
    ("slimrnn.harness", "init_cell", "init_cell", False),
)

# Spans inside model_gradients whose time is not BPTT self time.
FORWARD_LAYERS = ("run_cell", "embed_lookup", "output_layer_apply", "loss_eval")


class Tracer:
    """Per-scope [calls, seconds] for every wrapped layer."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self._current = self.stats["-"]
        self._targets = []
        self.absent = []
        self.layers = set()
        for modname, attr, layer, timed in WRAPPED:
            try:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrap = self._timed if timed else self._counted
            self._targets.append((module, attr, fn, wrap(layer, fn)))
            self.layers.add(layer)

    def _timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            rec = self._current[layer]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[0] += 1
                rec[1] += time.perf_counter() - t0
        return wrapper

    def _counted(self, layer, fn):
        def wrapper(*args, **kwargs):
            self._current[layer][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn, _ in self._targets:
                setattr(module, attr, fn)

    @contextmanager
    def scope(self, name: str):
        outer, self._current = self._current, self.stats[name]
        try:
            yield
        finally:
            self._current = outer
