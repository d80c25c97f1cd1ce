"""Rebuild the serial -> threaded table of README's evaluate section.

    python3 tools/threadgate.py

Each row is one cell: a model (variant, activation, m, n, T; one or two
directions) and a split of `rows` samples that `evaluate` runs as one slice.
A bidirectional model splits by direction, a one-direction model by row
halves. The grid is README's table plus cells around THREAD_MIN_EXPIT: srnn
halves at n = 100 with 20, 24 and 28 rows, and the lstm6 direction split at
n = 100 with 10, 12 and 14 rows. Per cell it prints:

- expit/call: the elements of a thread's largest `expit` call per step,
  counted by wrapping the engine's expit through one threaded forward;
- gate: what `_two_threads` decides at the module's thresholds;
- serial/threaded: the median over PAIRS (15) alternating pairs of serial
  `evaluate` seconds over threaded ones, above 1 where the thread pays, and
  the quartiles of those ratios.

Serial and threaded runs are forced the way the tests force them, by setting
both gates to math.inf, or to 0 (which threads a forward with no expit work
too). A `!` marks a cell whose decision the measurement contradicts beyond
its spread: it threads and its upper quartile is below 1, or it stays serial
and its lower quartile is above 1. The last lines place THREAD_MIN_EXPIT:
above the largest expit call that ran slower threaded (median below 1), and
at most the smallest from which every larger cell ran faster. BLAS is pinned
to one thread, as tools/bitprint.py pins it, and the engine is imported from
the src/ directory next to tools/. It takes about 30 s on a 2-vCPU machine.
"""

import os

# One BLAS thread, pinned before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from slimrnn import numerics, training  # noqa: E402
from slimrnn.cells import init_cell, init_output  # noqa: E402
from slimrnn.data import SequenceBatch, init_embedding  # noqa: E402
from slimrnn.numerics import make_rng  # noqa: E402
from slimrnn.training import SequenceClassifier, evaluate  # noqa: E402

PAPER = (32, 100, 500)  # m, n, T
DESK = (16, 32, 40)
ACTS = ("sigmoid", "tanh", "relu")
VARIANTS = ("srnn", "lstm", "lstm6", "lstm_c6")
VOCAB = 50
PAIRS = 15  # alternating serial/threaded pairs per cell
# (bidirectional, variants, activations, (m, n, T), rows)
GRID = [
    (True, ("lstm6",), ACTS, PAPER, (8, 16, 32, 64)),
    (True, ("lstm6",), ("sigmoid",), PAPER, (10, 12, 14)),
    (True, ("lstm6",), ACTS, DESK, (32, 128, 256, 500)),
    (False, VARIANTS, ACTS, PAPER, (32,)),
    (False, ("srnn",), ("sigmoid",), PAPER, (20, 24, 28)),
    (False, VARIANTS, ("tanh", "relu"), DESK, (500,)),
]


def build(variant, act, m, n, T, rows, bidirectional, seed=4100):
    rng = make_rng(seed)
    emb = init_embedding(rng, VOCAB, m)
    cell = init_cell(variant, m, n, act, 0.59, rng)
    cell_bwd = init_cell(variant, m, n, act, 0.59, rng) if bidirectional else None
    out = init_output(rng, 2 * n if bidirectional else n, 1)
    model = SequenceClassifier(cell=cell, out=out, emb=emb, cell_bwd=cell_bwd)
    batch = SequenceBatch(tokens=rng.integers(1, VOCAB, size=(rows, T)),
                          labels=rng.integers(0, 2, size=rows))
    return model, batch


def gated(gate, fn, *args):
    """fn(*args) with both thread gates set to gate."""
    saved = training.THREAD_MIN_EXPIT, training.THREAD_MIN_STATE
    training.THREAD_MIN_EXPIT = training.THREAD_MIN_STATE = gate
    try:
        return fn(*args)
    finally:
        training.THREAD_MIN_EXPIT, training.THREAD_MIN_STATE = saved


def largest_expit_call(model, batch) -> int:
    """Elements of the largest expit call in one threaded forward."""
    sizes = [0]
    real = numerics.expit

    def spy(x, *args, **kwargs):
        sizes.append(x.size)  # list.append is atomic under the GIL
        return real(x, *args, **kwargs)

    numerics.expit = spy
    try:
        gated(0, model.forward, model.emb.E[batch.tokens.T])
    finally:
        numerics.expit = real
    return max(sizes)


def speedups(model, batch) -> np.ndarray:
    """Serial over threaded evaluate seconds, one ratio per alternating pair."""
    def seconds(gate):
        start = time.perf_counter()
        gated(gate, evaluate, model, batch, "bce")
        return time.perf_counter() - start

    seconds(math.inf), seconds(0)  # warm both paths
    return np.array([seconds(math.inf) / seconds(0) for _ in range(PAIRS)])


def main() -> int:
    training.EVAL_BUDGET = 1 << 40  # every cell's rows are one slice
    print(f"THREAD_MIN_EXPIT = {training.THREAD_MIN_EXPIT}, "
          f"THREAD_MIN_STATE = {training.THREAD_MIN_STATE}")
    print()
    print("| split | variant | act | n | T | rows | expit/call | gate | serial/threaded "
          "| quartiles | |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    slower, faster = [], []
    started = time.perf_counter()
    for bidirectional, variants, acts, (m, n, T), row_counts in GRID:
        split = "direction" if bidirectional else "halves"
        for variant in variants:
            for act in acts:
                for rows in row_counts:
                    model, batch = build(variant, act, m, n, T, rows, bidirectional)
                    per_call = largest_expit_call(model, batch)
                    threads = training._two_threads(model.cell, rows, len(model.directions))
                    q1, median, q3 = np.percentile(speedups(model, batch), [25, 50, 75])
                    flag = "!" if (q3 < 1.0 if threads else q1 > 1.0) else ""
                    if per_call:
                        (faster if median >= 1.0 else slower).append(per_call)
                    print(f"| {split} | {variant} | {act} | {n} | {T} | {rows} | {per_call} "
                          f"| {'threads' if threads else 'serial'} | {median:.2f} "
                          f"| {q1:.2f}–{q3:.2f} | {flag} |", flush=True)
    print()
    slowest = max(slower, default=0)
    first = min((c for c in faster if c > slowest), default=None)
    print(f"THREAD_MIN_EXPIT belongs in ({slowest}, {first}]: a cell of {slowest} expit "
          f"elements per call ran slower threaded, and every cell from {first} up faster")
    print(f"({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
