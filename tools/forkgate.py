"""Rebuild the serial -> helper tables of README's model_gradients and
evaluate sections.

    python3 tools/forkgate.py

Each row is one cell: a benchmark model (srnn, lstm, lstm6, lstm_c6 and
bidirectional lstm6) at one workload's shape (desk, certify or paper: its
activation, m, n and T) and B samples, which `model_gradients` takes as
one batch in the first table and `evaluate` as one slice in the second.
The B values run from where the helper stops paying up to each workload's
training batch (first table) and test split (second table). Per cell it
prints:

- sample-steps, B x T x directions, the count its table's gate
  (FORK_MIN_SAMPLE_STEPS, EVAL_FORK_MIN_SAMPLE_STEPS) is compared with;
- gate: what the call decides at the module's threshold;
- serial/helper: the median over PAIRS (9) alternating pairs of serial
  seconds over seconds with the second share (a row half, or a
  bidirectional evaluate slice's bwd. direction) run in the helper
  process, above 1 where the helper pays, and the quartiles of those
  ratios;
- one CPU: of those pairs, how many left the helper, after its call, last
  on the CPU this process runs on (field 39 of /proc/<pid>/stat), where
  the two shares may not have run at once. A cell that reads near serial
  speed with most of its pairs on one CPU says little about its gate.

Serial and helper runs are forced the way the tests force them, by setting
the gate to math.inf or to 0. A new helper reads slower than it is for
its first several seconds (the scheduler can keep it on this process's
CPU), so before the first table the tool alternates serial and split desk
lstm6 calls until SETTLED pairs in a row ran faster split, for 30 s at
most, and prints the wait; each cell is warmed on both paths first, so the
helper holds a mapping large enough for the cell. A `!` marks a cell whose
decision the measurement contradicts beyond its spread: it splits and its
upper quartile is below 1, or it stays serial and its lower quartile is
above 1. The line after each table places its gate: above the largest
count that ran slower with the helper (median below 1), and at most the
smallest from which every larger cell ran faster. BLAS is pinned to one
thread, as perfbench/run.py pins it, and the engine is imported from the
src/ directory next to tools/. It takes about a minute on a 2-vCPU
machine.
"""

import os

# One BLAS thread, pinned before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from slimrnn import training  # noqa: E402
from slimrnn.cells import init_cell, init_output  # noqa: E402
from slimrnn.data import SequenceBatch, init_embedding  # noqa: E402
from slimrnn.numerics import make_rng  # noqa: E402
from slimrnn.training import SequenceClassifier, evaluate, model_gradients  # noqa: E402

PAIRS = 9  # alternating serial/helper pairs per cell
BENCH_MODELS = (("srnn", "srnn", False), ("lstm", "lstm", False),
                ("lstm6", "lstm6", False), ("lstm_c6", "lstm_c6", False),
                ("lstm6_bidir", "lstm6", True))
SETTLED = 10  # pairs in a row, faster split, that end the warm-up


# Per table: the gate, the call it decides for, and its cells' grid:
# (workload, activation, (m, n, T), B values)
TABLES = [
    ("FORK_MIN_SAMPLE_STEPS", model_gradients, [
        ("certify", "sigmoid", (8, 8, 5), (8, 16, 32, 64, 128)),
        ("desk", "tanh", (16, 32, 40), (2, 4, 8, 16, 32)),
        ("paper", "sigmoid", (32, 100, 500), (2, 32)),
    ]),
    ("EVAL_FORK_MIN_SAMPLE_STEPS", evaluate, [
        ("certify", "sigmoid", (8, 8, 5), (20, 128, 256, 512, 1024)),
        ("desk", "tanh", (16, 32, 40), (16, 32, 64, 128, 500)),
        ("paper", "sigmoid", (32, 100, 500), (2, 4, 8, 32)),
    ]),
]


def build(variant, act, m, n, T, B, bidirectional, vocab=50, seed=4200):
    rng = make_rng(seed)
    emb = init_embedding(rng, vocab, m)
    cell = init_cell(variant, m, n, act, 0.59, rng)
    cell_bwd = init_cell(variant, m, n, act, 0.59, rng) if bidirectional else None
    out = init_output(rng, 2 * n if bidirectional else n, 1)
    model = SequenceClassifier(cell=cell, out=out, emb=emb, cell_bwd=cell_bwd)
    batch = SequenceBatch(tokens=rng.integers(1, vocab, size=(B, T)),
                          labels=rng.integers(0, 2, size=B))
    return model, batch


def seconds(name, gate, call, args) -> float:
    """Seconds of call(*args) with the gate called name set to gate."""
    saved = getattr(training, name)
    setattr(training, name, gate)
    try:
        start = time.perf_counter()
        call(*args)
        return time.perf_counter() - start
    finally:
        setattr(training, name, saved)


def speedups(name, call, args) -> tuple[np.ndarray, int]:
    """Serial over helper seconds of call(*args) under the gate called
    name, one ratio per alternating pair, and the number of pairs whose
    helper call left the helper on this process's CPU."""
    seconds(name, math.inf, call, args), seconds(name, 0, call, args)  # warm both paths
    ratios, shared = [], 0
    for _ in range(PAIRS):
        ratios.append(seconds(name, math.inf, call, args) / seconds(name, 0, call, args))
        shared += on_one_cpu()
    return np.array(ratios), shared


def cpu(pid: int) -> int | None:
    """The CPU that process pid last ran on (field 39 of /proc/<pid>/stat),
    or None where /proc does not list it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])
    except OSError:
        return None


def on_one_cpu() -> bool:
    """Whether this process's helper last ran on the CPU this process runs
    on."""
    here = cpu(os.getpid())
    return (training._helper is not None and here is not None
            and cpu(training._helper.pid) == here)


def settle() -> tuple[float, int, bool]:
    """Alternate serial and split model_gradients calls (desk lstm6) until
    SETTLED pairs in a row ran faster split, or for 30 s at most, and
    return the seconds taken, the pairs run and whether the run was
    reached. One faster pair is not enough: cells measured before the
    helper settles read it slower than it is."""
    args = (*build("lstm6", "tanh", 16, 32, 40, 32, False), "bce")
    started, pairs, run = time.perf_counter(), 0, 0
    while run < SETTLED and time.perf_counter() - started < 30:
        serial = seconds("FORK_MIN_SAMPLE_STEPS", math.inf, model_gradients, args)
        run = run + 1 if seconds("FORK_MIN_SAMPLE_STEPS", 0, model_gradients, args) < serial else 0
        pairs += 1
    return time.perf_counter() - started, pairs, run == SETTLED


def table(name, call, grid):
    """Print one gate's table and where the gate belongs."""
    gate = getattr(training, name)
    print(f"{name} = {gate}")
    print()
    print("| workload | model | B | sample-steps | gate | serial/helper | quartiles "
          "| one CPU | |")
    print("|---|---|---|---|---|---|---|---|---|")
    slower, faster = [], []
    for workload, act, (m, n, T), batch_sizes in grid:
        for B in batch_sizes:
            for key, variant, bidirectional in BENCH_MODELS:
                model, batch = build(variant, act, m, n, T, B, bidirectional)
                steps = B * T * len(model.directions)
                splits = B >= 2 and steps >= gate
                ratios, shared = speedups(name, call, (model, batch, "bce"))
                q1, median, q3 = np.percentile(ratios, [25, 50, 75])
                flag = "!" if (q3 < 1.0 if splits else q1 > 1.0) else ""
                (faster if median >= 1.0 else slower).append(steps)
                print(f"| {workload} | {key} | {B} | {steps} "
                      f"| {'splits' if splits else 'serial'} | {median:.2f} "
                      f"| {q1:.2f}–{q3:.2f} | {shared}/{PAIRS} | {flag} |", flush=True)
    print()
    slowest = max(slower, default=0)
    first = min((s for s in faster if s > slowest), default=None)
    print(f"{name} belongs in ({slowest}, {first}]: a cell of {slowest} "
          f"sample-steps ran slower with the helper, and every cell from {first} up faster")
    print()


def main() -> int:
    started = time.perf_counter()
    waited, pairs, settled = settle()
    print(f"(waited {waited:.1f} s, {pairs} serial/split pairs, until {SETTLED} in a row ran "
          "faster split)" if settled else f"(the helper did not settle: no {SETTLED} "
          f"serial/split pairs in a row ran faster split in {waited:.1f} s, {pairs} pairs)")
    print()
    for spec in TABLES:
        table(*spec)
    training._stop_helper()
    print(f"({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
