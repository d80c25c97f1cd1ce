"""Rebuild the serial -> helper tables of README's model_gradients,
evaluate and gradcheck sections.

    python3 tools/forkgate.py

Each row is one cell. In the first two tables it is a benchmark model
(srnn, lstm, lstm6, lstm_c6 and bidirectional lstm6) at one workload's
shape (desk, certify or paper: its activation, m, n and T) and B samples,
which `model_gradients` takes as one batch in the first table and
`evaluate` as one slice in the second. The B values run from where the
helper stops paying up to each workload's training batch (first table) and
test split (second table). In the third it is a net that
`finite_difference_model` differences: the four variants and bidirectional
lstm at the dims (m, n, T, B) that cmd_gradcheck's three seeds draw at its
caps, under each activation, and at the property tests' tiny shapes, with a
vocabulary of 7 as cmd_gradcheck's. Its last three rows are whole
gradchecks: the one `finite_difference_models` call that `cmd_gradcheck`
makes over every net it draws, with each perfbench workload's settings
(certify: the caps, three seeds, every activation; desk and paper: the
caps, one seed, their own activation). Per cell it prints:

- the count its table's gate is compared with: sample-steps, B x T x
  directions (FORK_MIN_SAMPLE_STEPS, EVAL_FORK_MIN_SAMPLE_STEPS), or
  copy-steps, the oracle's recurrence copies x B x T x gate width summed
  over the call's nets (FD_FORK_MIN_COPY_STEPS);
- gate: what the call decides at the module's threshold;
- serial/helper: the median over PAIRS (9) alternating pairs of serial
  seconds over seconds with the second row half run in the helper
  process (the oracle's passes dealt to both processes, each taking the
  next untaken one), above 1 where the helper pays, and the quartiles of
  those ratios;
- one CPU: of those pairs, how many left the helper, after its call, last
  on the CPU this process runs on (field 39 of /proc/<pid>/stat), where
  the two halves may not have run at once. A cell that reads near serial
  speed with most of its pairs on one CPU says little about its gate.

Serial and helper runs are forced the way the tests force them, by setting
the gate to math.inf or to 0. Before the first table the tool runs split
calls until the new helper has left this process's CPU (10 s at most),
and each cell is warmed on both paths first, so the helper runs and
holds a mapping large enough for the cell. A `!` marks a cell whose
decision the measurement contradicts beyond its spread: it splits and its
upper quartile is below 1, or it stays serial and its lower quartile is
above 1. The line after each table places its gate: above the largest
count that ran slower with the helper (median below 1), and at most the
smallest from which every larger cell ran faster. BLAS is pinned to one
thread, as perfbench/run.py pins it, and the engine is imported from the
src/ directory next to tools/, and perfbench's workload table from the
directory above it. It takes about a minute on a 2-vCPU machine.
"""

import os

# One BLAS thread, pinned before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import itertools  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.core import WORKLOADS  # noqa: E402
from slimrnn import harness, training  # noqa: E402
from slimrnn.cells import gate_width, init_cell, init_output  # noqa: E402
from slimrnn.data import SequenceBatch, init_embedding  # noqa: E402
from slimrnn.numerics import make_rng  # noqa: E402
from slimrnn.training import (SequenceClassifier, evaluate,  # noqa: E402
                              finite_difference_model, finite_difference_models,
                              model_gradients)

PAIRS = 9  # alternating serial/helper pairs per cell
BENCH_MODELS = (("srnn", "srnn", False), ("lstm", "lstm", False),
                ("lstm6", "lstm6", False), ("lstm_c6", "lstm_c6", False),
                ("lstm6_bidir", "lstm6", True))
ORACLE_MODELS = BENCH_MODELS[:4] + (("lstm_bidir", "lstm", True),)


def sample_steps(model, batch):
    """B x T x directions, and whether the call may split at all (B >= 2)."""
    return len(batch) * batch.T * len(model.directions), len(batch) >= 2


def copy_steps(model, batch):
    """The oracle's recurrence copies x B x T x gate width; it deals any
    call."""
    copies = sum(training._oracle_passes(model)[2])
    return copies * len(batch) * batch.T * gate_width(model.cell), True


def gradcheck_nets(kwargs) -> list:
    """The nets cmd_gradcheck(**kwargs) hands its one oracle call."""
    calls, real = [], harness.finite_difference_oracle
    harness.finite_difference_oracle = lambda nets, *args, **kw: (
        calls.append(nets) or real(nets, *args, **kw))
    try:
        harness.cmd_gradcheck(**kwargs)
    finally:
        harness.finite_difference_oracle = real
    return calls[0]


def model_cells(call, count, models, vocab, grid):
    """(workload, model, B, call, its arguments, count(model, batch)) per
    cell of a model grid: (workload, activation, (m, n, T), B values)."""
    for workload, act, (m, n, T), batch_sizes in grid:
        for B in batch_sizes:
            for key, variant, bidirectional in models:
                model, batch = build(variant, act, m, n, T, B, bidirectional, vocab)
                yield workload, key, B, call, (model, batch, "bce"), count(model, batch)


def gradcheck_cells():
    """One cell per perfbench workload: the oracle call of its gradcheck."""
    for name, workload in WORKLOADS.items():
        nets = gradcheck_nets(workload.gradcheck)
        steps = sum(copy_steps(*net)[0] for net in nets)
        yield (f"{name} gradcheck", f"{len(nets)} nets", "-", finite_difference_models,
               (nets, "bce"), (steps, True))


# Per table: the gate, the unit of the count it reads, and its cells
TABLES = [
    ("FORK_MIN_SAMPLE_STEPS", "sample-steps", lambda: model_cells(
        model_gradients, sample_steps, BENCH_MODELS, 50, [
            ("certify", "sigmoid", (8, 8, 5), (8, 16, 32, 64, 128)),
            ("desk", "tanh", (16, 32, 40), (2, 4, 8, 16, 32)),
            ("paper", "sigmoid", (32, 100, 500), (2, 32)),
        ])),
    ("EVAL_FORK_MIN_SAMPLE_STEPS", "sample-steps", lambda: model_cells(
        evaluate, sample_steps, BENCH_MODELS, 50, [
            ("certify", "sigmoid", (8, 8, 5), (20, 128, 256, 512, 1024)),
            ("desk", "tanh", (16, 32, 40), (16, 32, 64, 128, 500)),
            ("paper", "sigmoid", (32, 100, 500), (2, 4, 8, 32)),
        ])),
    ("FD_FORK_MIN_COPY_STEPS", "copy-steps", lambda: itertools.chain(
        model_cells(finite_difference_model, copy_steps, ORACLE_MODELS, 7, [
            *((f"gradcheck {act}", act, dims, (B,))
              for act in ("sigmoid", "tanh", "relu")
              for *dims, B in ((6, 3, 3, 2), (6, 5, 2, 1), (4, 7, 4, 4))),
            *(("property", "sigmoid", (d, d, d), (d,)) for d in (1, 2, 3)),
        ]), gradcheck_cells())),
]


def build(variant, act, m, n, T, B, bidirectional, vocab, seed=4200):
    rng = make_rng(seed)
    emb = init_embedding(rng, vocab, m)
    cell = init_cell(variant, m, n, act, 0.59, rng)
    cell_bwd = init_cell(variant, m, n, act, 0.59, rng) if bidirectional else None
    out = init_output(rng, 2 * n if bidirectional else n, 1)
    model = SequenceClassifier(cell=cell, out=out, emb=emb, cell_bwd=cell_bwd)
    batch = SequenceBatch(tokens=rng.integers(1, vocab, size=(B, T)),
                          labels=rng.integers(0, 2, size=B))
    return model, batch


def speedups(name, call, args) -> tuple[np.ndarray, int]:
    """Serial over helper seconds of call(*args) under the gate called
    name, one ratio per alternating pair, and the number of pairs whose
    helper call left the helper on this process's CPU."""
    saved = getattr(training, name)

    def seconds(gate):
        setattr(training, name, gate)
        try:
            start = time.perf_counter()
            call(*args)
            return time.perf_counter() - start
        finally:
            setattr(training, name, saved)

    seconds(math.inf), seconds(0)  # warm both paths
    ratios, shared = [], 0
    for _ in range(PAIRS):
        ratios.append(seconds(math.inf) / seconds(0))
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


def settle() -> float:
    """Run split model_gradients calls (desk lstm6) until the helper last
    ran on another CPU than this process, or for 10 s at most, and return
    the seconds taken. The scheduler can keep a new helper on its caller's
    CPU for seconds, and cells measured meanwhile read it slower than it
    is."""
    model, batch = build("lstm6", "tanh", 16, 32, 40, 32, False, 50)
    started = time.perf_counter()
    while time.perf_counter() - started < 10:
        model_gradients(model, batch, "bce")
        if not on_one_cpu():
            break
    return time.perf_counter() - started


def table(name, unit, cells):
    """Print one gate's table and where the gate belongs."""
    gate = getattr(training, name)
    print(f"{name} = {gate}")
    print()
    print(f"| workload | model | B | {unit} | gate | serial/helper | quartiles "
          "| one CPU | |")
    print("|---|---|---|---|---|---|---|---|---|")
    slower, faster = [], []
    for workload, key, B, call, args, (steps, may_split) in cells():
        splits = may_split and steps >= gate
        ratios, shared = speedups(name, call, args)
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
          f"{unit} ran slower with the helper, and every cell from {first} up faster")
    print()


def main() -> int:
    started = time.perf_counter()
    print(f"(waited {settle():.1f} s for the helper to leave this process's CPU)")
    print()
    for spec in TABLES:
        table(*spec)
    training._stop_helper()
    print(f"({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
