"""Losses, exact backpropagation through time, a complex-step gradient
oracle, optimizers, and the epoch loop.

Gradients are hand-derived per cell variant and flow only from the
final-step loss; there is no per-step target. Backpropagation runs over
the stacked arrays the forward steps record: a minibatch is walked in
chunks whose stacks, reverse-pass work array, inputs and input gradient
fit CACHE_BUDGET bytes. Per direction, a chunk's input terms are
projected at once into its slice of the work array, with the direction's
cell laid out once per walk; each sample then steps through its column
of them (run_steps), recording straight into one column of the chunk's
arrays, with a bidirectional model's two directions stacked so that one
step call advances both. One readout serves the chunk, and one reverse
pass per chunk and direction carries the state gradients and writes each
step's pre-activation delta: a loop over time for srnn, lstm and lstm6,
and for lstm_c6, whose recurrence is element-wise, one running product
over time.
The pass writes its derivative factors into the work array and the spent
aux stack, both allocated once per call, so it allocates nothing else of
the stacks' size. Each weight gradient is then one matrix product over
all steps of the chunk, added into its view of the one flat gradient
buffer a call returns. A batch of FORK_MIN_SAMPLE_STEPS sample-steps or
more, or an evaluate slice of EVAL_FORK_MIN_SAMPLE_STEPS or more, runs
one job on two shares (_helper_walk), one here and one on the second
core by a helper process, forked once and sent each call's parameters
and inputs through a shared mapping that brings its outputs back, with
the model's spec (model_spec), the model being rebuilt over the mapping
as a checkpoint's loader does (model_from_arrays). A share is a row half
of the batch or slice, or, for a bidirectional model's evaluate slice,
one direction over every row. An optimizer step runs its rule once over
a flat copy of all the gradients.
Every gradient path here is certified against a complex-step oracle
(finite_difference_model) in the test suite, so treat the two
implementations as independent and never "fix" one by copying from the
other.
"""

from __future__ import annotations

import atexit
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import _blas_pin_bound
from .cells import (ADAPTIVE_FIELDS, CellParams, OutputLayer, gate_width, input_term,
                    output_layer_apply, record_arrays, record_shapes, run_cell,
                    run_steps, stack_gates)
from .data import EmbeddingTable, PAD_INDEX, check_tokens, embed_lookup
from .numerics import activate, activate_grad_from_output, make_rng

LOSSES = ("bce", "cce")
OPTIMIZERS = ("adam", "rmsprop", "sgd")

_PROB_FLOOR = 1e-12
# _backward_cell zeroes the gradient its reverse pass carries below this squared
# norm, at that step and every earlier one: the rest lies under every gradient
# entry's last bit, but as subnormals it would slow each product tens of times.
# The pass runs on over the zeros, so its cost stays flat.
_UNDERFLOW = np.finfo(np.float64).tiny

# GradientSet: plain dict, tensor name -> array shaped like the tensor.
GradientSet = dict


# Bytes one evaluate slice may hold (see evaluate): a slice amortizes the
# per-step dispatch over its rows. At 5.25 MiB each benchmark split keeps the
# slice count it had at 4 MiB of inputs alone: 672-934 rows desk, 40-42 paper.
EVAL_BUDGET = 21 << 18

# Bytes one model_gradients chunk may hold: its recorded stacks, the work
# array of the reverse pass, and its gathered inputs and input gradient
# (_row_bytes). Every sample in a chunk shares one reverse pass, which
# amortizes its per-step dispatch; a sequence that alone passes the budget
# runs as a chunk of one. At the paper shape (m=32, n=100, T=500) 6.75 MiB
# gives chunks of 6 samples for srnn, 3 for lstm6 and lstm_c6, 2 for
# bidirectional lstm6 and 1 for lstm; a 32-sample model_gradients call then
# peaks under tracemalloc at srnn 8.3 MiB, lstm 7.0, lstm6 7.2, lstm_c6 7.0
# and lstm6 bidir 9.0 MiB. It sits between the row counts' edges: from
# 6.60 MiB bidirectional lstm6 takes 2 rows (its work array holds both
# directions' rows), and from 7.05 MiB srnn takes 7 (8.6 MiB at 8 samples,
# near the memory guard) and lstm6 4. The budget holds per process: a batch
# split with the helper process (FORK_MIN_SAMPLE_STEPS) holds one chunk in
# each, and tracemalloc sees the calling process alone (README gives the
# helper's memory).
CACHE_BUDGET = 27 << 18

# The sample-steps (rows x T x directions) from which model_gradients walks
# the second row half of a batch, and evaluate forwards the second share of
# a slice, in the helper process (_helper_walk). Each sits where every
# larger cell of README's tables (tools/forkgate.py: serial over helper
# seconds, the five benchmark models at the desk, certify and paper shapes)
# ran faster: training from 640 (1.09-1.99x over six runs; 8 of 60 cells of
# 320 ran slower), a forward, which costs less per sample-step, from 8,000
# (1.11-1.96x over five runs; 6 of 50 cells of 5,120 ran slower). Both split every desk and paper
# call and slice and keep the certify ones serial.
FORK_MIN_SAMPLE_STEPS = 640
EVAL_FORK_MIN_SAMPLE_STEPS = 8000


def check_labels(kind: str, shape: tuple, labels) -> np.ndarray:
    """labels as an array, checked against the loss kind and the (B, k)
    shape of the raw rows they score: kind is one of LOSSES, bce rows are
    1 wide, and labels is a (B,) integer array in [0, k), k being 2 for
    bce. It holds no arithmetic: loss_eval, model_gradients, evaluate
    and the oracle all call it."""
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}")
    bce = kind == "bce"
    if len(shape) != 2 or (bce and shape[1] != 1):
        raise ValueError(f"{kind} needs (B, {'1' if bce else 'k'}) rows, got {shape}")
    labels = np.asarray(labels)
    if labels.shape != shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"{kind} needs a ({shape[0]},) integer array of labels, "
                         f"got {labels.dtype} {labels.shape}")
    k = 2 if bce else shape[1]
    outside = labels[(labels < 0) | (labels >= k)]
    if outside.size:
        raise ValueError(f"{kind} label {outside[0]} outside [0, {k})")
    return labels


def loss_eval(kind: str, y_raw: np.ndarray, labels: np.ndarray):
    """Loss value and its gradient with respect to the raw output.

    bce: scalar raw score through a sigmoid, label 0 or 1.
    cce: raw score vector through a softmax, label in [0, k).
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the log, and
    both gradients reduce to p - y, y the label's one-hot row. y_raw is
    (B, k) rows, one per sample, and labels the (B,) integer class labels,
    both checked first (check_labels); the loss is the (B,) array of
    per-sample losses.
    """
    labels = check_labels(kind, y_raw.shape, labels)
    if kind == "bce":
        p = np.clip(expit(y_raw), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        loss = -np.log(np.where(labels[:, None] == 1, p, 1.0 - p))[..., 0]
        return loss, p - labels[:, None]
    e = np.exp(y_raw - y_raw.max(axis=-1, keepdims=True))
    p = np.clip(e / e.sum(axis=-1, keepdims=True), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    rows = np.arange(len(labels))
    loss = -np.log(p[rows, labels])
    p[rows, labels] -= 1.0
    return loss, p


@dataclass(eq=False)
class SequenceClassifier:
    """Embedding (m wide; a frozen one feeds fixed inputs) + one or two
    cells + affine readout.

    With cell_bwd set the model is bidirectional: the output layer reads
    the concatenation [h_fwd_T ; h_bwd_T] and is 2n wide. Every pass
    iterates directions, one (cell, tensor-name prefix, time step) each:
    (cell, "fwd.", 1), then (cell_bwd, "bwd.", -1).
    """

    cell: CellParams
    out: OutputLayer
    emb: EmbeddingTable
    cell_bwd: CellParams | None = None

    def __post_init__(self):
        self.directions = [(self.cell, "fwd.", 1)]
        if self.cell_bwd is not None:
            for what in ("variant", "m", "n", "act", "forget_const"):
                a, b = getattr(self.cell, what), getattr(self.cell_bwd, what)
                if a != b:
                    raise ValueError(
                        f"bidirectional cells disagree on {what}: {a} vs {b}")
            self.directions.append((self.cell_bwd, "bwd.", -1))
        if self.emb.E.shape[1] != self.cell.m:
            raise ValueError(f"embedding rows are {self.emb.E.shape[1]} wide, "
                             f"the cells read {self.cell.m}")
        width = len(self.directions) * self.cell.n
        if self.out.W_hy.shape[1] != width:
            raise ValueError(f"output layer reads {self.out.W_hy.shape[1]} features, "
                             f"the cells give {width}")

    @property
    def bidirectional(self) -> bool:
        return self.cell_bwd is not None

    def param_arrays(self, include_frozen: bool = False) -> dict[str, np.ndarray]:
        """Named tensors in canonical order: emb.E, fwd.*, bwd.*, out.*.

        By default only trainable tensors appear (a frozen embedding is
        skipped); include_frozen=True lists everything, which is what
        serialization wants.
        """
        d = {"emb.E": self.emb.E} if self.emb.trainable or include_frozen else {}
        for cell, prefix, _ in self.directions:
            for name, arr in cell.param_arrays().items():
                d[prefix + name] = arr
        for name, arr in self.out.param_arrays().items():
            d[f"out.{name}"] = arr
        return d

    def forward(self, xs: np.ndarray):
        """The model's one forward pass over time-major inputs xs, (T, B, m),
        one sample being a batch of one: each direction's cell over xs in
        its time order, recording nothing, then the readout of their final
        states. Returns (y_raw, h), h = [h_fwd ; h_bwd] being what the
        readout read. It runs in the calling process; evaluate puts the
        shares of a large slice on two cores (_helper_walk)."""
        hs = [run_cell(cell, xs[::step]) for cell, _, step in self.directions]
        h = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=-1)
        return output_layer_apply(self.out, h), h


def model_spec(model: SequenceClassifier) -> dict:
    """The model's fields other than its tensors, keyed as a checkpoint
    header names them."""
    cell = model.cell
    return {"variant": cell.variant, "m": cell.m, "n": cell.n, "activation": cell.act,
            "forget": cell.forget_const, "bidirectional": model.bidirectional,
            "trainable": model.emb.trainable}


def model_from_arrays(spec: dict, arrays: dict) -> SequenceClassifier:
    """The model of spec (model_spec) around arrays, keyed as
    param_arrays(include_frozen=True) keys them: each array is used as
    given, none copied. Loading a checkpoint and the helper process both
    rebuild a model this way."""
    def cell(prefix: str) -> CellParams:
        return CellParams(variant=spec["variant"], m=spec["m"], n=spec["n"],
                          act=spec["activation"], forget_const=spec["forget"],
                          tensors={name: arrays[prefix + name]
                                   for name in ADAPTIVE_FIELDS[spec["variant"]]})

    fwd, bwd = cell("fwd."), cell("bwd.") if spec["bidirectional"] else None
    out = OutputLayer(W_hy=arrays["out.W_hy"], b_y=arrays["out.b_y"])
    emb = EmbeddingTable(E=arrays["emb.E"], trainable=spec["trainable"])
    return SequenceClassifier(cell=fwd, out=out, emb=emb, cell_bwd=bwd)


def _stack_bytes(model: SequenceClassifier, T: int) -> int:
    """Bytes per sample of every direction's recorded stacks over T steps."""
    return sum(8 * math.prod(s) for cell, _, _ in model.directions
               for s in record_shapes(cell, T, 1) if s is not None)


def _row_bytes(model: SequenceClassifier, T: int) -> int:
    """Bytes per sample of everything a model_gradients chunk holds: every
    direction's stacks and its slice of the work array, and the chunk's
    (T, b, m) inputs and input gradient."""
    terms = len(model.directions) * gate_width(model.cell)
    return _stack_bytes(model, T) + 8 * T * (terms + 2 * model.cell.m)


def _flat_views(buf: np.ndarray, shapes: dict) -> dict:
    """Views into buf's last axis, one per name and of its shape (a
    tuple) after buf's leading axes, laid out back to back in the dict's
    order."""
    views, start, lead = {}, 0, buf.shape[:-1]
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = buf[..., start:stop].reshape(lead + shape)
        start = stop
    return views


def _leading(a: np.ndarray, b: int) -> np.ndarray:
    """The start of a (T, rows, ...) buffer's memory as a C-contiguous
    (T, b, ...) array, b <= rows: a short last chunk reshapes to (T b, ...)
    rows as a view, as a full one does."""
    if b == a.shape[1]:
        return a
    shape = (len(a), b, *a.shape[2:])
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def _direction(a: np.ndarray, d: int) -> np.ndarray:
    """Direction d's (T, b, width) view of a C-contiguous chunk array laid
    out (T, b, D, 1, width), or (T, b, 1, width) for one direction. Its
    rows are D widths apart, so the (T b, width) reshapes of the reverse
    pass stay views."""
    return a.reshape(*a.shape[:2], -1, a.shape[-1])[:, :, d]


def _backward_cell(p: CellParams, xs: np.ndarray, stacks, dh: np.ndarray,
                   grads: GradientSet, prefix: str, need_dx: bool, gates,
                   work: np.ndarray):
    """Backpropagate dh (gradient at the final hidden state) through the
    stacks recorded over xs, accumulating into grads. Returns
    the gradient with respect to xs, or None when not requested.

    The derivative factors are computed once per sequence into D = work,
    (T, b, gate_width(p)), one row per step; whatever work held before is
    overwritten unread. The stacks may be one direction's strided views
    of a bidirectional chunk's arrays (_direction). gates is the
    cell's untransposed stack_gates(p), which a caller lays out once.
    Nothing else of the stacks' size is allocated: the factors the pass
    reads besides D go into the aux stack once its values are spent
    (lstm's s = act(c_t) and dc/dh in the i and c_tilde blocks, the slim
    cells' act'(h_t) in place of c_tilde), so the stacks are not valid
    after the call. For srnn, lstm and lstm6 a reverse loop carries only
    dh and dc and scales each row in place into that step's
    pre-activation delta. lstm_c6's Jacobian is diagonal, so
    its carried dc obeys a linear recurrence, dc_t = dc_{t+1} G[t], and
    one multiply.accumulate over reversed time gives every step's dc at
    once (the scan view of linear recurrences; Martin & Cundy, 2018).
    Either way the carried gradient is zeroed from the latest step whose
    squared norm over the chunk is below _UNDERFLOW back to the start.
    The weight gradients then come from all rows at once: gW += D^T X,
    gR += D^T H[:-1] (lstm_c6: the column sums of D * H[:-1], formed in
    the spent G), gb += column sums of D. Rows carry the chunk's batch
    axis: everything after the reverse pass works on (T b, width) views
    (strided for a direction view, whose rows merge all the same), and xs
    reshapes as a view when it is C-contiguous (a reversed direction's xs
    is copied).
    """
    H, C, aux = stacks
    names = ADAPTIVE_FIELDS[p.variant]  # (W, R, b) per gate block, gates i f o c
    W, R, _ = gates
    T, n, D = len(xs), p.n, work
    if p.variant == "srnn":
        activate_grad_from_output(p.act, H[1:], out=D)
        for t in range(T - 1, -1, -1):
            d = D[t]
            d *= dh
            dh = d.dot(R)
            if np.vdot(dh, dh) < _UNDERFLOW:
                dh[...] = 0.0
    elif p.variant == "lstm":
        i, f, o, c_tilde = (aux[..., k * n:(k + 1) * n] for k in range(4))
        D_i, D_f, D_o, D_c = (D[..., k * n:(k + 1) * n] for k in range(4))
        activate_grad_from_output("sigmoid", aux[..., :3 * n], out=D[..., :3 * n])
        activate_grad_from_output(p.act, c_tilde, out=D_c)
        D_i *= c_tilde
        D_f *= C[:-1]
        D_c *= i
        s = activate(p.act, C[1:], out=i)  # i and c_tilde are spent
        D_o *= s
        dc_dh = activate_grad_from_output(p.act, s, out=c_tilde)
        dc_dh *= o
        dc = np.zeros_like(dh)
        for t in range(T - 1, -1, -1):
            dc += dh * dc_dh[t]
            g = np.concatenate([dc, dc, dh, dc], axis=-1)
            if np.vdot(g, g) < _UNDERFLOW:  # g is all of dc and dh still used
                g[...] = dc[...] = 0.0
            d = D[t]
            d *= g
            dh = d.dot(R)
            dc *= f[t]
    elif p.variant == "lstm6":  # i = o = 1, f constant, h_t = act(c_t)
        activate_grad_from_output(p.act, aux, out=D)
        dc_dh = activate_grad_from_output(p.act, H[1:], out=aux)
        dc = np.zeros_like(dh)
        for t in range(T - 1, -1, -1):
            dc += dh * dc_dh[t]
            if np.vdot(dc, dc) < _UNDERFLOW:  # from here dh acts only via dc
                dc[...] = 0.0
            d = D[t]
            d *= dc
            dh = d.dot(R)
            dc *= p.forget_const
    else:  # lstm_c6: dc_{T-1} = dh act'(c_T) and dc_t = dc_{t+1} G[t] before it,
        # G[t] = f + u_c D[t+1] act'(c_{t+1}); the accumulate turns G[t] into dc_t
        activate_grad_from_output(p.act, aux, out=D)
        G = activate_grad_from_output(p.act, H[1:], out=aux)
        G[-1] *= dh
        G[:-1] *= D[1:]
        G[:-1] *= R
        G[:-1] += p.forget_const
        np.multiply.accumulate(G[::-1], axis=0, out=G[::-1])
        small = np.flatnonzero(np.einsum("tbn,tbn->t", G, G) < _UNDERFLOW)
        if small.size:  # the latest such step and every earlier one
            G[:small[-1] + 1] = 0.0
        D *= G
    rows = D.reshape(-1, D.shape[-1])
    gW, gb = rows.T @ xs.reshape(-1, p.m), rows.sum(axis=0)
    if p.variant == "lstm_c6":
        gR = np.multiply(D, H[:-1], out=aux).reshape(-1, n).sum(axis=0)
    else:
        gR = rows.T @ H[:-1].reshape(-1, n)
    for k in range(len(names) // 3):
        block = slice(k * n, (k + 1) * n)
        for name, g in zip(names[3 * k:3 * k + 3], (gW, gR, gb)):
            grads[prefix + name] += g[block]
    return (rows @ W).reshape(xs.shape) if need_dx else None


def _walk_chunks(model: SequenceClassifier, tokens: np.ndarray, labels: np.ndarray,
                 loss_kind: str, rows: int, grads: GradientSet, losses: np.ndarray):
    """model_gradients' chunk loop over the samples (tokens, labels): adds
    their gradient sums into grads and writes their losses into losses, in
    sample order.

    The samples are walked in chunks of rows samples (model_gradients sets
    max(1, CACHE_BUDGET // bytes), bytes being what the pass holds per
    sample, _row_bytes): the stacks the steps record over every direction,
    the work array _backward_cell writes its factors into, and the chunk's
    inputs and input gradient.
    The stacks and the work array are laid out with one block per
    sample-step holding every direction's row: (T+1, b, D, 1, n) and
    (T, b, D, 1, width) for a model of D = 2 directions, (T+1, b, 1, n)
    and (T, b, 1, width) for one. They are made once per walk and serve
    every chunk, a short last chunk the arrays' leading memory, so the
    walk holds one chunk's stacks and no more; each direction's two
    stack_gates layouts (transposed for the forward, untransposed for
    _backward_cell) are made once per walk too. A chunk's inputs are
    gathered once as (T, b, m).
    Per direction, one input_term call projects them, in the direction's
    time order, into its slice of the work array, which the reverse pass
    overwrites unread: stacked 1-row products, so column j holds the bits
    of sample j's projection alone. Each sample then takes run_steps on
    its column j, recording straight into the stacks' column j: one step
    call per sample-step for all directions, whose recurrent tensors are
    stacked (D, n, width) once per walk, and no shape checks or buffers
    of its own. One readout of the final states H[-1], [h_fwd ; h_bwd]
    row by row, gives the chunk's (b, k) raw outputs, each row the bits of
    a batch of one (matvec). Each chunk then takes one loss_eval call on
    those rows, one readout gradient product over H[-1], one reverse pass
    per direction on its strided (T+1, b, n) and (T, b, width) views of
    the stacks, adding each direction's input gradient into the first
    one's, and one embedding scatter. The input terms being spent, every
    reverse pass writes its factors into the work array's leading memory
    as a C-contiguous (T, b, width) array, since the reverse loop runs
    slower on strided per-step rows. The gradients sum in chunk-product
    order, so they move in the last bits when the rows per chunk change.
    """
    need_dx = model.emb.trainable
    n = model.cell.n
    B, T = tokens.shape
    rows = min(B, rows)
    layouts = [(stack_gates(cell, transposed=True), stack_gates(cell))
               for cell, _, _ in model.directions]
    if len(layouts) == 1:  # one direction steps (1, n) rows with a 2-D R
        block, R = (1,), layouts[0][0][1]
    else:
        block, R = (len(layouts), 1), np.stack([fwd[1] for fwd, _ in layouts])
    stacks = record_arrays(model.cell, T, rows, *block)
    width = gate_width(model.cell)
    work = np.empty((T, rows, *block, width))
    for start in range(0, B, rows):
        stop = min(start + rows, B)
        b = stop - start
        X = embed_lookup(model.emb, tokens[start:stop].T)  # (T, b, m)
        chunk = [None if a is None else _leading(a, b) for a in stacks]
        Z = _leading(work, b)
        for d, ((_, _, step), ((W, _, bias), _)) in enumerate(zip(model.directions,
                                                                  layouts)):
            # stacked 1-row products: column j has sample j's own bits
            input_term(W, bias, X[::step, :, None, :], out=_direction(Z, d)[:, :, None])
        for j in range(b):
            run_steps(model.cell, R, Z[:, j], [None if a is None else a[:, j]
                                               for a in chunk])
        h = chunk[0][-1].reshape(b, -1)  # (b, D n), [h_fwd ; h_bwd]
        losses[start:stop], dY = loss_eval(loss_kind, output_layer_apply(model.out, h),
                                           labels[start:stop])
        grads["out.W_hy"] += dY.T @ h
        grads["out.b_y"] += dY.sum(axis=0)
        dH = dY @ model.out.W_hy
        # the input terms are spent: every reverse pass writes its factors
        # into the work array's leading memory, C-contiguous (T, b, width)
        factors = _leading(work.reshape(T, -1, width), b)
        for d, ((cell, prefix, step), (_, gates)) in enumerate(zip(model.directions,
                                                                   layouts)):
            arrays = [None if a is None else _direction(a, d) for a in chunk]
            dx = _backward_cell(cell, X[::step], arrays, dH[:, d * n:(d + 1) * n],
                                grads, prefix, need_dx, gates, factors)
            if need_dx and d == 0:
                dX = dx[::step]
            elif need_dx:
                dX += dx[::step]
        if need_dx:
            np.add.at(grads["emb.E"], tokens[start:stop].T, dX)


def _can_fork() -> bool:
    """Whether this process may fork a helper: the platform forks, this
    process may run on two CPUs, the package's BLAS thread pin bound (else
    OpenBLAS already runs a thread per CPU), no other Python thread is alive
    (a lock such a thread held at the fork would never be released in the
    helper), and multiprocessing did not start this process (a pool already
    spreads its workers over the CPUs, and a worker leaves through os._exit,
    which runs no exit handler to reap a helper)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and _blas_pin_bound
            and threading.active_count() == 1
            and multiprocessing.parent_process() is None)


def _places(arrays) -> tuple[list, int]:
    """The place (offset, shape, dtype) of each (shape, dtype) in a mapping
    that holds them back to back, each from a 64-byte boundary, and the
    bytes they span."""
    places, end = [], 0
    for shape, dtype in arrays:
        places.append((end, shape, dtype.str))
        end += -(-math.prod(shape) * dtype.itemsize // 64) * 64
    return places, end


def _view(mapping: mmap.mmap, place) -> np.ndarray:
    """The array at place in mapping (_places)."""
    offset, shape, dtype = place
    return np.ndarray(shape, dtype, buffer=mapping, offset=offset)


class _Helper:
    """The process that runs the second share of each _helper_walk job for
    its owner, the process that forked it at its first split call.

    A call goes through an anonymous shared mapping of size bytes, made
    before the fork, and two pipes. The owner copies the model's parameter
    values and the job's inputs into the mapping and sends one request
    naming a job and carrying its model's model_spec and the place of each
    of its parameter arrays in the mapping. The helper rebuilds the model
    over views of the mapping (model_from_arrays), runs the job on it and
    the mapping's arrays, writing its outputs there, and replies (_serve);
    it keeps nothing between requests but the mapping. Where the mapping
    or the fork fails, its OSError is raised, what was made being closed
    where the fork failed."""

    def __init__(self, size: int):
        self.size = size
        self.mapping = mmap.mmap(-1, size)
        requests, self.requests = multiprocessing.Pipe(duplex=False)
        self.replies, replies = multiprocessing.Pipe(duplex=False)
        try:
            self.pid = os.fork()
        except OSError:
            for end in (requests, self.requests, self.replies, replies, self.mapping):
                end.close()
            raise
        if self.pid == 0:
            self.requests.close()  # else the helper never sees EOF
            self.replies.close()
            _serve(self.mapping, requests, replies)
        requests.close()
        replies.close()


def _serve(mapping: mmap.mmap, requests, replies):
    """The helper's loop: read a request, rebuild its model, run its job,
    reply, until the request pipe reaches EOF. A job's error goes back
    pickled (_pickled_error). The helper ignores SIGINT, an interrupt
    being its owner's to handle, stops an allocation trace its owner had
    running, holds its own _helper_lock, so that a split call in a job
    runs both shares here and never forks, and leaves through os._exit,
    running no exit handler of its owner's."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        tracemalloc.stop()
        _helper_lock.acquire()  # a job's own split calls run here: no helper of its own
        while True:
            try:
                request = requests.recv_bytes()
            except EOFError:
                code = 0
                break
            try:
                spec, params, job, args, places = pickle.loads(request)
                model = model_from_arrays(spec, {name: _view(mapping, place)
                                                 for name, place in params.items()})
                job(model, *args, *(_view(mapping, p) for p in places))
                reply = b""
            except Exception as exc:  # raised in the owner
                reply = _pickled_error(exc)
            replies.send_bytes(reply)
    finally:
        os._exit(code)


_helper: _Helper | None = None  # this process's helper, once a split call forked it
_helper_lock = threading.Lock()  # held by the one call using _helper


def _stop_helper(kill: bool = False) -> int | None:
    """End this process's helper, if it has one, and reap it: its request
    pipe is closed, so an idle helper leaves, and with kill=True one that
    is walking is killed. Returns its exit code. Runs at exit, and where
    no call is using the helper."""
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return None
    helper.requests.close()
    if kill:
        os.kill(helper.pid, signal.SIGKILL)
    code = os.waitstatus_to_exitcode(os.waitpid(helper.pid, 0)[1])
    helper.replies.close()
    return code


def _forget_helper():
    """In a forked child: close the helper handle it inherited, unused, and
    take a fresh lock (the parent may have held its own at the fork)."""
    global _helper, _helper_lock
    if _helper is not None:
        _helper.requests.close()
        _helper.replies.close()
    _helper, _helper_lock = None, threading.Lock()


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _helper_walk(model: SequenceClassifier, job, args: tuple, mine: tuple,
                 theirs: tuple) -> bool:
    """Run job(model, *args, *inputs, *outputs), a module-level function
    writing into its outputs arrays, on both shares, each an (inputs,
    outputs) pair: theirs in this process's helper, over copies in the
    mapping and a model it rebuilds from the request, and mine here; then
    copy theirs' outputs back and return True. A caller cuts its work into
    the shares: model_gradients a batch's row halves, evaluate a slice's
    row halves or a bidirectional model's two directions, each share's
    inputs then naming its direction. args travel pickled, so a job reads
    what its caller decided from them (the rows per chunk), never module
    constants, which the helper holds as they were at its fork. Where no
    helper can be used, run both shares here, mine first, and return
    False: another thread is using the helper, or one must start and
    _can_fork() refuses it or its mapping or os.fork fails (EAGAIN under a
    process limit, say). A helper starts at the first
    call, and again where a call does not fit the mapping, with twice the
    larger of its size and the call's need, so that an evaluate call's
    helper has room for a gradient buffer too.

    An error in the helper's job is raised here, after mine's ended, with
    the helper's traceback as its cause, and the helper serves on. An
    error in mine's job, or one raised while waiting for the reply (an
    interrupt), kills the helper; a helper found dead (EOF on its reply
    pipe, or a refused request) is reaped and its exit code raised as a
    ChildProcessError. Either way it is dropped, and the next call starts
    a new one."""
    if _helper_lock.acquire(blocking=False):
        try:
            if _in_helper(model, job, args, mine, theirs):
                return True
        finally:
            _helper_lock.release()
    for inputs, outputs in (mine, theirs):
        job(model, *args, *inputs, *outputs)
    return False


def _in_helper(model: SequenceClassifier, job, args: tuple, mine: tuple,
               theirs: tuple) -> bool:
    """_helper_walk's round trip, under _helper_lock: False, having run
    nothing, where no helper may be used."""
    global _helper
    helper = _helper
    inputs, outputs = theirs
    params = model.param_arrays(include_frozen=True)
    arrays = [*params.values(), *inputs, *outputs]
    places, need = _places([(a.shape, a.dtype) for a in arrays])
    if helper is None or helper.size < need:
        if not _can_fork():
            return False
        _stop_helper()
        try:
            _helper = helper = _Helper(2 * max(need, helper.size if helper else 0))
        except OSError:
            return False
    copied = len(arrays) - len(outputs)
    for a, place in zip(arrays[:copied], places):
        _view(helper.mapping, place)[...] = a
    request = pickle.dumps((model_spec(model), dict(zip(params, places)), job, args,
                            places[len(params):]))
    try:
        helper.requests.send_bytes(request)
    except BrokenPipeError:  # the helper is gone
        reply = None
    else:
        try:
            job(model, *args, *mine[0], *mine[1])
            try:
                reply = helper.replies.recv_bytes()
            except EOFError:  # the helper is gone
                reply = None
        except BaseException:
            _stop_helper(kill=True)  # its half, or its reply, is no longer wanted
            raise
    if reply is None:
        code = _stop_helper()
        raise ChildProcessError(f"the helper process ended with exit code {code}")
    if reply:
        exc, trace = pickle.loads(reply)
        raise exc from ChildProcessError(f"in the helper process:\n{trace}")
    for out, place in zip(outputs, places[copied:]):
        out[...] = _view(helper.mapping, place)
    return True


def _pickled_error(exc: BaseException) -> bytes:
    """(exc, its traceback text) pickled, exc becoming a RuntimeError
    naming it where it does not pickle."""
    trace = traceback.format_exc()
    try:
        return pickle.dumps((exc, trace))
    except Exception:  # an exception whose state does not pickle
        return pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), trace))


def _gradient_job(model: SequenceClassifier, loss_kind: str, rows: int,
                  tokens: np.ndarray, labels: np.ndarray, buf: np.ndarray,
                  losses: np.ndarray):
    """A model_gradients row half: the gradient sums of the samples
    (tokens, labels), walked in chunks of rows samples, into the flat buf,
    zeroed first and laid out as model.param_arrays(), and their losses
    into losses."""
    buf[...] = 0.0
    shapes = {key: theta.shape for key, theta in model.param_arrays().items()}
    _walk_chunks(model, tokens, labels, loss_kind, rows, _flat_views(buf, shapes), losses)


def _states_job(model: SequenceClassifier, d: np.ndarray, tokens: np.ndarray,
                h: np.ndarray):
    """An evaluate share: the final states of direction d, a 0-d index into
    model.directions, over the (b, T) samples tokens into h, (b, n). Its
    cell runs over the inputs in its time order, as in forward."""
    cell, _, step = model.directions[d]
    h[...] = run_cell(cell, embed_lookup(model.emb, tokens.T)[::step])


def model_gradients(model: SequenceClassifier, batch, loss_kind: str):
    """Mean loss and exact gradients for every trainable tensor, keyed like
    model.param_arrays(): in its order, each value a view shaped like its
    tensor into one flat buffer, which the final division by the batch
    size scales at once.

    The loss kind and the labels are checked first (check_labels), before
    any chunk runs or the helper is sent a share. The rows per chunk,
    max(1, CACHE_BUDGET // _row_bytes), are decided here once. A batch of
    B >= 2 samples and at least FORK_MIN_SAMPLE_STEPS sample-steps (B T D
    for D directions) is split into the rows [0, B//2) and [B//2, B),
    each walked by _walk_chunks into its own gradient buffer and
    per-sample losses (_gradient_job). The second half runs in this
    process's helper while the first runs here, so the two use two
    cores, or here after the first where no helper can be used
    (_helper_walk). Its buffer is then added into the first's and its
    losses follow the first's. The losses add in sample order, so they keep
    the bits of an unsplit call; a split call's gradients move from an
    unsplit one's in the last bits, as when the rows per chunk change, and
    are the same wherever the second half ran. A smaller batch is walked
    whole, here.

    The helper walks with the module's functions as they were when it
    forked, and with the rows it is sent, never its own CACHE_BUDGET. An
    exit handler ends and reaps it; a process that ends without exit
    handlers closes its request pipe all the same, and the helper then
    leaves on its own.
    """
    if len(batch) == 0:
        raise ValueError("cannot take gradients over an empty batch")
    if batch.T == 0:
        raise ValueError("cannot take gradients over an empty sequence")
    B, tokens = len(batch), batch.tokens
    labels = check_labels(loss_kind, (B, len(model.out.b_y)), batch.labels)
    shapes = {key: theta.shape for key, theta in model.param_arrays().items()}
    size = sum(map(math.prod, shapes.values()))
    rows = max(1, CACHE_BUDGET // _row_bytes(model, batch.T))
    flat, losses = np.zeros(size), np.empty(B)
    grads: GradientSet = _flat_views(flat, shapes)
    if B < 2 or B * batch.T * len(model.directions) < FORK_MIN_SAMPLE_STEPS:
        _walk_chunks(model, tokens, labels, loss_kind, rows, grads, losses)
    else:
        half, second = B // 2, np.empty(size)
        _helper_walk(model, _gradient_job, (loss_kind, rows),
                     ([tokens[:half], labels[:half]], [flat, losses[:half]]),
                     ([tokens[half:], labels[half:]], [second, losses[half:]]))
        flat += second
    total = 0.0
    for loss in losses:  # in sample order
        total += float(loss)
    flat /= B
    if model.emb.trainable:
        grads["emb.E"][PAD_INDEX] = 0.0  # padding row never trains
    return total / B, grads


# ---------------------------------------------------------------------------
# Complex-step oracle.
#
# The oracle re-transcribes the forward map from the recurrences in
# complex128 and takes each entry's derivative as Im L(theta + i h e_k) / h
# at h = 1e-30: the complex step (Squire & Trapp, SIAM Review 1998;
# Martins, Sturdza & Alonso, ACM TOMS 2003). For a loss analytic in theta
# its error is O(h^2) and it subtracts nothing, so each entry is exact to
# rounding, with no step size to tune and no cancellation floor. The
# transcription stays analytic: sigmoid takes its form by the sign of
# Re z, relu passes z where Re z > 0, bce is the softplus of the label's
# signed score and cce is log-sum-exp minus the label's score, with no
# probability floor. It shares no code with the engine, which keeps the
# check two-route.
#
# Every tensor the transcription reads carries a leading perturbation axis
# of size K (a frozen embedding: 1), so one forward pass evaluates K models
# at once: states are (K, B, n). finite_difference_model perturbs K =
# FD_BLOCK entries of the model's flat trainable vector per pass, one +ih
# per copy, so N entries cost ceil(N / FD_BLOCK) forward passes. Products
# sum in the same index order for any K, and the per-sample losses are
# added in sample order, so the result does not depend on FD_BLOCK.
# ---------------------------------------------------------------------------

# Entries of the flat trainable vector perturbed together in one oracle
# forward pass. At 64 an oracle call at gradcheck's caps (a bidirectional
# lstm, m = n = 8, T = 5, B = 8) peaks at 3.4 MiB under tracemalloc, 6.4 at
# 128 and 1.7 at 32; a gradcheck at the caps took 0.066 s, against 0.067 s
# at 128 and 0.075 s at 32 (one BLAS thread, medians of 60 alternated calls).
FD_BLOCK = 64
_STEP = 1e-30


def _cs_activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "sigmoid":
        up = z.real >= 0
        e = np.exp(np.where(up, -z, z))  # exp(-z) where Re z >= 0, else exp(z)
        return np.where(up, 1.0, e) / (1.0 + e)
    if kind == "tanh":
        return np.tanh(z)
    return np.where(z.real > 0, z, 0.0)


def _cs_final_hidden(variant: str, act: str, f, A: dict, prefix: str,
                     xs: np.ndarray) -> np.ndarray:
    """Final hidden state (K, B, n) of one direction over xs, (T, K, B, m)."""

    def lin(name, v):  # A[name] @ v for every model and sample
        return v @ np.swapaxes(A[prefix + name], -1, -2)

    def vec(name):
        return A[prefix + name][:, None, :]

    n = A[prefix + ("W_hx" if variant == "srnn" else "W_c")].shape[1]
    h = np.zeros((1, 1, n), dtype=complex)
    if variant == "srnn":
        for x in xs:
            h = _cs_activate(act, lin("W_hx", x) + lin("W_hh", h) + vec("b_h"))
        return h
    c = np.zeros_like(h)
    if variant == "lstm":  # the gates [i | f | o | c~], one product per step
        W, U, b = (np.concatenate([A[f"{prefix}{t}_{g}"] for g in "ifoc"], axis=1)
                   for t in "WUb")
        W, U = np.swapaxes(W, -1, -2), np.swapaxes(U, -1, -2)
        for x in xs:
            a = x @ W + h @ U + b[:, None, :]
            g = _cs_activate("sigmoid", a[..., :3 * n])
            c = g[..., n:2 * n] * c + g[..., :n] * _cs_activate(act, a[..., 3 * n:])
            h = g[..., 2 * n:] * _cs_activate(act, c)
        return h
    for x in xs:
        if variant == "lstm6":
            a = lin("W_c", x) + lin("U_c", h) + vec("b_c")
        else:
            a = lin("W_c", x) + vec("u_c") * h + vec("b_c")
        c = f * c + _cs_activate(act, a)
        h = _cs_activate(act, c)
    return h


def _cs_losses(model: SequenceClassifier, A: dict, batch, loss_kind: str) -> np.ndarray:
    """Per-sample losses of each model on the perturbation axis, (K, B).
    Every tensor in A, the frozen embedding included, carries that axis."""
    labels = batch.labels
    cell = model.cell
    xs = np.moveaxis(A["emb.E"][:, batch.tokens], 2, 0)  # (T, K, B, m)
    h = _cs_final_hidden(cell.variant, cell.act, cell.forget_const, A, "fwd.", xs)
    if model.bidirectional:
        h = np.concatenate([h, _cs_final_hidden(cell.variant, cell.act, cell.forget_const,
                                                A, "bwd.", xs[::-1])], axis=-1)
    y_raw = h @ np.swapaxes(A["out.W_hy"], -1, -2) + A["out.b_y"][:, None, :]
    if loss_kind == "bce":  # softplus(-y) for label 1, softplus(y) for label 0
        t = np.where(labels == 1, -1.0, 1.0) * y_raw[..., 0]
        up = t.real > 0
        return np.where(up, t, 0.0) + np.log1p(np.exp(np.where(up, -t, t)))
    top = y_raw.real.max(axis=-1, keepdims=True)
    return (np.log(np.exp(y_raw - top).sum(axis=-1)) + top[..., 0]
            - y_raw[:, np.arange(len(labels)), labels])


def _cs_batch_loss(model: SequenceClassifier, A: dict, batch,
                   loss_kind: str) -> np.ndarray:
    """Mean batch loss of each model on the perturbation axis, (K,): its
    _cs_losses added in sample order, where np.sum would pair them up."""
    losses = _cs_losses(model, A, batch, loss_kind)
    total = np.zeros(len(losses), dtype=complex)
    for loss in losses.T:
        total += loss
    return total / len(batch)


def finite_difference_model(model: SequenceClassifier, batch,
                            loss_kind: str) -> GradientSet:
    """Complex-step gradient of the mean batch loss for every trainable
    tensor, through the complex transcription, keyed like
    model.param_arrays(): each value a view shaped like its tensor into
    one flat buffer. A certification tool for tiny nets, never a training
    path; it runs in the calling process.

    The batch, its tokens and labels, with the loss kind and the readout
    width (check_labels), are checked before any pass runs. Each forward
    pass perturbs the next FD_BLOCK entries of the flat trainable vector,
    the padding row of a trainable embedding skipped: every tensor carries
    one copy per entry, and copy j adds i * 1e-30 to entry j alone. Its
    loss's imaginary part over 1e-30 is that entry's gradient."""
    if len(batch) == 0:
        raise ValueError("cannot difference a loss over an empty batch")
    if batch.T == 0:
        raise ValueError("cannot difference a loss over an empty sequence")
    check_labels(loss_kind, (len(batch), len(model.out.b_y)), batch.labels)
    check_tokens(model.emb, batch.tokens)
    params = model.param_arrays()
    shapes = {key: theta.shape for key, theta in params.items()}
    theta = np.concatenate([a.reshape(-1) for a in params.values()]).astype(complex)
    fixed = {key: a[None] for key, a in model.param_arrays(include_frozen=True).items()
             if key not in params}
    flat = np.zeros(len(theta))
    # the padding row is pinned, not a free parameter: skip it
    for lo in range(model.cell.m if model.emb.trainable else 0, len(theta), FD_BLOCK):
        entries = np.arange(lo, min(lo + FD_BLOCK, len(theta)))
        copies = np.repeat(theta[None], len(entries), axis=0)
        copies[np.arange(len(entries)), entries] += 1j * _STEP
        loss = _cs_batch_loss(model, {**fixed, **_flat_views(copies, shapes)}, batch,
                              loss_kind)
        flat[entries] = loss.imag / _STEP
    return _flat_views(flat, shapes)


def gradient_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max over entries of |a-b| / max(1e-8, |a|+|b|)."""
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# The update rules' fixed constants: adam's moment decays, rmsprop's
# squared-gradient decay, and the denominators' guard against division by 0.
ADAM_BETAS = (0.9, 0.999)
RMSPROP_RHO = 0.9
OPT_EPS = 1e-8


@dataclass(eq=False)
class OptimizerState:
    """First-order update rule over all tensors as one flat array.

    adam: ADAM_BETAS-decayed moments with bias correction; rmsprop:
    RMSPROP_RHO-decayed squared-gradient average; sgd: plain step. The
    first step fixes the tensors' names, order and shapes and allocates one
    flat moment buffer: m and v then map each name to its view of it (a
    value already in m or v is its starting moment).
    """

    kind: str
    eta: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # Fixed at the first step: each tensor's name and shape, in order, and
    # the moment rows of one flat buffer (adam's m, then v; rmsprop's v).
    _shapes: dict = field(default_factory=dict, init=False, repr=False)
    _moments: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if not np.isfinite(self.eta):
            raise ValueError(f"learning rate must be finite, got {self.eta}")
        if self.eta < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.eta}")

    def _fix_layout(self, shapes: dict):
        moments = {"sgd": [], "rmsprop": [self.v], "adam": [self.m, self.v]}[self.kind]
        self._shapes = shapes
        self._moments = np.zeros((len(moments), sum(map(math.prod, shapes.values()))))
        for d, row in zip(moments, self._moments):
            views = _flat_views(row, self._shapes)
            for key, view in views.items():
                view[...] = d.get(key, 0.0)
            d.clear()
            d.update(views)


def optimizer_step(state: OptimizerState, params: dict, grads: GradientSet):
    """Apply one update in place. params and grads must have the names and
    shapes the first step fixed (on the first step, those of params): a
    missing, new or reshaped one raises ValueError naming it, and a refused
    step changes nothing. The gradients are copied once into one flat array
    and the rule runs over all of it at once, in place and with one scratch
    array, with the per-element expressions of a per-tensor update; each
    tensor then subtracts its slice. With eta == 0 every rule leaves the
    parameters bit-identical, and a zero gradient leaves sgd parameters
    untouched."""
    shapes = (state._shapes if state._moments is not None
              else {key: theta.shape for key, theta in params.items()})
    for what, arrays in (("tensor", params), ("gradient", grads)):
        key = min(set(arrays) ^ set(shapes), default=None)
        if key is not None:
            raise ValueError(f"{what} {key} is {'missing' if key in shapes else 'new'}; "
                             f"the layout is {list(shapes)}")
        for key, arr in arrays.items():
            if arr.shape != shapes[key]:
                raise ValueError(f"{what} {key} has shape {arr.shape}, not {shapes[key]}")
    if state._moments is None:
        state._fix_layout(shapes)
    state.t += 1
    # Each rule leaves its step's numerator in G and, but for sgd, its
    # denominator in the scratch array S, op for op as a per-tensor update.
    # Both live for one step only: a model keeps just its moments.
    G = np.concatenate([grads[key].reshape(-1) for key in shapes])
    if state.kind != "sgd":
        S = np.empty_like(G)
    if state.kind == "rmsprop":
        (V,) = state._moments
        V *= RMSPROP_RHO
        np.multiply(G, 1.0 - RMSPROP_RHO, out=S)
        S *= G
        V += S
        np.sqrt(V, out=S)
    elif state.kind == "adam":
        M, V = state._moments
        beta1, beta2 = ADAM_BETAS
        M *= beta1
        np.multiply(G, 1.0 - beta1, out=S)
        M += S
        V *= beta2
        np.multiply(G, 1.0 - beta2, out=S)
        S *= G
        V += S
        np.divide(V, 1.0 - beta2 ** state.t, out=S)
        np.sqrt(S, out=S)
        np.divide(M, 1.0 - beta1 ** state.t, out=G)
    G *= state.eta
    if state.kind != "sgd":
        S += OPT_EPS
        G /= S
    for key, step in _flat_views(G, shapes).items():
        np.subtract(params[key], step, out=params[key])


def evaluate(model: SequenceClassifier, batch, loss_kind: str):
    """Mean loss and accuracy over a split, forward passes only, run
    without recording caches on slices of max(1, EVAL_BUDGET // row)
    samples. row is the bytes a slice holds per sample: its gathered T m
    inputs, run_cell's one-step stacks (two alternating h, and c, states,
    one gate or candidate buffer: _stack_bytes(model, 1)) and, per
    direction, one step's input terms, gate_width wide. The loss kind and
    the labels are checked first (check_labels), before any slice runs.

    A slice of b >= 2 samples and at least EVAL_FORK_MIN_SAMPLE_STEPS
    sample-steps (b T D) runs _states_job on two shares, the second in the
    helper as model_gradients' is: a bidirectional model's two directions,
    fwd. here and bwd. there, each over every row, and one direction's row
    halves [0, b//2) and [b//2, b). Each writes its final states into the
    slice's (b, D n) states, whose readout is then one output_layer_apply
    over the whole slice. A direction share computes the unsplit forward's
    own products, so a split bidirectional slice keeps its bits at every
    shape; a row half keeps them at the benchmark shapes, and elsewhere may
    move them in the last bits.

    Binary predictions are class 1 where the raw score is >= 0, which is
    sigmoid >= 0.5 without expit rounding scores just below 0 up to 0.5;
    multi-class predictions take the arg-max score.
    """
    if len(batch) == 0:
        raise ValueError("cannot evaluate an empty split")
    check_labels(loss_kind, (len(batch), len(model.out.b_y)), batch.labels)
    total = 0.0
    correct = 0
    terms = len(model.directions) * gate_width(model.cell)
    row = 8 * (batch.T * model.cell.m + terms) + _stack_bytes(model, 1)
    size = max(1, EVAL_BUDGET // row)
    for start in range(0, len(batch), size):
        rows = slice(start, start + size)
        tokens, labels = batch.tokens[rows], batch.labels[rows]
        b = len(tokens)
        if b >= 2 and b * batch.T * len(model.directions) >= EVAL_FORK_MIN_SAMPLE_STEPS:
            n, half = model.cell.n, b // 2
            h = np.empty((b, len(model.directions) * n))
            if model.bidirectional:  # one direction each, over every row
                shares = [([np.array(d), tokens], [h[:, d * n:(d + 1) * n]]) for d in (0, 1)]
            else:
                shares = [([np.array(0), tokens[part]], [h[part]])
                          for part in (slice(None, half), slice(half, None))]
            _helper_walk(model, _states_job, (), *shares)
            y_raw = output_layer_apply(model.out, h)
        else:
            y_raw, _ = model.forward(embed_lookup(model.emb, tokens.T))
        losses, _ = loss_eval(loss_kind, y_raw, labels)
        total += float(losses.sum())
        if loss_kind == "bce":
            pred = y_raw[:, 0] >= 0.0
        else:
            pred = np.argmax(y_raw, axis=-1)
        correct += int(np.sum(pred == labels))
    return total / len(batch), correct / len(batch)


@dataclass
class MetricsRecord:
    """One epoch's scoreboard row."""

    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    seconds: float


def train_epoch(model: SequenceClassifier, train, test, opt: OptimizerState,
                loss_kind: str, batch_size: int, seed: int,
                epoch: int) -> MetricsRecord:
    """One pass over the training split plus a full evaluation of both
    splits. The visit order is a fresh Fisher-Yates shuffle seeded with
    seed + epoch, so a run is reproducible from (seed, epoch) alone and
    identical whether or not earlier epochs ran in the same process.

    A minibatch whose loss or any gradient is not finite raises
    FloatingPointError, naming it and the epoch, before the optimizer
    step: the model keeps the weights it had.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test splits must both be non-empty")
    t0 = time.perf_counter()
    order = make_rng(seed + epoch).permutation(len(train))
    params = model.param_arrays()
    for start in range(0, len(order), batch_size):
        sub = train.subset(order[start:start + batch_size])
        loss, grads = model_gradients(model, sub, loss_kind)
        bad = next((k for k, v in (("loss", loss), *grads.items())
                    if not np.isfinite(v).all()), None)
        if bad is not None:
            raise FloatingPointError(f"non-finite {bad} in epoch {epoch}")
        optimizer_step(opt, params, grads)
    train_loss, train_acc = evaluate(model, train, loss_kind)
    test_loss, test_acc = evaluate(model, test, loss_kind)
    seconds = time.perf_counter() - t0
    return MetricsRecord(epoch=epoch, train_loss=train_loss, train_acc=train_acc,
                         test_loss=test_loss, test_acc=test_acc, seconds=seconds)
