"""Losses, exact backpropagation through time, a finite-difference
gradient oracle, optimizers, and the epoch loop.

Gradients are hand-derived per cell variant and flow only from the
final-step loss; there is no per-step target. Backpropagation runs over
the stacked arrays run_cell records: a minibatch is walked in chunks
whose stacks fit CACHE_BUDGET bytes, each sample's forward pass records
straight into one column of its chunk's arrays, and one reverse pass per
chunk and direction carries the state gradients and writes each step's
pre-activation delta: a loop over time for srnn, lstm and lstm6, and for
lstm_c6, whose recurrence is element-wise, one running product over
time. Each weight gradient is then one matrix product over all steps of
the chunk. Every gradient path here is certified against central finite
differences in the test suite, so treat the two implementations as
independent and never "fix" one by copying from the other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .cells import (ADAPTIVE_FIELDS, CellParams, OutputLayer, output_layer_apply,
                    record_arrays, record_shapes, run_cell, stack_gates)
from .data import EmbeddingTable, PAD_INDEX, embed_lookup
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

# Bytes of recorded stacks one model_gradients chunk may hold. Every sample
# in a chunk shares one reverse pass, which amortizes its per-step dispatch;
# a sequence whose stacks alone pass the budget runs as a chunk of one. At
# the paper shape (m=32, n=100, T=500) 3 MiB gives lstm6 and lstm_c6 chunks
# of 2 samples and srnn 7, while lstm and bidirectional lstm6 stay at 1; the
# paper benchmark's peak RSS rose 2.4% over a 1 MiB budget. It is the
# largest budget that keeps that rise under 3%: from 3.06 MiB srnn takes 8
# samples and the rise was 4%.
CACHE_BUDGET = 3 << 20


def one_hot(label, k: int) -> np.ndarray:
    """One-hot rows: (k,) for one label, (B, k) for an array of labels."""
    label = np.asarray(label)
    if label.size and (label.min() < 0 or label.max() >= k):
        raise ValueError(f"label {label} outside [0, {k})")
    return (label[..., None] == np.arange(k)).astype(np.float64)


def loss_eval(kind: str, y_raw: np.ndarray, y_true: np.ndarray):
    """Loss value and its gradient with respect to the raw output.

    bce: scalar raw score through a sigmoid, target in {0, 1}.
    cce: raw score vector through a softmax, one-hot target.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the log, and
    both gradients reduce to p - y. y_raw and y_true are (k,) for one
    sample or (B, k) for a batch; the loss is then a float or a (B,)
    array of per-sample losses.
    """
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}")
    bce = kind == "bce"
    if (y_raw.shape != y_true.shape or y_raw.ndim not in (1, 2)
            or (bce and y_raw.shape[-1] != 1)):
        raise ValueError(f"{kind} needs {'length-1' if bce else 'matching'} "
                         f"vectors, got {y_raw.shape} and {y_true.shape}")
    if not ((y_true == 0.0) | (y_true == 1.0)).all():
        raise ValueError(f"{kind} target must be {'0 or 1' if bce else 'one-hot'}")
    if bce:
        p = np.clip(expit(y_raw), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        loss = -np.log(np.where(y_true == 1.0, p, 1.0 - p))[..., 0]
    else:
        if not (y_true.sum(axis=-1) == 1.0).all():
            raise ValueError("cce target must be one-hot")
        e = np.exp(y_raw - y_raw.max(axis=-1, keepdims=True))
        p = np.clip(e / e.sum(axis=-1, keepdims=True), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        loss = -np.log(np.sum(p * y_true, axis=-1))
    return (float(loss) if y_raw.ndim == 1 else loss), p - y_true


@dataclass
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

    def forward(self, xs: np.ndarray, record=False):
        """The model's one forward pass over time-major inputs xs, (T, m)
        for one sample or (T, B, m) for a batch: each direction's cell over
        xs in its time order, then the readout of their final states
        [h_fwd ; h_bwd]. Returns (y_raw, h, stacks): h is what the readout
        read, stacks lists each direction's run_cell stacks (None unless
        record is set) in directions order; the backward direction's
        stacks run over reversed time. record may also list, in directions
        order, the (H, C, aux) arrays each direction records into (see
        run_cell).
        """
        into = [record] * len(self.directions) if isinstance(record, bool) else record
        runs = [run_cell(cell, xs[::step], record=rec)
                for (cell, _, step), rec in zip(self.directions, into, strict=True)]
        h = runs[0][0] if len(runs) == 1 else np.concatenate([r[0] for r in runs], -1)
        return output_layer_apply(self.out, h), h, [r[2] for r in runs]


def _targets(loss_kind: str, labels, out_dim: int) -> np.ndarray:
    """Target rows for one label or an array of labels."""
    if loss_kind == "bce":
        return np.asarray(labels, dtype=np.float64)[..., None]
    return one_hot(labels, out_dim)


def _backward_cell(p: CellParams, xs: np.ndarray, stacks, dh: np.ndarray,
                   grads: GradientSet, prefix: str, need_dx: bool):
    """Backpropagate dh (gradient at the final hidden state) through the
    stacks run_cell recorded over xs, accumulating into grads. Returns
    the gradient with respect to xs, or None when not requested.

    The derivative factors are computed once per sequence into D, one row
    per step. For srnn, lstm and lstm6 a reverse loop carries only dh and
    dc and scales each row in place into that step's pre-activation delta.
    lstm_c6's Jacobian is diagonal, so its carried dc obeys a linear
    recurrence, dc_t = dc_{t+1} G[t], and one multiply.accumulate over
    reversed time gives every step's dc at once (the scan view of linear
    recurrences; Martin & Cundy, 2018). Either way the carried gradient is
    zeroed from the latest step whose squared norm over the chunk is below
    _UNDERFLOW back to the start. The weight gradients then come from all
    rows at once: gW += D^T X, gR += D^T H[:-1] (lstm_c6: the column sums
    of D * H[:-1]), gb += column sums of D. Rows may carry a batch axis:
    everything after the reverse pass works on (rows, width) views.
    """
    H, C, aux = stacks
    names = ADAPTIVE_FIELDS[p.variant]  # (W, R, b) per gate block, gates i f o c
    W, R, _ = stack_gates(p)
    T, n = len(xs), p.n
    if p.variant == "srnn":
        D = activate_grad_from_output(p.act, H[1:])
        for t in range(T - 1, -1, -1):
            d = D[t]
            d *= dh
            dh = d.dot(R)
            if np.vdot(dh, dh) < _UNDERFLOW:
                dh[...] = 0.0
    elif p.variant == "lstm":
        i, f, o, c_tilde = (aux[..., k * n:(k + 1) * n] for k in range(4))
        s = activate(p.act, C[1:])
        dc_dh = o * activate_grad_from_output(p.act, s)
        D = activate_grad_from_output("sigmoid", aux)  # the c block is redone below
        D[..., 3 * n:] = activate_grad_from_output(p.act, c_tilde)
        for k, factor in enumerate((c_tilde, C[:-1], s, i)):
            D[..., k * n:(k + 1) * n] *= factor
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
        dc_dh = activate_grad_from_output(p.act, H[1:])
        D = activate_grad_from_output(p.act, aux)
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
        G = activate_grad_from_output(p.act, H[1:])
        D = activate_grad_from_output(p.act, aux)
        G[-1] *= dh
        G[:-1] *= D[1:]
        G[:-1] *= R
        G[:-1] += p.forget_const
        np.multiply.accumulate(G[::-1], axis=0, out=G[::-1])
        S = G.reshape(T, -1)
        small = np.flatnonzero(np.einsum("ij,ij->i", S, S) < _UNDERFLOW)
        if small.size:  # the latest such step and every earlier one
            G[:small[-1] + 1] = 0.0
        D *= G
    D = D.reshape(-1, D.shape[-1])
    H_prev = H[:-1].reshape(-1, n)
    gW, gb = D.T @ xs.reshape(-1, p.m), D.sum(axis=0)
    gR = (D * H_prev).sum(axis=0) if p.variant == "lstm_c6" else D.T @ H_prev
    for k in range(len(names) // 3):
        rows = slice(k * n, (k + 1) * n)
        for name, g in zip(names[3 * k:3 * k + 3], (gW, gR, gb)):
            grads[prefix + name] += g[rows]
    return (D @ W).reshape(xs.shape) if need_dx else None


def model_gradients(model: SequenceClassifier, batch, loss_kind: str):
    """Mean loss and exact gradients for every trainable tensor, keyed like
    model.param_arrays().

    The batch is walked in chunks of max(1, CACHE_BUDGET // bytes) samples,
    bytes being what run_cell records for one sample over every direction
    (record_shapes). Each direction's (T+1, b, n) / (T, b, width) arrays
    are allocated once per call and serve every chunk, a short last chunk
    its leading columns, so the pass holds one chunk's stacks and no more.
    A chunk's inputs are gathered once as (T, b, m); each sample runs its
    own forward pass on column j of them, recording straight into column j
    of those arrays, and writes its raw output into row j of a (b, k)
    array. Each chunk then takes one loss_eval call on its (b, k) rows, one
    readout gradient product over the directions' final states H[-1], one
    reverse pass per direction and one embedding scatter. Losses add in
    sample order, as in a per-sample loop; the gradients sum in
    chunk-product order.
    """
    if len(batch) == 0:
        raise ValueError("cannot take gradients over an empty batch")
    params = model.param_arrays()
    grads: GradientSet = {k: np.zeros_like(v) for k, v in params.items()}
    out_dim = model.out.b_y.shape[0]
    need_dx = model.emb.trainable
    n = model.cell.n
    B, T = len(batch), batch.T
    targets = _targets(loss_kind, batch.labels, out_dim)
    sample = sum(8 * math.prod(s) for cell, _, _ in model.directions
                 for s in record_shapes(cell, T, (1,)) if s is not None)
    rows = min(B, max(1, CACHE_BUDGET // sample))
    stacks = [record_arrays(cell, T, (rows,)) for cell, _, _ in model.directions]
    total = 0.0
    for start in range(0, B, rows):
        stop = min(start + rows, B)
        b = stop - start
        Y = np.empty((b, out_dim))
        X = embed_lookup(model.emb, batch.tokens[start:stop].T)  # (T, b, m)
        chunk = [[None if a is None else a[:, :b] for a in s] for s in stacks]
        # The forward stays per sample: perfbench's traced counts pin one step
        # call per sample-step. Batching it means one model.forward(X,
        # record=chunk) in place of this loop once those counts move.
        for j in range(b):
            columns = [[None if a is None else a[:, j] for a in s] for s in chunk]
            Y[j] = model.forward(X[:, j], record=columns)[0]
        losses, dY = loss_eval(loss_kind, Y, targets[start:stop])
        for loss in losses:
            total += float(loss)
        grads["out.W_hy"] += dY.T @ np.concatenate([H[-1] for H, _, _ in chunk], axis=-1)
        grads["out.b_y"] += dY.sum(axis=0)
        dH = dY @ model.out.W_hy
        for k, ((cell, prefix, step), arrays) in enumerate(zip(model.directions, chunk)):
            dx = _backward_cell(cell, X[::step], arrays, dH[:, k * n:(k + 1) * n],
                                grads, prefix, need_dx)
            if need_dx:
                dX = dx[::step] if k == 0 else dX + dx[::step]
        if need_dx:
            np.add.at(grads["emb.E"], batch.tokens[start:stop].T, dX)
    for g in grads.values():
        g /= B
    if need_dx:
        grads["emb.E"][PAD_INDEX] = 0.0  # padding row never trains
    return total / B, grads


def _strip_prefix(key: str) -> str:
    if key == "emb.E":
        return "E"
    return key.split(".", 1)[1]


def bptt_gradients(p: CellParams, out: OutputLayer, emb: EmbeddingTable,
                   batch, loss_kind: str):
    """Single-cell entry point: mean batch loss and gradients keyed by
    bare tensor names (W_c, ..., W_hy, b_y, and E for the embedding)."""
    model = SequenceClassifier(cell=p, out=out, emb=emb)
    total, grads = model_gradients(model, batch, loss_kind)
    return total, {_strip_prefix(k): v for k, v in grads.items()}


# ---------------------------------------------------------------------------
# Finite-difference oracle.
#
# The oracle re-transcribes the forward map from the recurrences and runs
# it in extended precision (80-bit long double on x86-64). Central
# differences at eps = 1e-6 lose ~|L|*macheps/eps to cancellation, which
# at double precision is ~1e-10 absolute: too coarse to certify gradient
# entries of magnitude 1e-6 to a relative 1e-6. Extended precision pushes
# the cancellation floor below 1e-13, and sharing no code with the engine
# keeps the check two-route.
#
# Every tensor the transcription reads carries a leading perturbation axis
# of size K or 1, so one forward pass evaluates K models at once: states
# are (K, B, n). finite_difference_model perturbs one tensor FD_BLOCK
# entries at a time and stacks the block's +eps and -eps copies on that
# axis (K = 2 * block), so a tensor of N entries costs ceil(N / FD_BLOCK)
# forward passes. Products sum in the same index order for any K, and the
# per-sample losses are added in sample order, so the result does not
# depend on FD_BLOCK.
# ---------------------------------------------------------------------------

# Entries of one tensor perturbed together in one oracle forward pass.
FD_BLOCK = 128


def _ld_activate(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "sigmoid":
        e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, else exp(x): never overflows
        return np.where(x >= 0, 1.0, e) / (1.0 + e)
    if kind == "tanh":
        return np.tanh(x)
    return np.maximum(x, 0.0)


def _ld_final_hidden(variant: str, act: str, f, A: dict, prefix: str,
                     xs: np.ndarray) -> np.ndarray:
    """Final hidden state (K, B, n) of one direction over xs, (T, K, B, m)."""

    def lin(name, v):  # A[name] @ v for every model and sample
        return v @ np.swapaxes(A[prefix + name], -1, -2)

    def vec(name):
        return A[prefix + name][:, None, :]

    n = A[prefix + ("W_hx" if variant == "srnn" else "W_c")].shape[1]
    h = np.zeros((1, 1, n), dtype=np.longdouble)
    if variant == "srnn":
        for x in xs:
            h = _ld_activate(act, lin("W_hx", x) + lin("W_hh", h) + vec("b_h"))
        return h
    c = np.zeros_like(h)
    if variant == "lstm":
        for x in xs:
            i = _ld_activate("sigmoid", lin("W_i", x) + lin("U_i", h) + vec("b_i"))
            fg = _ld_activate("sigmoid", lin("W_f", x) + lin("U_f", h) + vec("b_f"))
            o = _ld_activate("sigmoid", lin("W_o", x) + lin("U_o", h) + vec("b_o"))
            ct = _ld_activate(act, lin("W_c", x) + lin("U_c", h) + vec("b_c"))
            c = fg * c + i * ct
            h = o * _ld_activate(act, c)
        return h
    for x in xs:
        if variant == "lstm6":
            a = lin("W_c", x) + lin("U_c", h) + vec("b_c")
        else:
            a = lin("W_c", x) + vec("u_c") * h + vec("b_c")
        c = f * c + _ld_activate(act, a)
        h = _ld_activate(act, c)
    return h


def _ld_batch_loss(model: SequenceClassifier, A: dict, batch,
                   loss_kind: str) -> np.ndarray:
    """Mean batch loss of each model on the perturbation axis, (K,). Every
    tensor in A, the frozen embedding included, carries that axis."""
    cell = model.cell
    floor = np.longdouble(_PROB_FLOOR)
    xs = np.moveaxis(A["emb.E"][:, batch.tokens], 2, 0)  # (T, K, B, m)
    h = _ld_final_hidden(cell.variant, cell.act, cell.forget_const, A,
                         "fwd.", xs)
    if model.bidirectional:
        h_b = _ld_final_hidden(cell.variant, cell.act, cell.forget_const,
                               A, "bwd.", xs[::-1])
        h = np.concatenate(np.broadcast_arrays(h, h_b), axis=-1)
    y_raw = h @ np.swapaxes(A["out.W_hy"], -1, -2) + A["out.b_y"][:, None, :]
    labels = np.asarray(batch.labels).astype(np.int64)
    if loss_kind == "bce":
        p = np.clip(_ld_activate("sigmoid", y_raw)[..., 0], floor, 1.0 - floor)
        losses = -(labels * np.log(p) + (1 - labels) * np.log(1.0 - p))
    else:
        z = y_raw - y_raw.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = np.clip(e / e.sum(axis=-1, keepdims=True), floor, 1.0 - floor)
        losses = -np.log(p[:, np.arange(len(labels)), labels])
    total = np.zeros(len(losses), dtype=np.longdouble)
    for loss in losses.T:  # in sample order: np.sum would pair them up
        total += loss
    return total / len(batch)


def finite_difference_model(model: SequenceClassifier, batch, loss_kind: str,
                            epsilon: float = 1e-6) -> GradientSet:
    """Central-difference gradient of the mean batch loss for every
    trainable tensor, through the extended-precision transcription. Each
    forward pass evaluates the +eps and -eps copies of up to FD_BLOCK
    entries of one tensor at once, so a tensor of N entries costs
    ceil(N / FD_BLOCK) passes over the batch. A certification tool for
    tiny nets, never a training path."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps = np.longdouble(epsilon)
    A = {k: np.asarray(v, dtype=np.longdouble)[None]
         for k, v in model.param_arrays(include_frozen=True).items()}
    grads: GradientSet = {}
    for name in model.param_arrays():
        base = A[name]
        g = np.zeros(base.shape[1:])
        gflat = g.reshape(-1)
        # the padding row is pinned, not a free parameter: skip it
        start = base.shape[2] if name == "emb.E" else 0
        for lo in range(start, g.size, FD_BLOCK):
            idx = np.arange(lo, min(lo + FD_BLOCK, g.size))
            k = len(idx)
            stack = np.repeat(base, 2 * k, axis=0)
            flat = stack.reshape(2 * k, -1)
            flat[np.arange(k), idx] += eps
            flat[np.arange(k, 2 * k), idx] -= eps
            loss = _ld_batch_loss(model, {**A, name: stack}, batch, loss_kind)
            gflat[idx] = (loss[:k] - loss[k:]) / (2.0 * eps)
        grads[name] = g
    return grads


def finite_difference_oracle(p: CellParams, out: OutputLayer, emb: EmbeddingTable,
                             batch, loss_kind: str,
                             epsilon: float = 1e-6) -> GradientSet:
    """Single-cell oracle, keyed like bptt_gradients."""
    model = SequenceClassifier(cell=p, out=out, emb=emb)
    grads = finite_difference_model(model, batch, loss_kind, epsilon)
    return {_strip_prefix(k): v for k, v in grads.items()}


def gradient_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max over entries of |a-b| / max(1e-8, |a|+|b|)."""
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@dataclass
class OptimizerState:
    """First-order update rule with per-tensor moment buffers.

    adam: beta1/beta2 moments with bias correction; rmsprop: rho-decayed
    squared-gradient average; sgd: plain step. Moments are allocated
    lazily the first time a tensor is seen.
    """

    kind: str
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    rho: float = 0.9
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if not np.isfinite(self.eta):
            raise ValueError(f"learning rate must be finite, got {self.eta}")
        if self.eta < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.eta}")


def optimizer_step(state: OptimizerState, params: dict, grads: GradientSet):
    """Apply one update in place. params and grads must share keys and
    per-key shapes. With eta == 0 every rule leaves the parameters
    bit-identical, and a zero gradient leaves sgd parameters untouched."""
    if set(params) != set(grads):
        raise ValueError(
            f"params/grads key mismatch: {sorted(set(params) ^ set(grads))}")
    state.t += 1
    for key, theta in params.items():
        g = grads[key]
        if g.shape != theta.shape:
            raise ValueError(
                f"gradient for {key} has shape {g.shape}, tensor is {theta.shape}")
        if state.kind == "sgd":
            theta -= state.eta * g
            continue
        if state.kind == "rmsprop":
            v = state.v.setdefault(key, np.zeros_like(theta))
            v *= state.rho
            v += (1.0 - state.rho) * g * g
            theta -= state.eta * g / (np.sqrt(v) + state.eps)
            continue
        m = state.m.setdefault(key, np.zeros_like(theta))
        v = state.v.setdefault(key, np.zeros_like(theta))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** state.t)
        v_hat = v / (1.0 - state.beta2 ** state.t)
        theta -= state.eta * m_hat / (np.sqrt(v_hat) + state.eps)


def evaluate(model: SequenceClassifier, batch, loss_kind: str):
    """Mean loss and accuracy over a split, forward passes only, run
    without recording caches on slices of max(1, EVAL_BUDGET // row)
    samples. row is the bytes a slice holds per sample: its gathered (T, m)
    inputs and, per direction, run_cell's two alternating h (and c) states,
    one step's input terms and its gate or candidate buffer, each n wide
    but lstm's terms and gates 4n.

    Binary predictions threshold the sigmoid probability at 0.5;
    multi-class predictions take the arg-max score.
    """
    if len(batch) == 0:
        raise ValueError("cannot evaluate an empty split")
    out_dim = model.out.b_y.shape[0]
    total = 0.0
    correct = 0
    width = {"srnn": 3, "lstm": 12}.get(model.cell.variant, 6) * model.cell.n
    row = 8 * (batch.T * model.cell.m + len(model.directions) * width)
    size = max(1, EVAL_BUDGET // row)
    for start in range(0, len(batch), size):
        rows = slice(start, start + size)
        labels = batch.labels[rows]
        y_raw, _, _ = model.forward(embed_lookup(model.emb, batch.tokens[rows].T))
        losses, _ = loss_eval(loss_kind, y_raw, _targets(loss_kind, labels, out_dim))
        total += float(losses.sum())
        if loss_kind == "bce":
            pred = expit(y_raw[:, 0]) >= 0.5
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
