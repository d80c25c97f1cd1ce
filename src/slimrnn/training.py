"""Losses, exact backpropagation through time, a finite-difference
gradient oracle, optimizers, and the epoch loop.

Gradients are hand-derived per cell variant and flow only from the
final-step loss; there is no per-step target. Every gradient path here
is certified against central finite differences in the test suite, so
treat the two implementations as independent and never "fix" one by
copying from the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .cells import (CellParams, OutputLayer, output_layer_apply, run_cell)
from .data import EmbeddingTable, PAD_INDEX, embed_lookup
from .numerics import activate, activate_grad_from_output, make_rng

LOSSES = ("bce", "cce")
OPTIMIZERS = ("adam", "rmsprop", "sgd")

_PROB_FLOOR = 1e-12

# GradientSet: plain dict, tensor name -> array shaped like the tensor.
GradientSet = dict


# Samples per forward pass in evaluate: big enough to amortize the per-step
# dispatch, small enough that memory stays flat on any split size.
EVAL_SLICE = 64


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
    """Embedding (optional) + one or two cells + affine readout.

    With cell_bwd set the model is bidirectional: the output layer reads
    the concatenation [h_fwd_T ; h_bwd_T] and is 2n wide.
    """

    cell: CellParams
    out: OutputLayer
    emb: EmbeddingTable | None = None
    cell_bwd: CellParams | None = None

    def __post_init__(self):
        if self.cell_bwd is None:
            return
        for a, b, what in ((self.cell.variant, self.cell_bwd.variant, "variant"),
                           (self.cell.m, self.cell_bwd.m, "m"),
                           (self.cell.n, self.cell_bwd.n, "n")):
            if a != b:
                raise ValueError(f"bidirectional cells disagree on {what}: {a} vs {b}")

    @property
    def bidirectional(self) -> bool:
        return self.cell_bwd is not None

    def param_arrays(self, include_frozen: bool = False) -> dict[str, np.ndarray]:
        """Named tensors in canonical order: emb.E, fwd.*, bwd.*, out.*.

        By default only trainable tensors appear (a frozen embedding is
        skipped); include_frozen=True lists everything, which is what
        serialization wants.
        """
        d: dict[str, np.ndarray] = {}
        if self.emb is not None and (self.emb.trainable or include_frozen):
            d["emb.E"] = self.emb.E
        for name, arr in self.cell.param_arrays().items():
            d[f"fwd.{name}"] = arr
        if self.cell_bwd is not None:
            for name, arr in self.cell_bwd.param_arrays().items():
                d[f"bwd.{name}"] = arr
        for name, arr in self.out.param_arrays().items():
            d[f"out.{name}"] = arr
        return d

    def forward(self, xs: np.ndarray, record: bool = False):
        """The model's one forward pass over time-major inputs xs, (T, m)
        for one sample or (T, B, m) for a batch: the forward cell over xs,
        the backward cell (if any) over reversed time, then the readout of
        [h_fwd ; h_bwd]. Returns (y_raw, h, caches): h is what the readout
        read, caches holds each direction's step caches when record is set.
        """
        h, _, caches = run_cell(self.cell, xs, record=record)
        caches = [caches]
        if self.cell_bwd is not None:
            h_b, _, caches_b = run_cell(self.cell_bwd, xs[::-1], record=record)
            h = np.concatenate([h, h_b], axis=-1)
            caches.append(caches_b)
        return output_layer_apply(self.out, h), h, caches


def _inputs(model: SequenceClassifier, batch, rows) -> np.ndarray:
    """Time-major inputs of a batch's rows: (T, m) for one sample index,
    (T, B, m) for a slice."""
    if model.emb is not None:
        return embed_lookup(model.emb, batch.tokens[rows].T)
    return np.swapaxes(batch.inputs[rows], 0, -2)


def _targets(loss_kind: str, labels, out_dim: int) -> np.ndarray:
    """Target rows for one label or an array of labels."""
    if loss_kind == "bce":
        return np.asarray(labels, dtype=np.float64)[..., None]
    return one_hot(labels, out_dim)


def _backward_cell(p: CellParams, caches, dh: np.ndarray, grads: GradientSet,
                   prefix: str, need_dx: bool):
    """Backpropagate dh (gradient at the final hidden state) through all
    cached steps, accumulating into grads. Returns the (T, m) gradient
    with respect to the inputs, or None when not requested."""
    T = len(caches)
    dxs = np.empty((T, p.m)) if need_dx else None

    if p.variant == "srnn":
        gW, gR, gb = grads[prefix + "W_hx"], grads[prefix + "W_hh"], grads[prefix + "b_h"]
        for t in range(T - 1, -1, -1):
            k = caches[t]
            da = dh * activate_grad_from_output(p.act, k.h_t)
            gW += np.outer(da, k.x_t)
            gR += np.outer(da, k.h_prev)
            gb += da
            if need_dx:
                dxs[t] = p.W_hx.T @ da
            dh = p.W_hh.T @ da
        return dxs

    dc = np.zeros(p.n)
    if p.variant == "lstm":
        for t in range(T - 1, -1, -1):
            k = caches[t]
            s = activate(p.act, k.c_t)
            do = dh * s
            dc = dc + dh * k.o_t * activate_grad_from_output(p.act, s)
            da_i = (dc * k.c_tilde) * (k.i_t * (1.0 - k.i_t))
            da_f = (dc * k.c_prev) * (k.f_t * (1.0 - k.f_t))
            da_o = do * (k.o_t * (1.0 - k.o_t))
            da_c = (dc * k.i_t) * activate_grad_from_output(p.act, k.c_tilde)
            for gate, da in (("i", da_i), ("f", da_f), ("o", da_o), ("c", da_c)):
                grads[f"{prefix}W_{gate}"] += np.outer(da, k.x_t)
                grads[f"{prefix}U_{gate}"] += np.outer(da, k.h_prev)
                grads[f"{prefix}b_{gate}"] += da
            dh = (p.U_i.T @ da_i + p.U_f.T @ da_f
                  + p.U_o.T @ da_o + p.U_c.T @ da_c)
            if need_dx:
                dxs[t] = (p.W_i.T @ da_i + p.W_f.T @ da_f
                          + p.W_o.T @ da_o + p.W_c.T @ da_c)
            dc = dc * k.f_t
        return dxs

    # slim variants: h_t = act(c_t), i = o = 1, f constant
    gW, gb = grads[prefix + "W_c"], grads[prefix + "b_c"]
    recur_key = prefix + ("U_c" if p.variant == "lstm6" else "u_c")
    gR = grads[recur_key]
    f = p.forget_const
    for t in range(T - 1, -1, -1):
        k = caches[t]
        dc = dc + dh * activate_grad_from_output(p.act, k.h_t)
        da_c = dc * activate_grad_from_output(p.act, k.c_tilde)
        gW += np.outer(da_c, k.x_t)
        gb += da_c
        if p.variant == "lstm6":
            gR += np.outer(da_c, k.h_prev)
            dh = p.U_c.T @ da_c
        else:
            gR += da_c * k.h_prev
            dh = p.u_c * da_c
        if need_dx:
            dxs[t] = p.W_c.T @ da_c
        dc = dc * f
    return dxs


def model_gradients(model: SequenceClassifier, batch, loss_kind: str):
    """Mean loss over a batch and exact gradients for every trainable
    tensor, keyed like model.param_arrays()."""
    if len(batch) == 0:
        raise ValueError("cannot take gradients over an empty batch")
    params = model.param_arrays()
    grads: GradientSet = {k: np.zeros_like(v) for k, v in params.items()}
    out_dim = model.out.b_y.shape[0]
    need_dx = model.emb is not None and model.emb.trainable
    n = model.cell.n
    B = len(batch)
    total = 0.0
    for i in range(B):
        y_raw, h, caches = model.forward(_inputs(model, batch, i), record=True)
        loss, dy = loss_eval(loss_kind, y_raw,
                             _targets(loss_kind, batch.labels[i], out_dim))
        total += loss
        grads["out.W_hy"] += np.outer(dy, h)
        grads["out.b_y"] += dy
        dh = model.out.W_hy.T @ dy
        dxs = _backward_cell(model.cell, caches[0], dh[:n], grads, "fwd.", need_dx)
        if model.bidirectional:
            dx_b = _backward_cell(model.cell_bwd, caches[1], dh[n:], grads,
                                  "bwd.", need_dx)
            if need_dx:
                dxs = dxs + dx_b[::-1]
        if need_dx:
            np.add.at(grads["emb.E"], batch.tokens[i], dxs)
    for g in grads.values():
        g /= B
    if "emb.E" in grads:
        grads["emb.E"][PAD_INDEX] = 0.0  # padding row never trains
    return total / B, grads


def _strip_prefix(key: str) -> str:
    if key == "emb.E":
        return "E"
    return key.split(".", 1)[1]


def bptt_gradients(p: CellParams, out: OutputLayer, emb: EmbeddingTable | None,
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
# ---------------------------------------------------------------------------

def _ld_activate(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "sigmoid":
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        out[~pos] = e / (1.0 + e)
        return out
    if kind == "tanh":
        return np.tanh(x)
    return np.maximum(x, 0.0)


def _ld_final_hidden(variant: str, act: str, f, A: dict, prefix: str,
                     xs: np.ndarray) -> np.ndarray:
    n = A[prefix + ("W_hx" if variant == "srnn" else "W_c")].shape[0]
    h = np.zeros(n, dtype=np.longdouble)
    if variant == "srnn":
        W, R, b = A[prefix + "W_hx"], A[prefix + "W_hh"], A[prefix + "b_h"]
        for x in xs:
            h = _ld_activate(act, W @ x + R @ h + b)
        return h
    c = np.zeros(n, dtype=np.longdouble)
    if variant == "lstm":
        for x in xs:
            i = _ld_activate("sigmoid", A[prefix + "W_i"] @ x + A[prefix + "U_i"] @ h + A[prefix + "b_i"])
            fg = _ld_activate("sigmoid", A[prefix + "W_f"] @ x + A[prefix + "U_f"] @ h + A[prefix + "b_f"])
            o = _ld_activate("sigmoid", A[prefix + "W_o"] @ x + A[prefix + "U_o"] @ h + A[prefix + "b_o"])
            ct = _ld_activate(act, A[prefix + "W_c"] @ x + A[prefix + "U_c"] @ h + A[prefix + "b_c"])
            c = fg * c + i * ct
            h = o * _ld_activate(act, c)
        return h
    W, b = A[prefix + "W_c"], A[prefix + "b_c"]
    for x in xs:
        if variant == "lstm6":
            a = W @ x + A[prefix + "U_c"] @ h + b
        else:
            a = W @ x + A[prefix + "u_c"] * h + b
        c = f * c + _ld_activate(act, a)
        h = _ld_activate(act, c)
    return h


def _ld_batch_loss(model: SequenceClassifier, A: dict, batch,
                   loss_kind: str) -> np.longdouble:
    cell = model.cell
    out_dim = model.out.b_y.shape[0]
    floor = np.longdouble(_PROB_FLOOR)
    total = np.longdouble(0.0)
    for i in range(len(batch)):
        if model.emb is not None:
            xs = A["emb.E"][batch.tokens[i]]
        else:
            xs = np.asarray(batch.inputs[i], dtype=np.longdouble)
        h = _ld_final_hidden(cell.variant, cell.act, cell.forget_const, A,
                             "fwd.", xs)
        if model.bidirectional:
            h_b = _ld_final_hidden(cell.variant, cell.act, cell.forget_const,
                                   A, "bwd.", xs[::-1])
            h = np.concatenate([h, h_b])
        y_raw = A["out.W_hy"] @ h + A["out.b_y"]
        label = int(batch.labels[i])
        if loss_kind == "bce":
            p = np.clip(_ld_activate("sigmoid", y_raw)[0], floor, 1.0 - floor)
            total += -(label * np.log(p) + (1 - label) * np.log(1.0 - p))
        else:
            z = y_raw - y_raw.max()
            e = np.exp(z)
            p = np.clip(e / e.sum(), floor, 1.0 - floor)
            total += -np.log(p[label])
    return total / len(batch)


def finite_difference_model(model: SequenceClassifier, batch, loss_kind: str,
                            epsilon: float = 1e-6) -> GradientSet:
    """Central-difference gradient of the mean batch loss for every
    trainable tensor. O(#parameters) forward passes through the
    extended-precision transcription: a certification tool for tiny
    nets, never a training path."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps = np.longdouble(epsilon)
    A = {k: np.asarray(v, dtype=np.longdouble)
         for k, v in model.param_arrays(include_frozen=True).items()}
    grads: GradientSet = {}
    for name in model.param_arrays():
        arr = A[name]
        g = np.zeros(arr.shape)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        # the padding row is pinned, not a free parameter: skip it
        start = arr.shape[1] if name == "emb.E" else 0
        for j in range(start, flat.size):
            keep = flat[j]
            flat[j] = keep + eps
            up = _ld_batch_loss(model, A, batch, loss_kind)
            flat[j] = keep - eps
            down = _ld_batch_loss(model, A, batch, loss_kind)
            flat[j] = keep
            gflat[j] = float((up - down) / (2.0 * eps))
        grads[name] = g
    return grads


def finite_difference_oracle(p: CellParams, out: OutputLayer,
                             emb: EmbeddingTable | None, batch, loss_kind: str,
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
    """Mean loss and accuracy over a split, forward passes only, run on
    EVAL_SLICE samples at a time without recording caches.

    Binary predictions threshold the sigmoid probability at 0.5;
    multi-class predictions take the arg-max score.
    """
    if len(batch) == 0:
        raise ValueError("cannot evaluate an empty split")
    out_dim = model.out.b_y.shape[0]
    total = 0.0
    correct = 0
    for start in range(0, len(batch), EVAL_SLICE):
        rows = slice(start, start + EVAL_SLICE)
        labels = batch.labels[rows]
        y_raw, _, _ = model.forward(_inputs(model, batch, rows))
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
        _, grads = model_gradients(model, sub, loss_kind)
        optimizer_step(opt, params, grads)
    train_loss, train_acc = evaluate(model, train, loss_kind)
    test_loss, test_acc = evaluate(model, test, loss_kind)
    seconds = time.perf_counter() - t0
    return MetricsRecord(epoch=epoch, train_loss=train_loss, train_acc=train_acc,
                         test_loss=test_loss, test_acc=test_acc, seconds=seconds)
