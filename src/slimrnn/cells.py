"""Recurrent cell variants and the sequence runner.

Four cells share one state convention (h is the output state, c is the
internal accumulator where present):

  srnn     h_t = act(W_hx x_t + W_hh h_{t-1} + b_h)
  lstm     full three-gate cell: i/f/o gates are sigmoid, the candidate
           and the output squash use the configurable activation.
  lstm6    gates removed: input and output gates pinned to 1, forget
           gate replaced by a constant scalar f with |f| < 1, so
           c_t = f c_{t-1} + act(W_c x_t + U_c h_{t-1} + b_c),
           h_t = act(c_t).
  lstm_c6  lstm6 with the recurrent matrix U_c reduced to a vector u_c
           applied element-wise: the recurrence term is u_c * h_{t-1}.

Every step advances a batch's (B, n) states; a single sample is a batch
of one. A step takes its input term W x_t + b precomputed (run_cell
projects a block of steps at once, model_gradients a whole chunk), and
lstm's four gates are stacked, so a step makes one recurrent product.
The D directions of a bidirectional model may step together: their
recurrent tensors stacked as (D, n, w), their states as (D, B, n), one
step call advances them all. run_steps is the one loop over steps,
which run_cell, model_gradients and gradcheck's relu-kink check drive.
Sequences are read strictly left to right; classification reads only the
final hidden state through a single affine output layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ACTIVATIONS, activate, init_matrix, matvec

# Adaptive tensors per variant, in canonical (init / serialization) order,
# each with its kind: "in" is (n, m), "rec" is (n, n), "diag" and "bias"
# are (n,). Biases start at zero; the other kinds are drawn.
_TENSORS = {
    "srnn": {"W_hx": "in", "W_hh": "rec", "b_h": "bias"},
    "lstm": {f"{w}_{g}": kind for g in "ifoc"
             for w, kind in (("W", "in"), ("U", "rec"), ("b", "bias"))},
    "lstm6": {"W_c": "in", "U_c": "rec", "b_c": "bias"},
    "lstm_c6": {"W_c": "in", "u_c": "diag", "b_c": "bias"},
}
VARIANTS = tuple(_TENSORS)
ADAPTIVE_FIELDS = {variant: tuple(t) for variant, t in _TENSORS.items()}

_SLIM = ("lstm6", "lstm_c6")


def _tensor_shape(kind: str, m: int, n: int) -> tuple[int, ...]:
    return {"in": (n, m), "rec": (n, n), "diag": (n,), "bias": (n,)}[kind]


def _cell_kinds(variant: str, m: int, n: int) -> dict[str, str]:
    """_TENSORS[variant], once the variant and the dims are known good."""
    if variant not in _TENSORS:
        raise ValueError(f"unknown variant {variant!r}")
    if m < 1 or n < 1:
        raise ValueError(f"dims must be >= 1, got m={m} n={n}")
    return _TENSORS[variant]


# Dataclasses that hold arrays compare by identity (eq=False): a field-wise
# == would compare arrays, which have no single truth value.
@dataclass(eq=False)
class CellParams:
    """One cell's adaptive tensors plus its fixed hyperparameters.

    tensors maps exactly the names ADAPTIVE_FIELDS[variant] lists to
    arrays of their kinds' shapes; a missing or a stray name is refused,
    and the cell keeps its own copy of the mapping in canonical order.
    forget_const is read by the slim variants only and must lie strictly
    inside (-1, 1) so the state recursion is bounded-input bounded-state.
    """

    variant: str
    m: int
    n: int
    act: str = "sigmoid"
    forget_const: float = 0.59
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        kinds = _cell_kinds(self.variant, self.m, self.n)
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")
        if self.variant in _SLIM and not -1.0 < self.forget_const < 1.0:
            raise ValueError(
                f"forget_const must satisfy -1 < f < 1, got {self.forget_const}")
        stray = [name for name in self.tensors if name not in kinds]
        if stray:
            raise ValueError(f"{self.variant} cell has no tensor {', '.join(stray)}")
        for name, kind in kinds.items():
            arr = self.tensors.get(name)
            if arr is None:
                raise ValueError(f"{self.variant} cell missing tensor {name}")
            want = _tensor_shape(kind, self.m, self.n)
            if arr.shape != want:
                raise ValueError(
                    f"tensor {name} has shape {arr.shape}, expected {want}")
        self.tensors = {name: self.tensors[name] for name in kinds}

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Adaptive tensors in canonical order, name -> array."""
        return dict(self.tensors)


def init_cell(variant: str, m: int, n: int, act: str = "sigmoid",
              forget_const: float = 0.59,
              rng: np.random.Generator | None = None) -> CellParams:
    """Fresh cell: Glorot-uniform weights (u_c drawn as an (n, 1) matrix),
    zero biases. Tensors are drawn in ADAPTIVE_FIELDS order."""
    if rng is None:
        raise ValueError("init_cell needs an explicit rng")
    tensors: dict[str, np.ndarray] = {}
    for name, kind in _cell_kinds(variant, m, n).items():
        if kind == "bias":
            tensors[name] = np.zeros(n)
        elif kind == "diag":
            tensors[name] = init_matrix(rng, n, 1).reshape(n)
        else:
            tensors[name] = init_matrix(rng, *_tensor_shape(kind, m, n))
    return CellParams(variant=variant, m=m, n=n, act=act,
                      forget_const=forget_const, tensors=tensors)


def stack_gates(p: CellParams, transposed: bool = False):
    """The cell's (W, R, b): input weights, recurrent tensor (u_c for
    lstm_c6) and bias. lstm's four gate blocks are stacked in
    [i | f | o | c] order into (4n, m), (4n, n) and (4n,) copies; every
    other cell returns its own tensors. With transposed set, W and R come
    as C-ordered (m, width) and (n, width) copies, the layout the forward
    products x W and h R read fastest; u_c comes as a (1, n) row, which
    multiplies a (B, n) state without broadcasting a vector."""
    arrays = list(p.tensors.values())  # (W, R, b) per gate block
    if p.variant == "lstm":
        W, R, b = (np.concatenate(arrays[j::3]) for j in range(3))
    else:
        W, R, b = arrays
    if transposed:
        W, R = np.ascontiguousarray(W.T), np.ascontiguousarray(np.atleast_2d(R.T))
    return W, R, b


def input_term(W: np.ndarray, b: np.ndarray, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The input term x W + b of one step's input x, (B, m), with
    (W, b) from stack_gates(p, transposed=True). Stacked steps (t, B, m)
    take one product per step, so a step's term has the same bits alone
    as inside any block of steps. Like a step, it may write into out."""
    z = np.matmul(x, W, out=out)
    z += b
    return z


# The step functions take the step's input term a_t (input_term) and the
# recurrent tensor R, both laid out by stack_gates(p, transposed=True), and
# the previous step's (B, n) states. R may also stack D directions' tensors,
# (D, n, w) or lstm_c6's (D, 1, n), with a_t and the states then (D, B, w)
# and (D, B, n): the product is one matmul over the directions, which gives
# each direction the bits of its own 2-D dot. Like a ufunc, a step takes an
# optional out: the array for h_t (srnn) or the (h_t, c_t, aux) arrays it
# returns, C-contiguous and overlapping neither h_prev nor c_prev. It then
# writes there and allocates nothing; without out the same operations fill
# fresh arrays, so the bits are the same.

def srnn_step(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
              out: np.ndarray | None = None):
    """One simple-recurrent step: h_t = act(a_t + W_hh h_{t-1})."""
    z = h_prev.dot(R, out=out) if R.ndim == 2 else np.matmul(h_prev, R, out=out)
    z += a_t
    return activate(p.act, z, out=z)


def _lstm_update(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray, pins: dict, out):
    """The full-gate step: the gate buffer z (width 4n, every
    pre-activation) activated in place, pinned gates overwritten, then
    the state update."""
    n = p.n
    h, c, z = out or (None, None, None)
    z = h_prev.dot(R, out=z) if R.ndim == 2 else np.matmul(h_prev, R, out=z)
    z += a_t
    gates, c_tilde = z[..., :3 * n], z[..., 3 * n:]
    activate("sigmoid", gates, out=gates)
    activate(p.act, c_tilde, out=c_tilde)
    if pins:
        for k, g in enumerate("ifo"):
            if g in pins:
                z[..., k * n:(k + 1) * n] = pins[g]
    i_t, f_t, o_t = z[..., :n], z[..., n:2 * n], gates[..., 2 * n:]
    c = np.multiply(f_t, c_prev, out=c)
    h = np.multiply(i_t, c_tilde, out=h)  # i_t * c_tilde, until h_t replaces it
    c += h
    h = activate(p.act, c, out=h)
    h *= o_t
    return h, c, z


def lstm_step(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray, out=None):
    """One full-gate step: one product with the stacked recurrent matrix
    gives every gate's pre-activation. Gates are sigmoid; the candidate
    and the cell-output squash use p.act. Returns (h_t, c_t, gates), gates
    being [i | f | o | c_tilde] along the feature axis (width 4n)."""
    return _lstm_update(p, R, a_t, h_prev, c_prev, {}, out)


def lstm6_step(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
               c_prev: np.ndarray, out=None):
    """One gate-free step: c_t = f c_{t-1} + act(a_t + U_c h_{t-1}),
    h_t = act(c_t). Returns (h_t, c_t, c_tilde)."""
    h, c, z = out or (None, None, None)
    z = h_prev.dot(R, out=z) if R.ndim == 2 else np.matmul(h_prev, R, out=z)
    z += a_t
    activate(p.act, z, out=z)
    c = np.multiply(c_prev, p.forget_const, out=c)
    c += z
    return activate(p.act, c, out=h), c, z


def lstmc6_step(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
                c_prev: np.ndarray, out=None):
    """lstm6 with the recurrent product reduced to an element-wise one:
    the candidate pre-activation is a_t + u_c * h_{t-1}."""
    h, c, z = out or (None, None, None)
    z = np.multiply(R, h_prev, out=z)
    z += a_t
    activate(p.act, z, out=z)
    c = np.multiply(c_prev, p.forget_const, out=c)
    c += z
    return activate(p.act, c, out=h), c, z


def gate_override_step(p: CellParams, pins: dict, R: np.ndarray, a_t: np.ndarray,
                       h_prev: np.ndarray, c_prev: np.ndarray, out=None):
    """Full-gate step with selected gates pinned to constants.

    pins maps gate names ("i", "f", "o") to scalars. The input and output
    gates may only be pinned to exactly 1.0; the forget pin must lie in
    (-1, 1]. The unpinned gates use lstm_step's arithmetic. This is the
    reference path used to cross-check the slim variants against the
    full cell.
    """
    bad = set(pins) - {"i", "f", "o"}
    if bad:
        raise ValueError(f"unknown gate pins {sorted(bad)}")
    for g in ("i", "o"):
        if g in pins and pins[g] != 1.0:
            raise ValueError(f"{g} gate may only be pinned to exactly 1.0")
    if "f" in pins and not -1.0 < pins["f"] <= 1.0:
        raise ValueError(f"f pin must lie in (-1, 1], got {pins['f']}")
    return _lstm_update(p, R, a_t, h_prev, c_prev, pins, out)


@dataclass(eq=False)
class OutputLayer:
    """Affine readout y = W_hy h + b_y applied to the final hidden state."""

    W_hy: np.ndarray
    b_y: np.ndarray

    def __post_init__(self):
        if self.W_hy.ndim != 2 or self.b_y.shape != (self.W_hy.shape[0],):
            raise ValueError(
                f"output layer shapes disagree: W {self.W_hy.shape}, b {self.b_y.shape}")

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"W_hy": self.W_hy, "b_y": self.b_y}


def init_output(rng: np.random.Generator, in_dim: int, out_dim: int) -> OutputLayer:
    return OutputLayer(W_hy=init_matrix(rng, out_dim, in_dim), b_y=np.zeros(out_dim))


def output_layer_apply(out: OutputLayer, h: np.ndarray) -> np.ndarray:
    """Raw outputs (B, k) of the final states h, (B, n) rows."""
    return matvec(out.W_hy, h) + out.b_y


# Bytes of input terms run_cell computes in one product: a block of steps
# shares the product's dispatch, and a small block's buffers stay in cache.
# One projection per step instead made a 20-sample certify-shape evaluate
# 5-32% slower (srnn 52.0 -> 64.9 us, lstm_c6 71.1 -> 88.3 us; one BLAS
# thread, 2 vCPUs, minimum of 5 repeats).
PROJECTION_BUDGET = 1 << 16


def _input_terms(W: np.ndarray, b: np.ndarray, xs: np.ndarray):
    """input_term of each step of xs, PROJECTION_BUDGET bytes at a time.
    Every block overwrites one buffer, which holds the only terms alive:
    a step reads its term before the next block is projected."""
    block = max(1, PROJECTION_BUDGET // (8 * xs.shape[1] * len(b)))
    buf = np.empty(xs[:block].shape[:-1] + b.shape)
    for start in range(0, len(xs), block):
        x = xs[start:start + block]
        yield from input_term(W, b, x, out=buf[:len(x)])


def gate_width(p: CellParams) -> int:
    """Width of the cell's stacked gates: 4n for lstm's [i | f | o | c],
    n for the others. Every per-step gate row (aux, input terms, the
    reverse pass's derivative factors) is this wide."""
    return (4 if p.variant == "lstm" else 1) * p.n


def record_shapes(p: CellParams, T: int, *lead: int) -> tuple:
    """Shapes of the (H, C, aux) stacks recorded over T steps of states
    shaped (*lead, n), (B, n) for a batch of B samples; None where the
    variant records none. H is (T+1, *lead, n) with H[0] the initial
    state, C likewise for the cell state (None for srnn), and aux holds
    what each step computed beyond its states: c_tilde (T, *lead, n) for
    the slim cells, the gates [i | f | o | c_tilde] (T, *lead, 4n) for
    lstm, None for srnn."""
    H = (T + 1, *lead, p.n)
    if p.variant == "srnn":
        return H, None, None
    return H, H, (T, *lead, gate_width(p))


def record_arrays(p: CellParams, T: int, *lead: int) -> tuple:
    """Fresh arrays shaped by record_shapes, ready for run_steps to record
    into, with the zero start states in row 0 of H and C: the one place
    they are written, as neither recording steps nor the reverse pass do."""
    H, C, aux = (None if s is None else np.empty(s) for s in record_shapes(p, T, *lead))
    H[0] = 0.0
    if C is not None:
        C[0] = 0.0
    return H, C, aux


def run_cell(p: CellParams, xs: np.ndarray) -> np.ndarray:
    """Drive one cell across a whole sequence from zero states, recording
    nothing, and return the final hidden state h_T, (B, n).

    xs is time-major, (T, B, m): B samples stepped together, one sample
    being a batch of one. Shapes are checked here once, not per step. The
    input terms are computed a block of steps at a time (see
    PROJECTION_BUDGET), so the loop over steps (run_steps) holds only the
    recurrent product and the element-wise work, alternating between the
    two rows of one step's stacks. h_T is a view of those stacks.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3 or xs.shape[-1] != p.m:
        raise ValueError(f"inputs have shape {xs.shape}, expected (T, B, {p.m})")
    if len(xs) == 0:
        raise ValueError("cannot run a cell over an empty sequence")
    W, R, b = stack_gates(p, transposed=True)
    return run_steps(p, R, _input_terms(W, b, xs), record_arrays(p, 1, xs.shape[1]))[0]


def run_steps(p: CellParams, R: np.ndarray, terms, stacks):
    """The one loop over steps: step the cell through terms, its steps'
    input terms in time order, from the states in row 0 of stacks, the
    (H, C, aux) arrays record_shapes lays out (or one sample's column of
    them). R is the cell's transposed recurrent tensor, or D directions'
    stacked, with a step's rows then (D, B, n) blocks (see the steps).
    Each step writes its out rows and hands its (h, c) on to the next.
    The stacks' length decides how: over more than two rows the steps
    record, step t writing row t+1 of every stack; over two they
    alternate between rows 1 and 0, all writing aux's row 0. At one step
    both write row 1. Returns the final (h, c), views of the stacks; c is
    None for srnn. Shapes are not checked: callers check or build them
    once per call. The step functions are looked up when called."""
    H, C, aux = stacks
    h, record = H[0], len(H) > 2
    if p.variant == "srnn":
        for a_t, out in zip(terms, H[1:] if record else itertools.cycle((H[1], H[0]))):
            h = srnn_step(p, R, a_t, h, out=out)
        return h, None
    step = {"lstm": lstm_step, "lstm6": lstm6_step, "lstm_c6": lstmc6_step}[p.variant]
    if record:
        outs = zip(H[1:], C[1:], aux)
    else:
        outs = itertools.cycle(((H[1], C[1], aux[0]), (H[0], C[0], aux[0])))
    c = C[0]
    for a_t, out in zip(terms, outs):
        h, c, _ = step(p, R, a_t, h, c, out=out)
    return h, c


def param_count(variant: str, m: int, n: int, bidirectional: bool = False) -> int:
    """Adaptive parameter count of one cell (embedding and output layer
    excluded): the summed sizes of its tensors. A bidirectional pair holds
    exactly twice the tensors."""
    count = sum(math.prod(_tensor_shape(kind, m, n))
                for kind in _cell_kinds(variant, m, n).values())
    return 2 * count if bidirectional else count


def step_mac_count(variant: str, m: int, n: int) -> int:
    """Multiply-accumulates in one forward step's matrix/vector products.

    Each weight entry is one MAC per step, so this is the parameter count
    less the biases: lstm's stacked (4n, m) input and (4n, n) recurrent
    products, lstm6's and srnn's (n, m) and (n, n) ones, lstm_c6's (n, m)
    product plus the n-wide element-wise recurrence.
    """
    return sum(math.prod(_tensor_shape(kind, m, n))
               for kind in _cell_kinds(variant, m, n).values() if kind != "bias")
