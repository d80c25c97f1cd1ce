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

Every step acts on the trailing feature axis only, so the same code
steps one sample's (n,) state or a batch's (B, n) state. A step takes its
input term W x_t + b precomputed (run_cell projects a block of steps at
once), and lstm's four gates are stacked, so a step makes one recurrent
product. Sequences are read strictly left to right; classification reads
only the final hidden state through a single affine output layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass
class CellParams:
    """One cell's adaptive tensors plus its fixed hyperparameters.

    Only the fields listed in ADAPTIVE_FIELDS[variant] are populated;
    the rest stay None. forget_const is read by the slim variants only
    and must lie strictly inside (-1, 1) so the state recursion is
    bounded-input bounded-state.
    """

    variant: str
    m: int
    n: int
    act: str = "sigmoid"
    forget_const: float = 0.59
    W_hx: np.ndarray | None = None
    W_hh: np.ndarray | None = None
    b_h: np.ndarray | None = None
    W_i: np.ndarray | None = None
    U_i: np.ndarray | None = None
    b_i: np.ndarray | None = None
    W_f: np.ndarray | None = None
    U_f: np.ndarray | None = None
    b_f: np.ndarray | None = None
    W_o: np.ndarray | None = None
    U_o: np.ndarray | None = None
    b_o: np.ndarray | None = None
    W_c: np.ndarray | None = None
    U_c: np.ndarray | None = None
    b_c: np.ndarray | None = None
    u_c: np.ndarray | None = None

    def __post_init__(self):
        kinds = _cell_kinds(self.variant, self.m, self.n)
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")
        if self.variant in _SLIM and not -1.0 < self.forget_const < 1.0:
            raise ValueError(
                f"forget_const must satisfy -1 < f < 1, got {self.forget_const}")
        for name, kind in kinds.items():
            arr = getattr(self, name)
            if arr is None:
                raise ValueError(f"{self.variant} cell missing tensor {name}")
            want = _tensor_shape(kind, self.m, self.n)
            if arr.shape != want:
                raise ValueError(
                    f"tensor {name} has shape {arr.shape}, expected {want}")

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Adaptive tensors in canonical order, name -> array."""
        return {name: getattr(self, name) for name in ADAPTIVE_FIELDS[self.variant]}


def init_cell(variant: str, m: int, n: int, act: str = "sigmoid",
              forget_const: float = 0.59,
              rng: np.random.Generator | None = None) -> CellParams:
    """Fresh cell: Glorot-uniform weights (u_c drawn as an (n, 1) matrix),
    zero biases. Tensors are drawn in ADAPTIVE_FIELDS order."""
    if rng is None:
        raise ValueError("init_cell needs an explicit rng")
    fields: dict[str, np.ndarray] = {}
    for name, kind in _cell_kinds(variant, m, n).items():
        if kind == "bias":
            fields[name] = np.zeros(n)
        elif kind == "diag":
            fields[name] = init_matrix(rng, n, 1).reshape(n)
        else:
            fields[name] = init_matrix(rng, *_tensor_shape(kind, m, n))
    return CellParams(variant=variant, m=m, n=n, act=act,
                      forget_const=forget_const, **fields)


def stack_gates(p: CellParams, transposed: bool = False):
    """The cell's (W, R, b): input weights, recurrent tensor (u_c for
    lstm_c6) and bias. lstm's four gate blocks are stacked in
    [i | f | o | c] order into (4n, m), (4n, n) and (4n,) copies; every
    other cell returns its own tensors. With transposed set, W and R come
    as C-ordered (m, width) and (n, width) copies, the layout the forward
    products x W and h R read fastest (u_c stays a vector)."""
    names = ADAPTIVE_FIELDS[p.variant]
    if p.variant == "lstm":
        W, R, b = (np.concatenate([getattr(p, k) for k in names[j::3]])
                   for j in range(3))
    else:
        W, R, b = (getattr(p, k) for k in names)
    if transposed:
        W, R = np.ascontiguousarray(W.T), np.ascontiguousarray(R.T)
    return W, R, b


def input_term(W: np.ndarray, b: np.ndarray, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The input term x W + b of one step's input x, (m,) or (B, m), with
    (W, b) from stack_gates(p, transposed=True). Stacked steps (t, B, m)
    take one product per step, so a step's term has the same bits alone
    as inside any block of steps. Like a step, it may write into out."""
    z = np.matmul(x, W, out=out)
    z += b
    return z


# The step functions take the step's input term a_t (input_term) and the
# recurrent tensor R, both laid out by stack_gates(p, transposed=True). Like a
# ufunc, a step takes an optional out: the array for h_t (srnn) or the
# (h_t, c_t, aux) arrays it returns, C-contiguous and overlapping neither
# h_prev nor c_prev. It then writes there and allocates nothing; without out
# the same operations fill fresh arrays, so the bits are the same.

def srnn_step(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
              out: np.ndarray | None = None):
    """One simple-recurrent step: h_t = act(a_t + W_hh h_{t-1})."""
    z = h_prev.dot(R, out=out)
    z += a_t
    return activate(p.act, z, out=z)


def _lstm_update(p: CellParams, R: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray, pins: dict, out):
    """The full-gate step: the gate buffer z (width 4n, every
    pre-activation) activated in place, pinned gates overwritten, then
    the state update."""
    n = p.n
    h, c, z = out or (None, None, None)
    z = h_prev.dot(R, out=z)
    z += a_t
    activate("sigmoid", z[..., :3 * n], out=z[..., :3 * n])
    activate(p.act, z[..., 3 * n:], out=z[..., 3 * n:])
    if pins:
        for k, g in enumerate("ifo"):
            if g in pins:
                z[..., k * n:(k + 1) * n] = pins[g]
    i_t, f_t, o_t, c_tilde = (z[..., k * n:(k + 1) * n] for k in range(4))
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
    z = h_prev.dot(R, out=z)
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


@dataclass
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
    return matvec(out.W_hy, h) + out.b_y


# Bytes of input terms run_cell computes in one product: a block of steps
# shares the product's dispatch, and a small block's buffers stay in cache.
PROJECTION_BUDGET = 1 << 16


def _input_terms(W: np.ndarray, b: np.ndarray, xs: np.ndarray):
    """input_term of each step of xs, PROJECTION_BUDGET bytes at a time.
    Every block overwrites one buffer, which holds the only terms alive:
    a step reads its term before the next block is projected."""
    steps = xs.reshape(len(xs), -1, xs.shape[-1])  # (T, B, m), B = 1 for (T, m)
    shape = xs.shape[1:-1] + b.shape
    block = max(1, PROJECTION_BUDGET // (8 * steps.shape[1] * len(b)))
    buf = np.empty(steps[:block].shape[:-1] + b.shape)
    for start in range(0, len(xs), block):
        x = steps[start:start + block]
        yield from input_term(W, b, x, out=buf[:len(x)]).reshape((-1,) + shape)


def record_shapes(p: CellParams, T: int, lead: tuple = ()) -> tuple:
    """Shapes of the (H, C, aux) stacks run_cell records over T steps, lead
    being the batch axes, () or (B,); None where the variant records none.
    H is (T+1, *lead, n) with H[0] the initial state, C likewise for the
    cell state (None for srnn), and aux holds what each step computed beyond
    its states: c_tilde (T, *lead, n) for the slim cells, the gates
    [i | f | o | c_tilde] (T, *lead, 4n) for lstm, None for srnn."""
    H = (T + 1,) + lead + (p.n,)
    if p.variant == "srnn":
        return H, None, None
    return H, H, (T,) + lead + ((4 if p.variant == "lstm" else 1) * p.n,)


def record_arrays(p: CellParams, T: int, lead: tuple = ()) -> tuple:
    """Fresh arrays shaped by record_shapes, ready for run_cell to record into."""
    return tuple(None if s is None else np.empty(s) for s in record_shapes(p, T, lead))


def run_cell(p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None,
             c0: np.ndarray | None = None, record=True):
    """Drive one cell across a whole sequence.

    xs is time-major: (T, m) for one sample, or (T, B, m) for B samples
    stepped together. States start at zero unless h0/c0 are given, shaped
    like one step's state: (n,) or (B, n). Shapes are checked here once,
    not per step. The input terms are computed a block of steps at a time
    (see PROJECTION_BUDGET), so the loop over steps holds only the
    recurrent product and the element-wise work. Returns (h_T, c_T,
    stacks); c_T is None for srnn.

    With record set, stacks is (H, C, aux), laid out as record_shapes
    gives. Each step writes straight into its rows (the steps' out
    argument), so nothing is copied. record may also be those arrays
    themselves, for example columns of a chunk's arrays: then, like a step
    given out, run_cell writes there and allocates no stacks. Without
    record, stacks is None and the steps alternate between two
    preallocated states. Either way h0 and c0 are copied, never written,
    and h_T and c_T are views of those buffers.
    """
    xs = np.asarray(xs)
    if xs.ndim not in (2, 3) or xs.shape[-1] != p.m:
        raise ValueError(
            f"inputs have shape {xs.shape}, expected (T, {p.m}) or (T, B, {p.m})")
    T = xs.shape[0]
    if T == 0:
        raise ValueError("cannot run a cell over an empty sequence")
    lead = xs.shape[1:-1]
    for what, v in (("h0", h0), ("c0", c0)):
        if v is not None and v.shape != lead + (p.n,):
            raise ValueError(f"{what} has shape {v.shape}, expected {lead + (p.n,)}")
    if isinstance(record, bool):  # else the caller's arrays, checked here
        stacks = record_arrays(p, T if record else 1, lead)
    else:
        stacks = tuple(record)
        for what, a, want in zip(("H", "C", "aux"), stacks, record_shapes(p, T, lead),
                                 strict=True):
            got = None if a is None else a.shape
            if got != want:
                raise ValueError(f"record array {what} has shape {got}, expected {want}")
    W, R, b = stack_gates(p, transposed=True)
    terms = _input_terms(W, b, xs)
    # Each step writes into the next row of the stacks when recording; else
    # the steps alternate between two rows.
    H, C, aux = stacks
    H[0] = 0.0 if h0 is None else h0
    if p.variant == "srnn":
        rows = (zip(H[:-1], H[1:]) if record
                else itertools.cycle(((H[0], H[1]), (H[1], H[0]))))
        for a_t, (h_prev, h) in zip(terms, rows):
            srnn_step(p, R, a_t, h_prev, out=h)
        return h, None, (stacks if record else None)
    step = {"lstm": lstm_step, "lstm6": lstm6_step, "lstm_c6": lstmc6_step}[p.variant]
    C[0] = 0.0 if c0 is None else c0
    if record:
        rows = zip(H[:-1], C[:-1], zip(H[1:], C[1:], aux))
    else:
        rows = itertools.cycle(((H[0], C[0], (H[1], C[1], aux[0])),
                                (H[1], C[1], (H[0], C[0], aux[0]))))
    for a_t, (h_prev, c_prev, out) in zip(terms, rows):
        step(p, R, a_t, h_prev, c_prev, out=out)
    h, c, _ = out
    return h, c, (stacks if record else None)


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
