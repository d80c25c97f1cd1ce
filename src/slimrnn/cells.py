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
steps one sample's (n,) state or a batch's (B, n) state. Sequences are
read strictly left to right; classification reads only the final hidden
state through a single affine output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import activate, init_matrix, matvec

VARIANTS = ("srnn", "lstm", "lstm6", "lstm_c6")

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
ADAPTIVE_FIELDS = {variant: tuple(t) for variant, t in _TENSORS.items()}

_SLIM = ("lstm6", "lstm_c6")


def _tensor_shape(kind: str, m: int, n: int) -> tuple[int, ...]:
    return {"in": (n, m), "rec": (n, n), "diag": (n,), "bias": (n,)}[kind]


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
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dims must be >= 1, got m={self.m} n={self.n}")
        if self.variant in _SLIM and not -1.0 < self.forget_const < 1.0:
            raise ValueError(
                f"forget_const must satisfy -1 < f < 1, got {self.forget_const}")
        for name, kind in _TENSORS[self.variant].items():
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
    for name, kind in _TENSORS[variant].items():
        if kind == "bias":
            fields[name] = np.zeros(n)
        elif kind == "diag":
            fields[name] = init_matrix(rng, n, 1).reshape(n)
        else:
            fields[name] = init_matrix(rng, *_tensor_shape(kind, m, n))
    return CellParams(variant=variant, m=m, n=n, act=act,
                      forget_const=forget_const, **fields)


def srnn_step(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray):
    """One simple-recurrent step. Returns h_t."""
    return activate(p.act, matvec(p.W_hx, x_t) + matvec(p.W_hh, h_prev) + p.b_h)


def lstm_step(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray):
    """One full-gate step. Gates are always sigmoid; the candidate and the
    cell-output squash use p.act. Returns (h_t, c_t, gates), gates being
    [i | f | o | c_tilde] along the feature axis (width 4n)."""
    i_t = activate("sigmoid", matvec(p.W_i, x_t) + matvec(p.U_i, h_prev) + p.b_i)
    f_t = activate("sigmoid", matvec(p.W_f, x_t) + matvec(p.U_f, h_prev) + p.b_f)
    o_t = activate("sigmoid", matvec(p.W_o, x_t) + matvec(p.U_o, h_prev) + p.b_o)
    c_tilde = activate(p.act, matvec(p.W_c, x_t) + matvec(p.U_c, h_prev) + p.b_c)
    c_t = f_t * c_prev + i_t * c_tilde
    h_t = o_t * activate(p.act, c_t)
    return h_t, c_t, np.concatenate([i_t, f_t, o_t, c_tilde], axis=-1)


def lstm6_step(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray,
               c_prev: np.ndarray):
    """One gate-free step: c_t = f c_{t-1} + act(W_c x_t + U_c h_{t-1} + b_c),
    h_t = act(c_t). Returns (h_t, c_t, c_tilde)."""
    c_tilde = activate(p.act, matvec(p.W_c, x_t) + matvec(p.U_c, h_prev) + p.b_c)
    c_t = p.forget_const * c_prev + c_tilde
    return activate(p.act, c_t), c_t, c_tilde


def lstmc6_step(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray,
                c_prev: np.ndarray):
    """lstm6 with the recurrent matvec reduced to an element-wise product:
    the candidate pre-activation is W_c x_t + u_c * h_{t-1} + b_c."""
    c_tilde = activate(p.act, matvec(p.W_c, x_t) + p.u_c * h_prev + p.b_c)
    c_t = p.forget_const * c_prev + c_tilde
    return activate(p.act, c_t), c_t, c_tilde


def gate_override_step(p: CellParams, pins: dict, x_t: np.ndarray,
                       h_prev: np.ndarray, c_prev: np.ndarray):
    """Full-gate step with selected gates pinned to constants.

    pins maps gate names ("i", "f", "o") to scalars. The input and output
    gates may only be pinned to exactly 1.0; the forget pin must lie in
    (-1, 1]. This is the reference path used to cross-check the slim
    variants against the full cell.
    """
    bad = set(pins) - {"i", "f", "o"}
    if bad:
        raise ValueError(f"unknown gate pins {sorted(bad)}")
    for g in ("i", "o"):
        if g in pins and pins[g] != 1.0:
            raise ValueError(f"{g} gate may only be pinned to exactly 1.0")
    if "f" in pins and not -1.0 < pins["f"] <= 1.0:
        raise ValueError(f"f pin must lie in (-1, 1], got {pins['f']}")

    def gate(name, W, U, b):
        if name in pins:
            return np.full(p.n, float(pins[name]))
        return activate("sigmoid", matvec(W, x_t) + matvec(U, h_prev) + b)

    i_t = gate("i", p.W_i, p.U_i, p.b_i)
    f_t = gate("f", p.W_f, p.U_f, p.b_f)
    o_t = gate("o", p.W_o, p.U_o, p.b_o)
    c_tilde = activate(p.act, matvec(p.W_c, x_t) + matvec(p.U_c, h_prev) + p.b_c)
    c_t = f_t * c_prev + i_t * c_tilde
    h_t = o_t * activate(p.act, c_t)
    gates = np.broadcast_arrays(i_t, f_t, o_t, c_tilde)  # pinned gates are (n,)
    return h_t, c_t, np.concatenate(gates, axis=-1)


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


def run_cell(p: CellParams, xs: np.ndarray, h0: np.ndarray | None = None,
             c0: np.ndarray | None = None, record: bool = True):
    """Drive one cell across a whole sequence.

    xs is time-major: (T, m) for one sample, or (T, B, m) for B samples
    stepped together. States start at zero unless h0/c0 are given, shaped
    like one step's state: (n,) or (B, n). Shapes are checked here once,
    not per step. Returns (h_T, c_T, stacks); c_T is None for srnn.

    With record set, stacks is (H, C, aux), filled step by step into
    preallocated arrays: H is (T+1, ..., n) with H[0] the initial state,
    C likewise for the cell state (None for srnn), and aux holds what
    each step computed beyond its states: c_tilde (T, ..., n) for the
    slim cells, the gates [i | f | o | c_tilde] (T, ..., 4n) for lstm,
    None for srnn. Without record only the running state is kept and
    stacks is None.
    """
    xs = np.asarray(xs)
    if xs.ndim not in (2, 3) or xs.shape[-1] != p.m:
        raise ValueError(
            f"inputs have shape {xs.shape}, expected (T, {p.m}) or (T, B, {p.m})")
    T = xs.shape[0]
    if T == 0:
        raise ValueError("cannot run a cell over an empty sequence")
    state = xs.shape[1:-1] + (p.n,)
    for what, v in (("h0", h0), ("c0", c0)):
        if v is not None and v.shape != state:
            raise ValueError(f"{what} has shape {v.shape}, expected {state}")
    h = np.zeros(state) if h0 is None else h0
    H = np.empty((T + 1,) + state) if record else None
    if record:
        H[0] = h
    if p.variant == "srnn":
        for t, x_t in enumerate(xs):
            h = srnn_step(p, x_t, h)
            if record:
                H[t + 1] = h
        return h, None, ((H, None, None) if record else None)
    step = {"lstm": lstm_step, "lstm6": lstm6_step, "lstm_c6": lstmc6_step}[p.variant]
    c = np.zeros(state) if c0 is None else c0
    if record:
        C = np.empty_like(H)
        C[0] = c
        width = 4 * p.n if p.variant == "lstm" else p.n
        aux = np.empty((T,) + state[:-1] + (width,))
    for t, x_t in enumerate(xs):
        h, c, a = step(p, x_t, h, c)
        if record:
            H[t + 1], C[t + 1], aux[t] = h, c, a
    return h, c, ((H, C, aux) if record else None)


def param_count(variant: str, m: int, n: int, bidirectional: bool = False) -> int:
    """Adaptive parameter count of one cell (embedding and output layer
    excluded). A bidirectional pair holds exactly twice the tensors."""
    if m < 1 or n < 1:
        raise ValueError(f"dims must be >= 1, got m={m} n={n}")
    if variant == "lstm":
        count = 4 * n * (m + n + 1)
    elif variant in ("lstm6", "srnn"):
        count = n * (m + n + 1)
    elif variant == "lstm_c6":
        count = n * (m + 2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return 2 * count if bidirectional else count


def step_mac_count(variant: str, m: int, n: int) -> int:
    """Multiply-accumulates in one forward step's matrix/vector products.

    lstm runs eight matvecs (two per gate plus candidate), lstm6 two,
    lstm_c6 one matvec plus the n-wide element-wise recurrence, srnn two.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dims must be >= 1, got m={m} n={n}")
    if variant == "lstm":
        return 4 * n * (m + n)
    if variant in ("lstm6", "srnn"):
        return n * (m + n)
    if variant == "lstm_c6":
        return n * m + n
    raise ValueError(f"unknown variant {variant!r}")
