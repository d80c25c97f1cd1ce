"""Recurrent-cell checks: frozen single-step values, independent formula
transcriptions, cross-variant equivalences through the gate-pin hook, cell
state boundedness, and the parameter/MAC accounting."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from slimrnn import cells
from slimrnn.cells import (
    ADAPTIVE_FIELDS,
    VARIANTS,
    CellParams,
    OutputLayer,
    gate_override_step,
    gate_width,
    init_cell,
    init_output,
    input_term,
    lstm6_step,
    lstm_step,
    output_layer_apply,
    param_count,
    record_arrays,
    record_shapes,
    run_cell,
    run_steps,
    srnn_step,
    stack_gates,
    step_mac_count,
)
from slimrnn.data import init_embedding
from slimrnn.numerics import ACTIVATIONS, make_rng
from slimrnn.training import SequenceClassifier

from conftest import operands, recorded


def zero_cell(variant, m, n, act="sigmoid", forget_const=0.59):
    """A cell with every weight and bias exactly zero."""
    tensors = {}
    for name in ADAPTIVE_FIELDS[variant]:
        if name.startswith("b"):
            tensors[name] = np.zeros(n)
        elif name == "u_c":
            tensors[name] = np.zeros(n)
        elif name.startswith("U") or name == "W_hh":
            tensors[name] = np.zeros((n, n))
        else:
            tensors[name] = np.zeros((n, m))
    return CellParams(variant=variant, m=m, n=n, act=act,
                      forget_const=forget_const, tensors=tensors)


def random_cell(variant, m, n, seed, act="sigmoid", forget_const=0.59):
    return init_cell(variant, m, n, act, forget_const, make_rng(seed))


# --------------------------------------------------------------------------
# Frozen single-step values (zero weights force closed-form outputs).
# --------------------------------------------------------------------------

def test_srnn_step_zero_params():
    p = zero_cell("srnn", 3, 4)
    h = srnn_step(p, *operands(p, np.ones((1, 3))), np.ones((1, 4)))
    npt.assert_array_equal(h, np.full((1, 4), 0.5))
    p_tanh = zero_cell("srnn", 3, 4, act="tanh")
    h = srnn_step(p_tanh, *operands(p_tanh, np.ones((1, 3))), np.ones((1, 4)))
    npt.assert_array_equal(h, np.zeros((1, 4)))


def test_lstm_step_zero_params_frozen_value():
    # All gates sigmoid(0)=0.5, candidate 0.5, so c = 0.25 and
    # h = 0.5 * sigmoid(0.25) exactly.
    p = zero_cell("lstm", 2, 3)
    h, c, _ = lstm_step(p, *operands(p, np.ones((1, 2))),
                        np.zeros((1, 3)), np.zeros((1, 3)))
    npt.assert_allclose(c, np.full((1, 3), 0.25), rtol=0, atol=0)
    npt.assert_allclose(h, np.full((1, 3), 0.28108825044289905), rtol=0, atol=1e-16)


def test_lstm_step_zero_params_tanh_is_zero():
    p = zero_cell("lstm", 2, 3, act="tanh")
    h, c, _ = lstm_step(p, *operands(p, np.ones((1, 2))),
                        np.zeros((1, 3)), np.zeros((1, 3)))
    npt.assert_array_equal(c, np.zeros((1, 3)))
    npt.assert_array_equal(h, np.zeros((1, 3)))


def test_lstm6_step_zero_params_frozen_values():
    p = zero_cell("lstm6", 2, 3, forget_const=0.0)
    h, c, _ = lstm6_step(p, *operands(p, np.ones((1, 2))),
                         np.zeros((1, 3)), np.zeros((1, 3)))
    npt.assert_array_equal(c, np.full((1, 3), 0.5))
    npt.assert_allclose(h, np.full((1, 3), 0.6224593312018546), rtol=0, atol=1e-16)

    p = zero_cell("lstm6", 2, 3, forget_const=0.5)
    h, c, _ = lstm6_step(p, *operands(p, np.ones((1, 2))),
                         np.zeros((1, 3)), np.ones((1, 3)))
    npt.assert_array_equal(c, np.ones((1, 3)))
    npt.assert_allclose(h, np.full((1, 3), 0.7310585786300049), rtol=0, atol=1e-16)


def test_lstmc6_step_zero_params_frozen_value():
    p = zero_cell("lstm_c6", 2, 3, forget_const=0.0)
    h, c, _ = lstm6_step(p, *operands(p, np.ones((1, 2))),
                         np.zeros((1, 3)), np.zeros((1, 3)))
    npt.assert_array_equal(c, np.full((1, 3), 0.5))
    npt.assert_allclose(h, np.full((1, 3), 0.6224593312018546), rtol=0, atol=1e-16)


# --------------------------------------------------------------------------
# Independent one-step transcriptions of each recurrence.
# --------------------------------------------------------------------------

def test_srnn_step_matches_inline_transcription():
    p = random_cell("srnn", 3, 2, seed=7)
    rng = make_rng(70)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 2)
    h = srnn_step(p, *operands(p, x[None]), h_prev[None])
    t = p.tensors
    expected = expit(t["W_hx"] @ x + t["W_hh"] @ h_prev + t["b_h"])
    npt.assert_allclose(h, expected[None], rtol=0, atol=1e-15)


def test_lstm_step_matches_inline_transcription():
    p = random_cell("lstm", 2, 3, seed=11, act="tanh")
    rng = make_rng(110)
    x = rng.uniform(-1, 1, 2)
    h_prev = rng.uniform(-1, 1, 3)
    c_prev = rng.uniform(-1, 1, 3)
    h, c, _ = lstm_step(p, *operands(p, x[None]), h_prev[None], c_prev[None])
    t = p.tensors
    i = expit(t["W_i"] @ x + t["U_i"] @ h_prev + t["b_i"])
    f = expit(t["W_f"] @ x + t["U_f"] @ h_prev + t["b_f"])
    o = expit(t["W_o"] @ x + t["U_o"] @ h_prev + t["b_o"])
    c_tilde = np.tanh(t["W_c"] @ x + t["U_c"] @ h_prev + t["b_c"])
    c_ref = f * c_prev + i * c_tilde
    h_ref = o * np.tanh(c_ref)
    npt.assert_allclose(c, c_ref[None], rtol=0, atol=1e-15)
    npt.assert_allclose(h, h_ref[None], rtol=0, atol=1e-15)


def test_lstm6_step_matches_inline_transcription():
    p = random_cell("lstm6", 3, 4, seed=12)
    rng = make_rng(120)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    c_prev = rng.uniform(-1, 1, 4)
    h, c, _ = lstm6_step(p, *operands(p, x[None]), h_prev[None], c_prev[None])
    t = p.tensors
    c_ref = 0.59 * c_prev + expit(t["W_c"] @ x + t["U_c"] @ h_prev + t["b_c"])
    npt.assert_allclose(c, c_ref[None], rtol=0, atol=1e-15)
    npt.assert_allclose(h, expit(c_ref)[None], rtol=0, atol=1e-15)


def test_lstmc6_step_matches_inline_transcription():
    p = random_cell("lstm_c6", 4, 3, seed=13)
    rng = make_rng(130)
    x = rng.uniform(-1, 1, 4)
    h_prev = rng.uniform(-1, 1, 3)
    c_prev = rng.uniform(-1, 1, 3)
    h, c, _ = lstm6_step(p, *operands(p, x[None]), h_prev[None], c_prev[None])
    t = p.tensors
    c_ref = 0.59 * c_prev + expit(t["W_c"] @ x + t["u_c"] * h_prev + t["b_c"])
    npt.assert_allclose(c, c_ref[None], rtol=0, atol=1e-15)
    npt.assert_allclose(h, expit(c_ref)[None], rtol=0, atol=1e-15)


def test_step_caches_record_the_step():
    rng = make_rng(210)
    xs = rng.uniform(-1, 1, (4, 1, 3))
    p = random_cell("lstm", 3, 2, seed=21)
    _, _, (H, C, gates) = recorded(p, xs)
    assert gates.shape == (4, 1, 8)
    i, f, o, c_tilde = np.split(gates, 4, axis=-1)
    # the recorded gates recompose the state update exactly
    npt.assert_allclose(f * C[:-1] + i * c_tilde, C[1:], rtol=0, atol=1e-16)
    npt.assert_array_equal(o * expit(C[1:]), H[1:])

    # the slim cells' gates are constants (i = o = 1, f = forget_const),
    # so their stacks replay C[t+1] == f*C[t] + c_tilde[t], H[t+1] == act(C[t+1])
    for variant in ("lstm6", "lstm_c6"):
        p6 = random_cell(variant, 3, 2, seed=22)
        _, _, (H6, C6, c_tilde6) = recorded(p6, xs)
        for t in range(4):
            npt.assert_array_equal(p6.forget_const * C6[t] + c_tilde6[t], C6[t + 1])
            npt.assert_array_equal(expit(C6[t + 1]), H6[t + 1])


def lstm_formula_step(p, x, h_prev, c_prev):
    """One lstm step written gate by gate, for rows of x, h_prev, c_prev."""
    def gate(g):
        t = p.tensors
        return x @ t[f"W_{g}"].T + h_prev @ t[f"U_{g}"].T + t[f"b_{g}"]
    i, f, o = expit(gate("i")), expit(gate("f")), expit(gate("o"))
    c = f * c_prev + i * np.tanh(gate("c"))
    return o * np.tanh(c), c


def test_lstm_gate_blocks_over_rows_and_stacked_directions():
    # bias blocks far apart (i -3, f 3, o 0, c 1): a step that read one
    # gate from another block's columns would move h and c far past 1e-15
    m, n, T, B = 3, 5, 4, 3
    rng = make_rng(140)
    cells_ = [random_cell("lstm", m, n, seed=141 + d, act="tanh") for d in range(2)]
    for p in cells_:
        for g, bias in zip("ifoc", (-3.0, 3.0, 0.0, 1.0)):
            p.tensors[f"b_{g}"][:] = bias
    p = cells_[0]
    x, h_prev, c_prev = (rng.uniform(-1, 1, (B, k)) for k in (m, n, n))
    h, c, _ = lstm_step(p, *operands(p, x), h_prev, c_prev)
    h_ref, c_ref = lstm_formula_step(p, x, h_prev, c_prev)
    npt.assert_allclose(c, c_ref, rtol=0, atol=1e-15)
    npt.assert_allclose(h, h_ref, rtol=0, atol=1e-15)

    # two directions through run_steps: R stacked (2, n, 4n), states (2, B, n)
    xs = rng.uniform(-1, 1, (2, T, B, m))
    layouts = [stack_gates(q, transposed=True) for q in cells_]
    R = np.stack([r for _, r, _ in layouts])
    assert R.shape == (2, n, 4 * n)
    terms = np.stack([input_term(W, b, xs[d]) for d, (W, _, b) in enumerate(layouts)], axis=1)
    H, C, gates = stacks = record_arrays(p, T, 2, B)
    run_steps(p, R, terms, stacks)
    for d, q in enumerate(cells_):
        for t in range(T):
            h_ref, c_ref = lstm_formula_step(q, xs[d, t], H[t, d], C[t, d])
            npt.assert_allclose(C[t + 1, d], c_ref, rtol=0, atol=1e-15)
            npt.assert_allclose(H[t + 1, d], h_ref, rtol=0, atol=1e-15)
    # the recorded gates recompose the state update exactly
    i, f, o, c_tilde = np.split(gates, 4, axis=-1)
    npt.assert_array_equal(f * C[:-1] + i * c_tilde, C[1:])
    npt.assert_array_equal(o * np.tanh(C[1:]), H[1:])


def test_step_dimension_mismatch_rejected():
    p = random_cell("lstm6", 3, 2, seed=23)
    with pytest.raises(ValueError):
        lstm6_step(p, *operands(p, np.zeros((1, 4))), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        lstm6_step(p, *operands(p, np.zeros((1, 3))), np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        p = random_cell("srnn", 3, 2, seed=24)
        srnn_step(p, *operands(p, np.zeros((1, 3))), np.zeros((1, 3)))


# --------------------------------------------------------------------------
# Cross-variant equivalences via the gate-pin hook.
# --------------------------------------------------------------------------

def full_cell_sharing_candidate(slim: CellParams, seed: int) -> CellParams:
    """A full lstm cell whose candidate tensors equal the slim cell's;
    gate tensors are random and must be ignored once pinned."""
    full = init_cell("lstm", slim.m, slim.n, slim.act, slim.forget_const,
                     make_rng(seed))
    s = slim.tensors
    U_c = s["U_c"] if slim.variant == "lstm6" else np.diag(s["u_c"])
    return CellParams(variant="lstm", m=slim.m, n=slim.n, act=slim.act,
                      forget_const=slim.forget_const,
                      tensors={**full.tensors, "W_c": s["W_c"].copy(), "U_c": U_c,
                               "b_c": s["b_c"].copy()})


def test_gate_pinned_full_cell_equals_lstm6_step():
    for seed in range(20):
        rng = make_rng(300 + seed)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        f = float(rng.uniform(-0.95, 0.95))
        slim = random_cell("lstm6", m, n, seed=400 + seed, forget_const=f)
        full = full_cell_sharing_candidate(slim, seed=500 + seed)
        x = rng.uniform(-1, 1, (1, m))
        h_prev = rng.uniform(-1, 1, (1, n))
        c_prev = rng.uniform(-1, 1, (1, n))
        h_a, c_a, _ = lstm6_step(slim, *operands(slim, x), h_prev, c_prev)
        h_b, c_b, _ = gate_override_step(full, {"i": 1.0, "f": f, "o": 1.0},
                                         *operands(full, x), h_prev, c_prev)
        npt.assert_allclose(h_a, h_b, rtol=0, atol=1e-15)
        npt.assert_allclose(c_a, c_b, rtol=0, atol=1e-15)


def test_diagonal_recurrence_equals_lstm6_with_diagonal_matrix():
    for seed in range(20):
        rng = make_rng(600 + seed)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        vec = random_cell("lstm_c6", m, n, seed=700 + seed)
        mat = CellParams(variant="lstm6", m=m, n=n, act="sigmoid",
                         forget_const=vec.forget_const,
                         tensors={"W_c": vec.tensors["W_c"].copy(),
                                  "U_c": np.diag(vec.tensors["u_c"]),
                                  "b_c": vec.tensors["b_c"].copy()})
        x = rng.uniform(-1, 1, (1, m))
        h_prev = rng.uniform(-1, 1, (1, n))
        c_prev = rng.uniform(-1, 1, (1, n))
        h_a, c_a, _ = lstm6_step(vec, *operands(vec, x), h_prev, c_prev)
        h_b, c_b, _ = lstm6_step(mat, *operands(mat, x), h_prev, c_prev)
        npt.assert_allclose(h_a, h_b, rtol=0, atol=1e-15)
        npt.assert_allclose(c_a, c_b, rtol=0, atol=1e-15)


def test_gate_override_with_no_pins_is_plain_lstm_step():
    p = random_cell("lstm", 3, 4, seed=31)
    rng = make_rng(310)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    c_prev = rng.uniform(-1, 1, 4)
    h_a, c_a, _ = lstm_step(p, *operands(p, x[None]), h_prev[None], c_prev[None])
    h_b, c_b, _ = gate_override_step(p, {}, *operands(p, x[None]), h_prev[None],
                                     c_prev[None])
    npt.assert_array_equal(h_a, h_b)
    npt.assert_array_equal(c_a, c_b)


def test_gate_override_forget_zero_forgets_the_state():
    p = random_cell("lstm", 3, 4, seed=32)
    rng = make_rng(320)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    _, c_a, _ = gate_override_step(p, {"f": 0.0}, *operands(p, x[None]), h_prev[None],
                                   np.zeros((1, 4)))
    _, c_b, _ = gate_override_step(p, {"f": 0.0}, *operands(p, x[None]), h_prev[None],
                                   rng.uniform(-5, 5, (1, 4)))
    npt.assert_array_equal(c_a, c_b)


def test_gate_override_pin_validation():
    p = random_cell("lstm", 2, 2, seed=33)
    args = (*operands(p, np.zeros((1, 2))), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="unknown gate pins"):
        gate_override_step(p, {"q": 1.0}, *args)
    with pytest.raises(ValueError, match="exactly 1.0"):
        gate_override_step(p, {"i": 0.9}, *args)
    with pytest.raises(ValueError, match="exactly 1.0"):
        gate_override_step(p, {"o": 0.0}, *args)
    with pytest.raises(ValueError):
        gate_override_step(p, {"f": -1.5}, *args)
    # f may be pinned to exactly 1.0: a pure accumulator
    zero = zero_cell("lstm", 2, 2)
    c = np.zeros((1, 2))
    for _ in range(3):
        _, c, _ = gate_override_step(zero, {"i": 1.0, "f": 1.0, "o": 1.0},
                                     *operands(zero, np.zeros((1, 2))),
                                     np.zeros((1, 2)), c)
    npt.assert_array_equal(c, np.full((1, 2), 1.5))  # three additions of sigmoid(0)


# --------------------------------------------------------------------------
# Cell state boundedness for |f| < 1 with a sigmoid candidate.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["lstm6", "lstm_c6"])
@pytest.mark.parametrize("f", [0.59, 0.96])
def test_cell_state_geometric_bound(variant, f):
    """|c_t| <= |f|^t |c_0| + (1 - |f|^t) / (1 - |f|) for every step:
    the candidate term lies in (0, 1), so the state is a discounted sum."""
    rng = make_rng(7700)
    p = random_cell(variant, 4, 5, seed=77, forget_const=f)
    # scale weights up to push the candidate toward saturation
    for name in ("W_c", "b_c"):
        p.tensors[name].__imul__(3.0)
    steps = 2000
    h = np.zeros((1, 5))
    c0 = np.full((1, 5), 3.0)
    c = c0.copy()
    decay = 1.0
    for t in range(1, steps + 1):
        x = rng.uniform(-4.0, 4.0, (1, 4))
        h, c, _ = lstm6_step(p, *operands(p, x), h, c)
        decay *= abs(f)
        bound = decay * 3.0 + (1.0 - decay) / (1.0 - abs(f))
        assert np.all(np.abs(c) <= bound + 1e-9), f"step {t}: |c| above bound"


def test_run_sequence_geometric_convergence():
    # zero inputs, zero params, f = 0.5: c_t = 1 - 0.5^t -> 1.0
    p = zero_cell("lstm6", 2, 3, forget_const=0.5)
    xs = np.zeros((60, 1, 2))
    _, c, _ = recorded(p, xs)
    npt.assert_allclose(c, np.ones((1, 3)), rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# Whole-sequence drivers.
# --------------------------------------------------------------------------

def test_run_cell_deterministic_and_zero_state_default():
    p = random_cell("lstm", 3, 4, seed=41)
    xs = make_rng(410).uniform(-1, 1, size=(6, 1, 3))
    npt.assert_array_equal(run_cell(p, xs), run_cell(p, xs))
    h1, c1, k1 = recorded(p, xs)
    h2, c2, k2 = recorded(p, xs)
    npt.assert_array_equal(h1, h2)
    npt.assert_array_equal(c1, c2)
    assert k1[0].shape[0] == k2[0].shape[0] == 6 + 1
    # the states start at zero, and run_cell ends where the recording does
    assert not k1[0][0].any() and not k1[1][0].any()
    npt.assert_array_equal(run_cell(p, xs), h1)


def test_run_cell_srnn_has_no_cell_state():
    p = random_cell("srnn", 3, 4, seed=42)
    xs = make_rng(420).uniform(-1, 1, size=(5, 1, 3))
    h, c, (H, C, aux) = recorded(p, xs)
    assert c is None and C is None and aux is None
    assert H.shape[0] == 5 + 1
    # matches stepping by hand
    hh = np.zeros((1, 4))
    for t in range(5):
        hh = srnn_step(p, *operands(p, xs[t]), hh)
    npt.assert_array_equal(h, hh)
    npt.assert_array_equal(run_cell(p, xs), hh)


def test_run_cell_empty_sequence_rejected():
    p = random_cell("lstm6", 2, 2, seed=43)
    with pytest.raises(ValueError, match="empty"):
        run_cell(p, np.zeros((0, 1, 2)))


def test_run_sequence_single_step_reduces_to_step_plus_readout():
    p = random_cell("lstm6", 3, 4, seed=44)
    out = init_output(make_rng(440), 4, 2)
    x = make_rng(441).uniform(-1, 1, size=(1, 1, 3))
    h_T, _, (H, _, _) = recorded(p, x)
    y = output_layer_apply(out, h_T)
    h, _, _ = lstm6_step(p, *operands(p, x[0]), np.zeros((1, 4)), np.zeros((1, 4)))
    npt.assert_array_equal(y, output_layer_apply(out, h))
    assert H.shape[0] == 1 + 1


def test_run_sequence_caches_replay_the_forward_pass():
    p = random_cell("lstm", 2, 3, seed=45, act="tanh")
    xs = make_rng(450).uniform(-1, 1, size=(4, 1, 2))
    _, _, (H, C, gates) = recorded(p, xs)
    h = np.zeros((1, 3))
    c = np.zeros((1, 3))
    for t in range(4):
        npt.assert_array_equal(H[t], h)
        npt.assert_array_equal(C[t], c)
        h2, c2, g2 = lstm_step(p, *operands(p, xs[t]), h, c)
        npt.assert_array_equal(H[t + 1], h2)
        npt.assert_array_equal(C[t + 1], c2)
        npt.assert_array_equal(gates[t], g2)
        h, c = h2, c2


def test_output_layer_apply_known_values():
    out = OutputLayer(W_hy=np.zeros((1, 3)), b_y=np.array([0.3]))
    npt.assert_array_equal(output_layer_apply(out, np.ones((1, 3))), [[0.3]])
    eye = OutputLayer(W_hy=np.eye(3), b_y=np.zeros(3))
    h = np.array([[0.1, -0.2, 0.7]])
    npt.assert_array_equal(output_layer_apply(eye, h), h)
    # one state is a batch of one: a 1-D state is refused
    with pytest.raises(ValueError, match=r"\(B, n\) rows with n = 3"):
        output_layer_apply(out, np.ones(3))
    with pytest.raises(ValueError):
        OutputLayer(W_hy=np.zeros((2, 3)), b_y=np.zeros(3))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_over_a_batch_axis_equals_per_sample_runs(variant):
    p = random_cell(variant, 3, 5, seed=46, act="tanh")
    xs = make_rng(460).uniform(-2, 2, size=(9, 4, 3))  # (T, B, m)
    h, c, (H, _, _) = recorded(p, xs)
    assert h.shape == (4, 5) and H.shape == (9 + 1, 4, 5)
    npt.assert_array_equal(run_cell(p, xs), h)
    # relative to the state's scale: a batched product may sum in another
    # order, which moves an entry that cancels to near zero by ~1e-17
    for b in range(4):
        h_b, c_b, _ = recorded(p, xs[:, b:b + 1])
        npt.assert_allclose(h[b:b + 1], h_b, rtol=0, atol=1e-14 * np.abs(h_b).max())
        if variant == "srnn":
            assert c is None
        else:
            npt.assert_allclose(c[b:b + 1], c_b, rtol=0, atol=1e-14 * np.abs(c_b).max())


def test_run_cell_checks_shapes_once_and_can_skip_caches():
    p = random_cell("lstm", 2, 3, seed=47)
    xs = make_rng(470).uniform(-1, 1, size=(4, 2, 2))
    with pytest.raises(ValueError, match=r"\(T, B, 2\)"):
        run_cell(p, np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match=r"\(T, B, 2\)"):
        run_cell(p, np.zeros(4))
    # one sample is a batch of one: a (T, m) sample and an (n,) state are refused
    sample = r"shape \(4, 2\), expected \(T, B, 2\)"
    with pytest.raises(ValueError, match=sample):
        run_cell(p, xs[:, 0])
    with pytest.raises(ValueError, match=sample):
        classifier(p, init_output(make_rng(471), 3, 1)).forward(xs[:, 0])
    h = run_cell(p, xs)
    assert h.shape == (2, 3)
    h_rec, _, _ = recorded(p, xs)
    npt.assert_array_equal(h, h_rec)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(11, 1, 3), (11, 4, 3)])
@pytest.mark.parametrize("record", [True, False])
def test_projection_blocks_do_not_change_the_bits(monkeypatch, variant, shape,
                                                  record):
    # each step's input term is its own product, so a budget of one step's
    # bytes (one block per step) gives the bits of the default (one block)
    p = random_cell(variant, 3, 5, seed=48, act="tanh")
    xs = make_rng(480).uniform(-2, 2, size=shape)
    calls = []

    def spy(W, b, x, out=None):
        calls.append(len(x))
        return input_term(W, b, x, out=out)

    monkeypatch.setattr(cells, "input_term", spy)
    want = run_cell(p, xs)
    assert calls == [11]
    if record:  # a recording run, which projects every step in one call
        npt.assert_array_equal(recorded(p, xs)[0], want)
    width = len(stack_gates(p)[2])
    monkeypatch.setattr(cells, "PROJECTION_BUDGET", 8 * width * math.prod(shape[1:-1]))
    calls.clear()
    got = run_cell(p, xs)
    assert calls == [1] * 11
    npt.assert_array_equal(got, want)


STEPS = {"srnn": srnn_step, "lstm": lstm_step, "lstm6": lstm6_step,
         "lstm_c6": lstm6_step}


@pytest.mark.parametrize("variant", VARIANTS + ("gate_override",))
@pytest.mark.parametrize("batch", [(1,), (3,)])
def test_a_step_into_out_gives_the_bits_of_an_allocating_step(variant, batch):
    p = random_cell("lstm" if variant == "gate_override" else variant, 4, 5,
                    seed=49, act="tanh")

    def step(*args, **kw):
        if variant == "gate_override":
            return gate_override_step(p, {"f": 0.3}, *args, **kw)
        return STEPS[variant](p, *args, **kw)

    rng = make_rng(490)
    x = rng.uniform(-2, 2, batch + (4,))
    states = [rng.uniform(-1, 1, batch + (5,))
              for _ in range(1 if p.variant == "srnn" else 2)]
    before = [s.copy() for s in states]
    R, a_t = operands(p, x)
    want = step(R, a_t, *states)
    if p.variant == "srnn":
        out = np.full_like(want, np.nan)
        assert step(R, a_t, *states, out=out) is out
        npt.assert_array_equal(out, want)
    else:
        out = tuple(np.full_like(w, np.nan) for w in want)
        got = step(R, a_t, *states, out=out)
        for g, o, w in zip(got, out, want):
            assert g is o
            npt.assert_array_equal(o, w)
    for s, b in zip(states, before):
        npt.assert_array_equal(s, b)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(7, 1, 3), (7, 4, 3)])
def test_run_cell_without_record_keeps_the_start_state_and_the_bits(variant, shape):
    # run_cell records nothing: it ends with the bits of a recording run,
    # whose stacks keep their zero start states
    p = random_cell(variant, 3, 5, seed=50, act="tanh")
    xs = make_rng(500).uniform(-2, 2, shape)
    h = run_cell(p, xs)
    h_rec, c_rec, (H, C, _) = recorded(p, xs)
    npt.assert_array_equal(h, h_rec)
    assert h.shape == shape[1:-1] + (5,) and not H[0].any()
    if variant == "srnn":
        assert C is None and c_rec is None
    else:
        assert not C[0].any()


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_records_into_a_column_of_given_arrays_with_the_same_bits(variant):
    # what run_steps records into a sample's own arrays, it records into
    # one sample's column of a chunk's arrays, as model_gradients drives
    # it, with the same bits
    T, b, j = 7, 3, 1
    p = random_cell(variant, 3, 5, seed=51, act="tanh")
    rng = make_rng(510)
    xs = rng.uniform(-2, 2, (T, 1, 3))
    h0 = rng.uniform(-1, 1, (1, 5))
    c0 = None if variant == "srnn" else rng.uniform(-1, 1, (1, 5))
    W, R, bias = stack_gates(p, transposed=True)
    want = record_arrays(p, T, 1)
    for a, v in zip(want, (h0, c0)):
        if a is not None:
            a[0] = v
    h, c = run_steps(p, R, input_term(W, bias, xs), want)

    def column_of(chunk):  # sample j's column, holding its start states
        column = [None if a is None else a[:, j:j + 1] for a in chunk]
        for a, v in zip(column, (h0, c0)):
            if a is not None:
                a[0] = v
        return column

    chunk = [None if s is None else np.full(s, np.nan) for s in record_shapes(p, T, b)]
    got_h, got_c = run_steps(p, R, input_term(W, bias, xs), column_of(chunk))
    npt.assert_array_equal(got_h, h)
    assert np.shares_memory(got_h, chunk[0])
    if variant == "srnn":
        assert got_c is None and c is None
    else:
        npt.assert_array_equal(got_c, c)
        assert np.shares_memory(got_c, chunk[1])
    for a, w in zip(chunk, want):
        if w is None:
            assert a is None
            continue
        npt.assert_array_equal(a[:, j:j + 1], w)
        assert np.isnan(np.delete(a, j, axis=1)).all()  # other columns untouched
    # a column gives the bytes a sample's own arrays do, recording or not
    again = [None if s is None else np.full(s, np.nan) for s in record_shapes(p, T, b)]
    for stacks in (column_of(again), record_arrays(p, 1, 1)):
        for a, v in zip(stacks, (h0, c0)):
            if a is not None:
                a[0] = v
        given_h, given_c = run_steps(p, R, input_term(W, bias, xs), stacks)
        assert given_h.tobytes() == h.tobytes()
        assert given_c is None if c is None else given_c.tobytes() == c.tobytes()
    for a, g in zip(chunk, again):
        assert a is None and g is None or a.tobytes() == g.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 4, 8, 32, 100])
def test_a_stacked_step_gives_each_direction_the_bits_of_its_own(variant, n):
    # a bidirectional chunk steps both directions in one call: recurrent
    # tensors stacked (2, n, w) (lstm_c6: (2, 1, n)), states (2, 1, n)
    cells_ = [random_cell(variant, 3, n, seed=54 + d, act="tanh") for d in range(2)]
    rng = make_rng(540 + n)
    x = rng.uniform(-2, 2, (2, 1, 3))
    ops = [operands(p, x[d]) for d, p in enumerate(cells_)]
    R = np.stack([r for r, _ in ops])
    a_t = np.stack([a for _, a in ops])
    states = [rng.uniform(-1, 1, (2, 1, n))
              for _ in range(1 if variant == "srnn" else 2)]
    step = STEPS[variant]
    p = cells_[0]  # the directions share every fixed hyperparameter
    want = [step(p, ops[d][0], ops[d][1], *(s[d] for s in states)) for d in range(2)]
    if variant == "srnn":
        want = [(w,) for w in want]
    got = step(p, R, a_t, *states)
    got = (got,) if variant == "srnn" else got
    out = tuple(np.full(g.shape, np.nan) for g in got)
    into = step(p, R, a_t, *states, out=out[0] if variant == "srnn" else out)
    into = (into,) if variant == "srnn" else into
    for k, (g, i, o) in enumerate(zip(got, into, out)):
        assert i is o
        for d in range(2):
            assert g[d].tobytes() == want[d][k].tobytes(), (k, d)
            assert o[d].tobytes() == want[d][k].tobytes(), (k, d)


def test_record_arrays_follow_record_shapes():
    for variant, widths in (("srnn", None), ("lstm", 20), ("lstm6", 5), ("lstm_c6", 5)):
        p = random_cell(variant, 3, 5, seed=52)
        shapes = record_shapes(p, 7, 2)
        assert shapes[0] == (8, 2, 5)
        assert shapes[1:] == ((None, None) if widths is None else ((8, 2, 5), (7, 2, widths)))
        arrays = record_arrays(p, 7, 2)
        assert [None if a is None else a.shape for a in arrays] == list(shapes)
        assert record_shapes(p, 7, 1)[0] == (8, 1, 5)
        # model_gradients' bidirectional chunk: one (2, 1, n) block per sample-step
        aux = None if widths is None else (7, 3, 2, 1, widths)
        assert record_shapes(p, 7, 3, 2, 1)[::2] == ((8, 3, 2, 1, 5), aux)
        assert gate_width(p) == (widths or 5) == stack_gates(p)[2].shape[0]


# --------------------------------------------------------------------------
# Bidirectional models: one forward cell, one over reversed time.
# --------------------------------------------------------------------------

def classifier(cell, out, cell_bwd=None):
    """A model over cell whose embedding the tests bypass: they drive
    forward() with float inputs."""
    emb = init_embedding(make_rng(499), 5, cell.m)
    return SequenceClassifier(cell=cell, out=out, emb=emb, cell_bwd=cell_bwd)


def bidirectional_model(p_fwd, p_bwd):
    return classifier(p_fwd, init_output(make_rng(500), 2 * p_fwd.n, 1), p_bwd)


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("variant", ["lstm", "lstm6", "lstm_c6"])
def test_run_steps_makes_one_step_call_per_step(monkeypatch, variant, T):
    # lstm steps through lstm_step, both slim cells through lstm6_step: one
    # call per step, recording or not
    calls = []
    for name in ("lstm_step", "lstm6_step"):
        def counted(*args, _name=name, _step=getattr(cells, name), **kwargs):
            calls.append(_name)
            return _step(*args, **kwargs)
        monkeypatch.setattr(cells, name, counted)
    p = random_cell(variant, 3, 4, seed=58, act="tanh")
    xs = make_rng(580).uniform(-1, 1, (T, 2, 3))
    want = ["lstm_step" if variant == "lstm" else "lstm6_step"] * T
    run_cell(p, xs)
    assert calls == want
    calls.clear()
    recorded(p, xs)
    assert calls == want


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(variant=st.sampled_from(VARIANTS), act=st.sampled_from(ACTIVATIONS),
       m=st.integers(1, 5), n=st.integers(1, 6), T=st.integers(1, 6),
       B=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_bidirectional_output_is_ordered_concatenation(variant, act, m, n, T, B, seed):
    # [h_fwd ; h_bwd] has the bits of each direction's own run
    p_fwd = random_cell(variant, m, n, seed=seed, act=act)
    p_bwd = random_cell(variant, m, n, seed=seed + 1, act=act)
    xs = make_rng(seed).uniform(-1, 1, size=(T, B, m))
    model = bidirectional_model(p_fwd, p_bwd)
    y_raw, y = model.forward(xs)
    assert y.shape == (B, 2 * n)
    assert y[:, :n].tobytes() == run_cell(p_fwd, xs).tobytes()
    assert y[:, n:].tobytes() == run_cell(p_bwd, xs[::-1]).tobytes()
    npt.assert_array_equal(y_raw, output_layer_apply(model.out, y))


def test_bidirectional_palindrome_halves_agree():
    p = random_cell("lstm_c6", 2, 4, seed=53)
    half = make_rng(530).uniform(-1, 1, size=(3, 1, 2))
    xs = np.concatenate([half, half[::-1]])  # palindromic in time
    _, y = bidirectional_model(p, p).forward(xs)
    npt.assert_array_equal(y[:, :4], y[:, 4:])


def test_bidirectional_width_doubles():
    p_fwd = random_cell("lstm6", 4, 128, seed=54)
    p_bwd = random_cell("lstm6", 4, 128, seed=55)
    xs = make_rng(540).uniform(-1, 1, size=(3, 1, 4))
    assert bidirectional_model(p_fwd, p_bwd).forward(xs)[1].shape == (1, 256)


def test_bidirectional_mismatched_cells_rejected():
    a = random_cell("lstm6", 3, 4, seed=56)
    b = random_cell("lstm6", 3, 5, seed=57)
    with pytest.raises(ValueError, match="disagree on n"):
        bidirectional_model(a, b)
    c = random_cell("lstm_c6", 3, 4, seed=58)
    with pytest.raises(ValueError, match="disagree on variant"):
        bidirectional_model(a, c)
    # a checkpoint stores one activation and one forget constant for both
    d = random_cell("lstm6", 3, 4, seed=57, act="relu")
    with pytest.raises(ValueError, match="disagree on act: sigmoid vs relu"):
        bidirectional_model(a, d)
    e = random_cell("lstm6", 3, 4, seed=57, forget_const=0.9)
    with pytest.raises(ValueError, match="disagree on forget_const: 0.59 vs 0.9"):
        bidirectional_model(a, e)


def test_readout_width_is_checked_at_construction():
    fwd = random_cell("lstm6", 3, 4, seed=59)
    bwd = random_cell("lstm6", 3, 4, seed=60)
    narrow = init_output(make_rng(590), 4, 1)
    with pytest.raises(ValueError, match="reads 4 features, the cells give 8"):
        classifier(fwd, narrow, bwd)
    with pytest.raises(ValueError, match="reads 8 features, the cells give 4"):
        classifier(fwd, init_output(make_rng(591), 8, 1))
    classifier(fwd, narrow)


# --------------------------------------------------------------------------
# Parameter construction and validation.
# --------------------------------------------------------------------------

def test_init_cell_deterministic_and_zero_biased():
    a = random_cell("lstm", 3, 4, seed=61)
    b = random_cell("lstm", 3, 4, seed=61)
    for name in ADAPTIVE_FIELDS["lstm"]:
        npt.assert_array_equal(a.tensors[name], b.tensors[name])
    for name in ("b_i", "b_f", "b_o", "b_c"):
        npt.assert_array_equal(a.tensors[name], np.zeros(4))
    assert random_cell("lstm_c6", 3, 4, seed=62).tensors["u_c"].shape == (4,)
    with pytest.raises(ValueError, match="rng"):
        init_cell("lstm6", 3, 4)


def test_init_cell_draws_tensors_in_declared_order():
    # both slim variants draw W_c first, so equal seeds share it exactly
    a = random_cell("lstm6", 5, 3, seed=63)
    b = random_cell("lstm_c6", 5, 3, seed=63)
    npt.assert_array_equal(a.tensors["W_c"], b.tensors["W_c"])


def test_cell_params_shape_validation():
    with pytest.raises(ValueError):
        CellParams(variant="lstm6", m=3, n=2,
                   tensors={"W_c": np.zeros((2, 4)), "U_c": np.zeros((2, 2)),
                            "b_c": np.zeros(2)})
    with pytest.raises(ValueError, match="variant"):
        CellParams(variant="gru", m=3, n=2)


@pytest.mark.parametrize("variant, stray", [
    ("srnn", "W_c"), ("lstm", "u_c"), ("lstm6", "W_i"), ("lstm_c6", "U_c")])
def test_cell_params_refuse_a_missing_or_a_stray_tensor(variant, stray):
    tensors = random_cell(variant, 3, 2, seed=68).param_arrays()
    first = ADAPTIVE_FIELDS[variant][0]
    with pytest.raises(ValueError) as info:
        CellParams(variant=variant, m=3, n=2,
                   tensors={k: v for k, v in tensors.items() if k != first})
    assert str(info.value) == f"{variant} cell missing tensor {first}"
    # another variant's name is refused at any shape, not carried untrained
    with pytest.raises(ValueError) as info:
        CellParams(variant=variant, m=3, n=2, tensors={**tensors, stray: np.zeros(7)})
    assert str(info.value) == f"{variant} cell has no tensor {stray}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_cell_rebuilt_from_its_param_arrays_equals_it(variant):
    assert [f.name for f in dataclasses.fields(CellParams)] == [
        "variant", "m", "n", "act", "forget_const", "tensors"]
    cell = random_cell(variant, 3, 4, seed=69, act="tanh", forget_const=-0.3)
    tensors = cell.param_arrays()
    back = CellParams(variant=variant, m=3, n=4, act="tanh", forget_const=-0.3,
                      tensors=dict(reversed(tensors.items())))
    assert (back.variant, back.m, back.n, back.act, back.forget_const) == (
        cell.variant, cell.m, cell.n, cell.act, cell.forget_const)
    assert list(back.param_arrays()) == list(ADAPTIVE_FIELDS[variant])
    for name, arr in tensors.items():
        npt.assert_array_equal(back.tensors[name], arr)


def test_init_cell_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'gru'"):
        init_cell("gru", 3, 2, rng=make_rng(67))


@pytest.mark.parametrize("variant", ["srnn", "lstm", "lstm6", "lstm_c6"])
def test_cell_params_reject_an_unknown_activation(variant):
    with pytest.raises(ValueError, match="unknown activation 'tahn'"):
        init_cell(variant, 3, 2, "tahn", 0.59, make_rng(66))


@pytest.mark.parametrize("variant", ["lstm6", "lstm_c6"])
@pytest.mark.parametrize("bad_f", [1.0, -1.0, 1.3])
def test_slim_forget_constant_must_be_inside_open_interval(variant, bad_f):
    with pytest.raises(ValueError):
        random_cell(variant, 2, 2, seed=64, forget_const=bad_f)


def test_negative_forget_constant_is_allowed():
    p = random_cell("lstm6", 2, 2, seed=65, forget_const=-0.4)
    h, c, _ = lstm6_step(p, *operands(p, np.zeros((1, 2))),
                         np.zeros((1, 2)), np.ones((1, 2)))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(h))


# --------------------------------------------------------------------------
# Parameter and MAC accounting.
# --------------------------------------------------------------------------

def test_param_count_frozen_table_values():
    assert param_count("lstm", 32, 100) == 53200
    assert param_count("lstm6", 32, 100) == 13300
    assert param_count("lstm_c6", 32, 100) == 3400
    assert param_count("lstm", 128, 128, bidirectional=True) == 263168
    assert param_count("lstm6", 128, 128, bidirectional=True) == 65792
    assert param_count("lstm_c6", 128, 128, bidirectional=True) == 33280


def test_param_count_equals_stored_value_count_exhaustively():
    for variant in VARIANTS:
        for m in range(1, 17):
            for n in range(1, 17):
                stored = sum(a.size for a in
                             random_cell(variant, m, n, seed=1).param_arrays().values())
                assert param_count(variant, m, n) == stored, (variant, m, n)
                assert param_count(variant, m, n, bidirectional=True) == 2 * stored


def test_param_count_rejects_bad_dims():
    with pytest.raises(ValueError):
        param_count("lstm", 0, 5)
    with pytest.raises(ValueError):
        step_mac_count("lstm6", 3, 0)


def test_step_mac_count_frozen_values():
    assert step_mac_count("lstm", 32, 100) == 52800
    assert step_mac_count("lstm6", 32, 100) == 13200
    assert step_mac_count("lstm_c6", 32, 100) == 3300
    assert step_mac_count("srnn", 32, 100) == 13200


def test_step_mac_count_ordering():
    """The full cell always costs strictly more than the gate-free cell;
    dropping the recurrent matrix wins strictly once n >= 2, and at
    n = 1 the two slim costs coincide (n(m+n) == nm+n there)."""
    for m in range(1, 65):
        for n in range(1, 65):
            full = step_mac_count("lstm", m, n)
            slim = step_mac_count("lstm6", m, n)
            diag = step_mac_count("lstm_c6", m, n)
            assert full > slim, (m, n)
            if n >= 2:
                assert slim > diag, (m, n)
            else:
                assert slim == diag == m + 1, (m, n)
