"""Recurrent-cell checks: frozen single-step values, independent formula
transcriptions, cross-variant equivalences through the gate-pin hook, cell
state boundedness, and the parameter/MAC accounting."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from slimrnn import cells
from slimrnn.cells import (
    ADAPTIVE_FIELDS,
    VARIANTS,
    CellParams,
    OutputLayer,
    gate_override_step,
    init_cell,
    init_output,
    input_term,
    lstm6_step,
    lstm_step,
    lstmc6_step,
    output_layer_apply,
    param_count,
    record_arrays,
    record_shapes,
    run_cell,
    srnn_step,
    stack_gates,
    step_mac_count,
)
from slimrnn.data import init_embedding
from slimrnn.numerics import make_rng
from slimrnn.training import SequenceClassifier

from conftest import operands


def zero_cell(variant, m, n, act="sigmoid", forget_const=0.59):
    """A cell with every weight and bias exactly zero."""
    fields = {}
    for name in ADAPTIVE_FIELDS[variant]:
        if name.startswith("b"):
            fields[name] = np.zeros(n)
        elif name == "u_c":
            fields[name] = np.zeros(n)
        elif name.startswith("U") or name == "W_hh":
            fields[name] = np.zeros((n, n))
        else:
            fields[name] = np.zeros((n, m))
    return CellParams(variant=variant, m=m, n=n, act=act,
                      forget_const=forget_const, **fields)


def random_cell(variant, m, n, seed, act="sigmoid", forget_const=0.59):
    return init_cell(variant, m, n, act, forget_const, make_rng(seed))


# --------------------------------------------------------------------------
# Frozen single-step values (zero weights force closed-form outputs).
# --------------------------------------------------------------------------

def test_srnn_step_zero_params():
    p = zero_cell("srnn", 3, 4)
    h = srnn_step(p, *operands(p, np.ones(3)), np.ones(4))
    npt.assert_array_equal(h, np.full(4, 0.5))
    p_tanh = zero_cell("srnn", 3, 4, act="tanh")
    h = srnn_step(p_tanh, *operands(p_tanh, np.ones(3)), np.ones(4))
    npt.assert_array_equal(h, np.zeros(4))


def test_lstm_step_zero_params_frozen_value():
    # All gates sigmoid(0)=0.5, candidate 0.5, so c = 0.25 and
    # h = 0.5 * sigmoid(0.25) exactly.
    p = zero_cell("lstm", 2, 3)
    h, c, _ = lstm_step(p, *operands(p, np.ones(2)), np.zeros(3), np.zeros(3))
    npt.assert_allclose(c, np.full(3, 0.25), rtol=0, atol=0)
    npt.assert_allclose(h, np.full(3, 0.28108825044289905), rtol=0, atol=1e-16)


def test_lstm_step_zero_params_tanh_is_zero():
    p = zero_cell("lstm", 2, 3, act="tanh")
    h, c, _ = lstm_step(p, *operands(p, np.ones(2)), np.zeros(3), np.zeros(3))
    npt.assert_array_equal(c, np.zeros(3))
    npt.assert_array_equal(h, np.zeros(3))


def test_lstm6_step_zero_params_frozen_values():
    p = zero_cell("lstm6", 2, 3, forget_const=0.0)
    h, c, _ = lstm6_step(p, *operands(p, np.ones(2)), np.zeros(3), np.zeros(3))
    npt.assert_array_equal(c, np.full(3, 0.5))
    npt.assert_allclose(h, np.full(3, 0.6224593312018546), rtol=0, atol=1e-16)

    p = zero_cell("lstm6", 2, 3, forget_const=0.5)
    h, c, _ = lstm6_step(p, *operands(p, np.ones(2)), np.zeros(3), np.ones(3))
    npt.assert_array_equal(c, np.ones(3))
    npt.assert_allclose(h, np.full(3, 0.7310585786300049), rtol=0, atol=1e-16)


def test_lstmc6_step_zero_params_frozen_value():
    p = zero_cell("lstm_c6", 2, 3, forget_const=0.0)
    h, c, _ = lstmc6_step(p, *operands(p, np.ones(2)), np.zeros(3), np.zeros(3))
    npt.assert_array_equal(c, np.full(3, 0.5))
    npt.assert_allclose(h, np.full(3, 0.6224593312018546), rtol=0, atol=1e-16)


# --------------------------------------------------------------------------
# Independent one-step transcriptions of each recurrence.
# --------------------------------------------------------------------------

def test_srnn_step_matches_inline_transcription():
    p = random_cell("srnn", 3, 2, seed=7)
    rng = make_rng(70)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 2)
    h = srnn_step(p, *operands(p, x), h_prev)
    expected = expit(p.W_hx @ x + p.W_hh @ h_prev + p.b_h)
    npt.assert_allclose(h, expected, rtol=0, atol=1e-15)


def test_lstm_step_matches_inline_transcription():
    p = random_cell("lstm", 2, 3, seed=11, act="tanh")
    rng = make_rng(110)
    x = rng.uniform(-1, 1, 2)
    h_prev = rng.uniform(-1, 1, 3)
    c_prev = rng.uniform(-1, 1, 3)
    h, c, _ = lstm_step(p, *operands(p, x), h_prev, c_prev)
    i = expit(p.W_i @ x + p.U_i @ h_prev + p.b_i)
    f = expit(p.W_f @ x + p.U_f @ h_prev + p.b_f)
    o = expit(p.W_o @ x + p.U_o @ h_prev + p.b_o)
    c_tilde = np.tanh(p.W_c @ x + p.U_c @ h_prev + p.b_c)
    c_ref = f * c_prev + i * c_tilde
    h_ref = o * np.tanh(c_ref)
    npt.assert_allclose(c, c_ref, rtol=0, atol=1e-15)
    npt.assert_allclose(h, h_ref, rtol=0, atol=1e-15)


def test_lstm6_step_matches_inline_transcription():
    p = random_cell("lstm6", 3, 4, seed=12)
    rng = make_rng(120)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    c_prev = rng.uniform(-1, 1, 4)
    h, c, _ = lstm6_step(p, *operands(p, x), h_prev, c_prev)
    c_ref = 0.59 * c_prev + expit(p.W_c @ x + p.U_c @ h_prev + p.b_c)
    npt.assert_allclose(c, c_ref, rtol=0, atol=1e-15)
    npt.assert_allclose(h, expit(c_ref), rtol=0, atol=1e-15)


def test_lstmc6_step_matches_inline_transcription():
    p = random_cell("lstm_c6", 4, 3, seed=13)
    rng = make_rng(130)
    x = rng.uniform(-1, 1, 4)
    h_prev = rng.uniform(-1, 1, 3)
    c_prev = rng.uniform(-1, 1, 3)
    h, c, _ = lstmc6_step(p, *operands(p, x), h_prev, c_prev)
    c_ref = 0.59 * c_prev + expit(p.W_c @ x + p.u_c * h_prev + p.b_c)
    npt.assert_allclose(c, c_ref, rtol=0, atol=1e-15)
    npt.assert_allclose(h, expit(c_ref), rtol=0, atol=1e-15)


def test_step_caches_record_the_step():
    rng = make_rng(210)
    xs = rng.uniform(-1, 1, (4, 3))
    p = random_cell("lstm", 3, 2, seed=21)
    _, _, (H, C, gates) = run_cell(p, xs)
    assert gates.shape == (4, 8)
    i, f, o, c_tilde = np.split(gates, 4, axis=-1)
    # the recorded gates recompose the state update exactly
    npt.assert_allclose(f * C[:-1] + i * c_tilde, C[1:], rtol=0, atol=1e-16)
    npt.assert_array_equal(o * expit(C[1:]), H[1:])

    # the slim cells' gates are constants (i = o = 1, f = forget_const),
    # so their stacks replay C[t+1] == f*C[t] + c_tilde[t], H[t+1] == act(C[t+1])
    for variant in ("lstm6", "lstm_c6"):
        p6 = random_cell(variant, 3, 2, seed=22)
        _, _, (H6, C6, c_tilde6) = run_cell(p6, xs)
        for t in range(4):
            npt.assert_array_equal(p6.forget_const * C6[t] + c_tilde6[t], C6[t + 1])
            npt.assert_array_equal(expit(C6[t + 1]), H6[t + 1])


def test_step_dimension_mismatch_rejected():
    p = random_cell("lstm6", 3, 2, seed=23)
    with pytest.raises(ValueError):
        lstm6_step(p, *operands(p, np.zeros(4)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        lstm6_step(p, *operands(p, np.zeros(3)), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        p = random_cell("srnn", 3, 2, seed=24)
        srnn_step(p, *operands(p, np.zeros(3)), np.zeros(3))


# --------------------------------------------------------------------------
# Cross-variant equivalences via the gate-pin hook.
# --------------------------------------------------------------------------

def full_cell_sharing_candidate(slim: CellParams, seed: int) -> CellParams:
    """A full lstm cell whose candidate tensors equal the slim cell's;
    gate tensors are random and must be ignored once pinned."""
    full = init_cell("lstm", slim.m, slim.n, slim.act, slim.forget_const,
                     make_rng(seed))
    U_c = slim.U_c if slim.variant == "lstm6" else np.diag(slim.u_c)
    return CellParams(variant="lstm", m=slim.m, n=slim.n, act=slim.act,
                      forget_const=slim.forget_const,
                      W_i=full.W_i, U_i=full.U_i, b_i=full.b_i,
                      W_f=full.W_f, U_f=full.U_f, b_f=full.b_f,
                      W_o=full.W_o, U_o=full.U_o, b_o=full.b_o,
                      W_c=slim.W_c.copy(), U_c=U_c, b_c=slim.b_c.copy())


def test_gate_pinned_full_cell_equals_lstm6_step():
    for seed in range(20):
        rng = make_rng(300 + seed)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        f = float(rng.uniform(-0.95, 0.95))
        slim = random_cell("lstm6", m, n, seed=400 + seed, forget_const=f)
        full = full_cell_sharing_candidate(slim, seed=500 + seed)
        x = rng.uniform(-1, 1, m)
        h_prev = rng.uniform(-1, 1, n)
        c_prev = rng.uniform(-1, 1, n)
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
                         W_c=vec.W_c.copy(), U_c=np.diag(vec.u_c),
                         b_c=vec.b_c.copy())
        x = rng.uniform(-1, 1, m)
        h_prev = rng.uniform(-1, 1, n)
        c_prev = rng.uniform(-1, 1, n)
        h_a, c_a, _ = lstmc6_step(vec, *operands(vec, x), h_prev, c_prev)
        h_b, c_b, _ = lstm6_step(mat, *operands(mat, x), h_prev, c_prev)
        npt.assert_allclose(h_a, h_b, rtol=0, atol=1e-15)
        npt.assert_allclose(c_a, c_b, rtol=0, atol=1e-15)


def test_gate_override_with_no_pins_is_plain_lstm_step():
    p = random_cell("lstm", 3, 4, seed=31)
    rng = make_rng(310)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    c_prev = rng.uniform(-1, 1, 4)
    h_a, c_a, _ = lstm_step(p, *operands(p, x), h_prev, c_prev)
    h_b, c_b, _ = gate_override_step(p, {}, *operands(p, x), h_prev, c_prev)
    npt.assert_array_equal(h_a, h_b)
    npt.assert_array_equal(c_a, c_b)


def test_gate_override_forget_zero_forgets_the_state():
    p = random_cell("lstm", 3, 4, seed=32)
    rng = make_rng(320)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 4)
    _, c_a, _ = gate_override_step(p, {"f": 0.0}, *operands(p, x), h_prev, np.zeros(4))
    _, c_b, _ = gate_override_step(p, {"f": 0.0}, *operands(p, x), h_prev,
                                   rng.uniform(-5, 5, 4))
    npt.assert_array_equal(c_a, c_b)


def test_gate_override_pin_validation():
    p = random_cell("lstm", 2, 2, seed=33)
    args = (*operands(p, np.zeros(2)), np.zeros(2), np.zeros(2))
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
    c = np.zeros(2)
    for _ in range(3):
        _, c, _ = gate_override_step(zero, {"i": 1.0, "f": 1.0, "o": 1.0},
                                     *operands(zero, np.zeros(2)), np.zeros(2), c)
    npt.assert_array_equal(c, np.full(2, 1.5))  # three additions of sigmoid(0)


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
        getattr(p, name).__imul__(3.0)
    steps = 2000
    h = np.zeros(5)
    c0 = np.full(5, 3.0)
    c = c0.copy()
    step = lstm6_step if variant == "lstm6" else lstmc6_step
    decay = 1.0
    for t in range(1, steps + 1):
        x = rng.uniform(-4.0, 4.0, 4)
        h, c, _ = step(p, *operands(p, x), h, c)
        decay *= abs(f)
        bound = decay * 3.0 + (1.0 - decay) / (1.0 - abs(f))
        assert np.all(np.abs(c) <= bound + 1e-9), f"step {t}: |c| above bound"


def test_run_sequence_geometric_convergence():
    # zero inputs, zero params, f = 0.5: c_t = 1 - 0.5^t -> 1.0
    p = zero_cell("lstm6", 2, 3, forget_const=0.5)
    xs = np.zeros((60, 2))
    _, c, _ = run_cell(p, xs)
    npt.assert_allclose(c, np.ones(3), rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# Whole-sequence drivers.
# --------------------------------------------------------------------------

def test_run_cell_deterministic_and_zero_state_default():
    p = random_cell("lstm", 3, 4, seed=41)
    xs = make_rng(410).uniform(-1, 1, size=(6, 3))
    h1, c1, k1 = run_cell(p, xs)
    h2, c2, k2 = run_cell(p, xs)
    npt.assert_array_equal(h1, h2)
    npt.assert_array_equal(c1, c2)
    assert k1[0].shape[0] == k2[0].shape[0] == 6 + 1
    h3, c3, _ = run_cell(p, xs, h0=np.zeros(4), c0=np.zeros(4))
    npt.assert_array_equal(h1, h3)
    npt.assert_array_equal(c1, c3)


def test_run_cell_srnn_has_no_cell_state():
    p = random_cell("srnn", 3, 4, seed=42)
    xs = make_rng(420).uniform(-1, 1, size=(5, 3))
    h, c, (H, C, aux) = run_cell(p, xs)
    assert c is None and C is None and aux is None
    assert H.shape[0] == 5 + 1
    # matches stepping by hand
    hh = np.zeros(4)
    for t in range(5):
        hh = srnn_step(p, *operands(p, xs[t]), hh)
    npt.assert_array_equal(h, hh)


def test_run_cell_empty_sequence_rejected():
    p = random_cell("lstm6", 2, 2, seed=43)
    with pytest.raises(ValueError, match="empty"):
        run_cell(p, np.zeros((0, 2)))


def test_run_sequence_single_step_reduces_to_step_plus_readout():
    p = random_cell("lstm6", 3, 4, seed=44)
    out = init_output(make_rng(440), 4, 2)
    x = make_rng(441).uniform(-1, 1, size=(1, 3))
    h_T, _, (H, _, _) = run_cell(p, x)
    y = output_layer_apply(out, h_T)
    h, _, _ = lstm6_step(p, *operands(p, x[0]), np.zeros(4), np.zeros(4))
    npt.assert_array_equal(y, output_layer_apply(out, h))
    assert H.shape[0] == 1 + 1


def test_run_sequence_caches_replay_the_forward_pass():
    p = random_cell("lstm", 2, 3, seed=45, act="tanh")
    xs = make_rng(450).uniform(-1, 1, size=(4, 2))
    _, _, (H, C, gates) = run_cell(p, xs)
    h = np.zeros(3)
    c = np.zeros(3)
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
    npt.assert_array_equal(output_layer_apply(out, np.ones(3)), [0.3])
    eye = OutputLayer(W_hy=np.eye(3), b_y=np.zeros(3))
    h = np.array([0.1, -0.2, 0.7])
    npt.assert_array_equal(output_layer_apply(eye, h), h)
    with pytest.raises(ValueError):
        OutputLayer(W_hy=np.zeros((2, 3)), b_y=np.zeros(3))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_over_a_batch_axis_equals_per_sample_runs(variant):
    p = random_cell(variant, 3, 5, seed=46, act="tanh")
    xs = make_rng(460).uniform(-2, 2, size=(9, 4, 3))  # (T, B, m)
    h, c, (H, _, _) = run_cell(p, xs)
    assert h.shape == (4, 5) and H.shape == (9 + 1, 4, 5)
    # relative to the state's scale: a batched product may sum in another
    # order, which moves an entry that cancels to near zero by ~1e-17
    for b in range(4):
        h_b, c_b, _ = run_cell(p, xs[:, b])
        npt.assert_allclose(h[b], h_b, rtol=0, atol=1e-14 * np.abs(h_b).max())
        if variant == "srnn":
            assert c is None
        else:
            npt.assert_allclose(c[b], c_b, rtol=0, atol=1e-14 * np.abs(c_b).max())


def test_run_cell_checks_shapes_once_and_can_skip_caches():
    p = random_cell("lstm", 2, 3, seed=47)
    xs = make_rng(470).uniform(-1, 1, size=(4, 2, 2))
    with pytest.raises(ValueError, match=r"\(T, 2\)"):
        run_cell(p, np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"\(T, 2\)"):
        run_cell(p, np.zeros(4))
    with pytest.raises(ValueError, match="h0"):
        run_cell(p, xs, h0=np.zeros(3))
    with pytest.raises(ValueError, match="c0"):
        run_cell(p, xs, c0=np.zeros((3, 3)))
    h, c, caches = run_cell(p, xs, record=False)
    assert caches is None
    h_rec, c_rec, _ = run_cell(p, xs)
    npt.assert_array_equal(h, h_rec)
    npt.assert_array_equal(c, c_rec)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(11, 3), (11, 4, 3)])
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
    want = run_cell(p, xs, record=record)
    assert calls == [11]
    width = len(stack_gates(p)[2])
    monkeypatch.setattr(cells, "PROJECTION_BUDGET", 8 * width * math.prod(shape[1:-1]))
    calls.clear()
    got = run_cell(p, xs, record=record)
    assert calls == [1] * 11
    for a, b in zip(got[:2] + (got[2] or ()), want[:2] + (want[2] or ())):
        if b is None:
            assert a is None
        else:
            npt.assert_array_equal(a, b)


STEPS = {"srnn": srnn_step, "lstm": lstm_step, "lstm6": lstm6_step,
         "lstm_c6": lstmc6_step}


@pytest.mark.parametrize("variant", VARIANTS + ("gate_override",))
@pytest.mark.parametrize("batch", [(), (3,)])
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
@pytest.mark.parametrize("shape", [(7, 3), (7, 4, 3)])
def test_run_cell_without_record_keeps_the_start_state_and_the_bits(variant, shape):
    p = random_cell(variant, 3, 5, seed=50, act="tanh")
    rng = make_rng(500)
    xs = rng.uniform(-2, 2, shape)
    h0 = rng.uniform(-1, 1, shape[1:-1] + (5,))
    c0 = None if variant == "srnn" else rng.uniform(-1, 1, h0.shape)
    h0_before = h0.copy()
    c0_before = None if c0 is None else c0.copy()
    h, c, stacks = run_cell(p, xs, h0, c0, record=False)
    assert stacks is None
    h_rec, c_rec, (H, C, _) = run_cell(p, xs, h0, c0)
    npt.assert_array_equal(h, h_rec)
    npt.assert_array_equal(H[0], h0)
    npt.assert_array_equal(h0, h0_before)
    if variant == "srnn":
        assert c is None and c_rec is None
    else:
        npt.assert_array_equal(c, c_rec)
        npt.assert_array_equal(C[0], c0)
        npt.assert_array_equal(c0, c0_before)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_records_into_a_column_of_given_arrays_with_the_same_bits(variant):
    T, b, j = 7, 3, 1
    p = random_cell(variant, 3, 5, seed=51, act="tanh")
    rng = make_rng(510)
    xs = rng.uniform(-2, 2, (T, 3))
    h0 = rng.uniform(-1, 1, 5)
    c0 = None if variant == "srnn" else rng.uniform(-1, 1, 5)
    h, c, want = run_cell(p, xs, h0, c0)
    chunk = [None if s is None else np.full(s, np.nan) for s in record_shapes(p, T, (b,))]
    column = [None if a is None else a[:, j] for a in chunk]
    got_h, got_c, got = run_cell(p, xs, h0, c0, record=column)
    npt.assert_array_equal(got_h, h)
    if variant == "srnn":
        assert got_c is None and c is None
    else:
        npt.assert_array_equal(got_c, c)
    for a, g, w in zip(chunk, got, want):
        if w is None:
            assert a is None and g is None
            continue
        assert np.shares_memory(g, a)
        npt.assert_array_equal(a[:, j], w)
        assert np.isnan(np.delete(a, j, axis=1)).all()  # other columns untouched


def test_record_arrays_follow_record_shapes():
    for variant, widths in (("srnn", None), ("lstm", 20), ("lstm6", 5), ("lstm_c6", 5)):
        p = random_cell(variant, 3, 5, seed=52)
        shapes = record_shapes(p, 7, (2,))
        assert shapes[0] == (8, 2, 5)
        assert shapes[1:] == ((None, None) if widths is None else ((8, 2, 5), (7, 2, widths)))
        arrays = record_arrays(p, 7, (2,))
        assert [None if a is None else a.shape for a in arrays] == list(shapes)
        assert record_shapes(p, 7)[0] == (8, 5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_cell_rejects_record_arrays_of_the_wrong_shape(variant):
    T = 4
    p = random_cell(variant, 3, 5, seed=53)
    xs = make_rng(530).uniform(-1, 1, (T, 2, 3))
    good = list(record_arrays(p, T, (2,)))
    for k, what in enumerate(("H", "C", "aux")):
        if good[k] is None:  # srnn records no C and no aux
            bad = good[:k] + [np.empty((T + 1, 2, 5))] + good[k + 1:]
            want = "None"
        else:  # one feature too wide
            bad = good[:k] + [np.empty(good[k].shape[:-1] + (good[k].shape[-1] + 1,))]
            bad += good[k + 1:]
            want = re.escape(str(good[k].shape))
        got = re.escape(str(bad[k].shape))
        with pytest.raises(ValueError, match=rf"^record array {what} has shape "
                                             rf"{got}, expected {want}$"):
            run_cell(p, xs, record=bad)
    with pytest.raises(ValueError, match=r"record array H has shape \(5, 5\), "
                                         r"expected \(5, 2, 5\)"):
        run_cell(p, xs, record=[a if a is None else a[:, 0] for a in good])


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


def test_bidirectional_output_is_ordered_concatenation():
    p_fwd = random_cell("lstm6", 3, 5, seed=51)
    p_bwd = random_cell("lstm6", 3, 5, seed=52)
    xs = make_rng(510).uniform(-1, 1, size=(7, 3))
    model = bidirectional_model(p_fwd, p_bwd)
    y_raw, y, _ = model.forward(xs)
    assert y.shape == (10,)
    h_f, _, _ = run_cell(p_fwd, xs)
    h_b, _, _ = run_cell(p_bwd, xs[::-1])
    npt.assert_array_equal(y[:5], h_f)
    npt.assert_array_equal(y[5:], h_b)
    npt.assert_array_equal(y_raw, output_layer_apply(model.out, y))


def test_bidirectional_palindrome_halves_agree():
    p = random_cell("lstm_c6", 2, 4, seed=53)
    half = make_rng(530).uniform(-1, 1, size=(3, 2))
    xs = np.concatenate([half, half[::-1]])  # palindromic in time
    _, y, _ = bidirectional_model(p, p).forward(xs)
    npt.assert_array_equal(y[:4], y[4:])


def test_bidirectional_width_doubles():
    p_fwd = random_cell("lstm6", 4, 128, seed=54)
    p_bwd = random_cell("lstm6", 4, 128, seed=55)
    xs = make_rng(540).uniform(-1, 1, size=(3, 4))
    assert bidirectional_model(p_fwd, p_bwd).forward(xs)[1].shape == (256,)


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
        npt.assert_array_equal(getattr(a, name), getattr(b, name))
    for name in ("b_i", "b_f", "b_o", "b_c"):
        npt.assert_array_equal(getattr(a, name), np.zeros(4))
    assert random_cell("lstm_c6", 3, 4, seed=62).u_c.shape == (4,)
    with pytest.raises(ValueError, match="rng"):
        init_cell("lstm6", 3, 4)


def test_init_cell_draws_tensors_in_declared_order():
    # both slim variants draw W_c first, so equal seeds share it exactly
    a = random_cell("lstm6", 5, 3, seed=63)
    b = random_cell("lstm_c6", 5, 3, seed=63)
    npt.assert_array_equal(a.W_c, b.W_c)


def test_cell_params_shape_validation():
    with pytest.raises(ValueError):
        CellParams(variant="lstm6", m=3, n=2, W_c=np.zeros((2, 4)),
                   U_c=np.zeros((2, 2)), b_c=np.zeros(2))
    with pytest.raises(ValueError, match="variant"):
        CellParams(variant="gru", m=3, n=2)


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
    h, c, _ = lstm6_step(p, *operands(p, np.zeros(2)), np.zeros(2), np.ones(2))
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
