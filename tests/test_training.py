"""Training-stack checks: loss values and gradients, backpropagation
against the complex-step gradient oracle, optimizer update rules against
scalar transcriptions, and epoch-level determinism."""

import errno
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from slimrnn.cells import (ADAPTIVE_FIELDS, VARIANTS, gate_width, init_cell,
                           init_output, input_term, lstm6_step, output_layer_apply,
                           record_arrays, record_shapes, run_cell, run_steps,
                           stack_gates)
from slimrnn import cells, training
from slimrnn.data import (EmbeddingTable, PAD_INDEX, SequenceBatch, embed_lookup,
                          init_embedding)
from slimrnn.harness import _bare_names
from slimrnn.numerics import ACTIVATIONS, activate, activate_grad_from_output, make_rng
from slimrnn.training import (
    MetricsRecord,
    OptimizerState,
    SequenceClassifier,
    evaluate,
    finite_difference_model,
    gradient_rel_error,
    loss_eval,
    model_from_arrays,
    model_gradients,
    model_spec,
    optimizer_step,
    train_epoch,
    _backward_cell,
    _cs_activate,
    _cs_batch_loss,
    _cs_losses,
)

from conftest import helper_walks, recorded

GRAD_TOL = 1e-6  # max relative error allowed between routes


def small_model(variant, m, n, seed, act="sigmoid", vocab=7, out_dim=1,
                trainable_emb=True, bidirectional=False):
    rng = make_rng(seed)
    emb = init_embedding(rng, vocab, m, trainable=trainable_emb)
    cell = init_cell(variant, m, n, act, 0.59, rng)
    cell_bwd = init_cell(variant, m, n, act, 0.59, rng) if bidirectional else None
    out = init_output(rng, 2 * n if bidirectional else n, out_dim)
    return SequenceClassifier(cell=cell, out=out, emb=emb, cell_bwd=cell_bwd)


def token_batch(seed, B, T, vocab=7, n_classes=2):
    rng = make_rng(seed)
    return SequenceBatch(tokens=rng.integers(0, vocab, size=(B, T)),
                         labels=rng.integers(0, n_classes, size=B),
                         n_classes=n_classes)


# --------------------------------------------------------------------------
# Losses.
# --------------------------------------------------------------------------

def test_bce_frozen_values():
    (loss,), grad = loss_eval("bce", np.array([[0.0]]), np.array([1]))
    assert abs(loss - math.log(2.0)) < 1e-15
    npt.assert_allclose(grad, [[-0.5]], rtol=0, atol=1e-15)
    (loss0,), grad0 = loss_eval("bce", np.array([[0.0]]), np.array([0]))
    assert abs(loss0 - math.log(2.0)) < 1e-15
    npt.assert_allclose(grad0, [[0.5]], rtol=0, atol=1e-15)


def test_cce_frozen_values():
    (loss,), grad = loss_eval("cce", np.zeros((1, 3)), np.array([0]))
    assert abs(loss - math.log(3.0)) < 1e-15
    npt.assert_allclose(grad, [[1 / 3 - 1, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)


def test_loss_input_validation():
    with pytest.raises(ValueError, match=r"bce label 2 outside \[0, 2\)"):
        loss_eval("bce", np.array([[0.0]]), np.array([2]))
    with pytest.raises(ValueError, match=r"bce label -1 outside \[0, 2\)"):
        loss_eval("bce", np.array([[0.0]]), np.array([-1]))
    # a label is a class index: a float one is refused, even a whole-valued one
    with pytest.raises(ValueError, match=r"integer array of labels, got float64 \(1,\)"):
        loss_eval("bce", np.array([[0.0]]), np.array([0.5]))
    with pytest.raises(ValueError, match=r"integer array of labels, got float64"):
        loss_eval("cce", np.zeros((1, 3)), np.array([1.0]))
    with pytest.raises(ValueError, match=r"\(B, 1\)"):
        loss_eval("bce", np.zeros((1, 2)), np.array([0]))
    with pytest.raises(ValueError, match=r"cce label 3 outside \[0, 3\)"):
        loss_eval("cce", np.zeros((1, 3)), np.array([3]))
    with pytest.raises(ValueError, match=r"cce label -1 outside \[0, 3\)"):
        loss_eval("cce", np.zeros((2, 3)), np.array([0, -1]))
    with pytest.raises(ValueError):
        loss_eval("mse", np.zeros((1, 1)), np.array([0]))
    # one sample is a batch of one: a 1-D row and a scalar label are refused
    with pytest.raises(ValueError, match=r"\(B, 1\) rows, got \(1,\)"):
        loss_eval("bce", np.array([0.0]), np.array([1]))
    with pytest.raises(ValueError, match=r"\(B, k\) rows, got \(3,\)"):
        loss_eval("cce", np.zeros(3), np.array([0]))
    with pytest.raises(ValueError, match=r"\(1,\) integer array of labels, got int64 \(\)"):
        loss_eval("cce", np.zeros((1, 3)), np.array(1))
    with pytest.raises(ValueError, match=r"\(2,\) integer array of labels, got int64 \(1,\)"):
        loss_eval("cce", np.zeros((2, 3)), np.array([1]))


def test_losses_nonnegative_and_clamped():
    rng = make_rng(1200)
    for _ in range(200):
        raw = rng.uniform(-30, 30, size=(1, 1))
        (loss,), _ = loss_eval("bce", raw, rng.integers(0, 2, size=1))
        assert loss >= 0.0
    # perfect prediction comes arbitrarily close to zero loss
    (loss,), _ = loss_eval("bce", np.array([[40.0]]), np.array([1]))
    assert 0.0 <= loss < 1e-11
    # the clamp keeps a hopeless prediction finite
    (loss,), _ = loss_eval("bce", np.array([[-1000.0]]), np.array([1]))
    assert np.isfinite(loss) and loss <= -math.log(1e-12) + 1e-9
    for k in (2, 5):
        (loss,), _ = loss_eval("cce", rng.uniform(-5, 5, size=(1, k)), np.array([0]))
        assert loss > 0.0


@pytest.mark.parametrize("kind,k", [("bce", 1), ("cce", 4)])
def test_loss_over_a_batch_axis_equals_per_row_losses(kind, k):
    rng = make_rng(1250)
    raw = rng.uniform(-4, 4, size=(7, k))
    labels = rng.integers(0, 2 if kind == "bce" else k, size=7)
    losses, grads = loss_eval(kind, raw, labels)
    assert losses.shape == (7,) and grads.shape == (7, k)
    for b in range(7):
        (loss,), grad = loss_eval(kind, raw[b:b + 1], labels[b:b + 1])
        assert losses[b] == loss
        npt.assert_array_equal(grads[b:b + 1], grad)


@pytest.mark.parametrize("kind,k", [("bce", 1), ("cce", 4)])
def test_loss_gradient_matches_finite_differences(kind, k):
    rng = make_rng(1300)
    eps = 1e-6
    for _ in range(10):
        raw = rng.uniform(-3, 3, size=(1, k))
        y = rng.integers(0, 2 if kind == "bce" else k, size=1)
        _, grad = loss_eval(kind, raw, y)
        for j in range(k):
            up, dn = raw.copy(), raw.copy()
            up[0, j] += eps
            dn[0, j] -= eps
            fd = (loss_eval(kind, up, y)[0][0] - loss_eval(kind, dn, y)[0][0]) / (2 * eps)
            assert abs(grad[0, j] - fd) < 1e-9


# --------------------------------------------------------------------------
# The complex-step methodology itself, on a closed-form problem.
# --------------------------------------------------------------------------

def test_the_complex_step_recovers_a_closed_form_gradient():
    """0.5 * ||W x - y||^2 has gradient (W x - y) x^T; the complex step the
    oracle takes, Im f(W + i h E_rc) / h at h = 1e-30, must recover it to
    rounding."""
    rng = make_rng(1400)
    W = rng.uniform(-1, 1, size=(3, 4))
    x = rng.uniform(-1, 1, 4)
    y = rng.uniform(-1, 1, 3)

    def f(Wm):
        r = Wm @ x - y
        return 0.5 * (r @ r)  # analytic: r @ r, not |r|^2

    analytic = np.outer(W @ x - y, x)
    cs = np.zeros_like(W)
    for r in range(3):
        for c in range(4):
            step = W.astype(complex)
            step[r, c] += 1e-30j
            cs[r, c] = f(step).imag / 1e-30
    npt.assert_allclose(cs, analytic, rtol=1e-14, atol=1e-16)


# --------------------------------------------------------------------------
# Backpropagation vs the oracle.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_bptt_matches_oracle(variant, act):
    for seed in range(2):
        rng = make_rng(2000 + seed)
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        T = int(rng.integers(2, 5))
        model = small_model(variant, m, n, seed=2100 + seed, act=act)
        batch = token_batch(2200 + seed, B=2, T=T)
        _, analytic = model_gradients(model, batch, "bce")
        numeric = finite_difference_model(model, batch, "bce")
        assert set(analytic) == set(numeric)
        for name in analytic:
            err = gradient_rel_error(analytic[name], numeric[name])
            assert err <= GRAD_TOL, f"{variant}/{act}/{name}: rel err {err}"


def test_bptt_matches_oracle_multiclass():
    model = small_model("lstm6", 3, 4, seed=2300, out_dim=3)
    batch = token_batch(2301, B=3, T=3, n_classes=3)
    _, analytic = model_gradients(model, batch, "cce")
    numeric = finite_difference_model(model, batch, "cce")
    for name in analytic:
        err = gradient_rel_error(analytic[name], numeric[name])
        assert err <= GRAD_TOL, f"{name}: rel err {err}"


def test_bptt_matches_oracle_bidirectional():
    model = small_model("lstm_c6", 3, 4, seed=2400, bidirectional=True)
    batch = token_batch(2401, B=2, T=4)
    _, analytic = model_gradients(model, batch, "bce")
    numeric = finite_difference_model(model, batch, "bce")
    assert any(k.startswith("bwd.") for k in analytic)
    for name in analytic:
        err = gradient_rel_error(analytic[name], numeric[name])
        assert err <= GRAD_TOL, f"{name}: rel err {err}"


@pytest.mark.parametrize("variant,act,loss_kind,k",
                         [(v, a, "bce", 1) for v in VARIANTS
                          for a in ("sigmoid", "tanh")] + [("lstm", "tanh", "cce", 3)])
def test_stacked_directions_match_oracle_over_chunks(monkeypatch, variant, act,
                                                      loss_kind, k):
    # both directions step in one call per sample-step, over 2-row chunks
    # and a short last one
    B, T = 5, 4
    model = small_model(variant, 3, 4, seed=2410, act=act, out_dim=k, bidirectional=True)
    batch = token_batch(2411, B, T, n_classes=max(k, 2))
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, 2))
    _, analytic = model_gradients(model, batch, loss_kind)
    numeric = finite_difference_model(model, batch, loss_kind)
    assert set(analytic) == set(numeric)
    for name in analytic:
        err = gradient_rel_error(analytic[name], numeric[name])
        assert err <= GRAD_TOL, f"{variant}/{act}/{loss_kind}/{name}: rel err {err}"


def test_bptt_matches_oracle_without_embedding():
    # fixed float inputs: a frozen table whose rows 1..6 are the two
    # samples' three steps, read as tokens 1..6
    rng = make_rng(2500)
    cell = init_cell("srnn", 3, 4, "tanh", 0.59, rng)
    out = init_output(rng, 4, 1)
    E = np.concatenate([np.zeros((1, 3)), rng.uniform(-1, 1, size=(6, 3))])
    model = SequenceClassifier(cell=cell, out=out, emb=EmbeddingTable(E, trainable=False))
    batch = SequenceBatch(tokens=np.arange(1, 7).reshape(2, 3), labels=np.array([0, 1]))
    _, analytic = model_gradients(model, batch, "bce")
    assert "emb.E" not in analytic
    numeric = finite_difference_model(model, batch, "bce")
    for name in analytic:
        err = gradient_rel_error(analytic[name], numeric[name])
        assert err <= GRAD_TOL, f"{name}: rel err {err}"


def test_single_step_recurrent_gradients_are_zero():
    # with h_0 = 0 and T = 1 the recurrent tensors never touch the loss
    recurrent = {"srnn": ["W_hh"], "lstm": ["U_i", "U_f", "U_o", "U_c"],
                 "lstm6": ["U_c"], "lstm_c6": ["u_c"]}
    for variant, names in recurrent.items():
        model = small_model(variant, 3, 4, seed=2700)
        batch = token_batch(2701, B=2, T=1)
        _, grads = model_gradients(model, batch, "bce")
        for name in names:
            npt.assert_array_equal(grads[f"fwd.{name}"],
                                   np.zeros_like(grads[f"fwd.{name}"]),
                                   err_msg=f"{variant}.{name}")


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_flushes_an_underflowed_gradient_to_zero(variant):
    """A carried gradient that decays past float64's normal range stops at
    exact zeros instead of passing through subnormal values: every step's
    input gradient is either zero, in an unbroken run from the start, or
    far above the subnormal range."""
    rng = make_rng(2750)
    p = init_cell(variant, 3, 4, "sigmoid", 0.01, rng)
    for name in ADAPTIVE_FIELDS[variant][1::3]:  # shrink the recurrent gain
        p.tensors[name][...] *= 1e-3
    if variant == "lstm":
        p.tensors["b_f"][...] = -30.0  # forget gate ~1e-13: dc decays as fast
    xs = rng.uniform(-1.0, 1.0, size=(300, 1, 3))
    _, _, stacks = recorded(p, xs)
    grads = {name: np.zeros_like(p.tensors[name])
             for name in ADAPTIVE_FIELDS[variant]}
    dxs = _backward_cell(p, xs, stacks, np.ones((1, 4)), grads, "", True,
                         stack_gates(p), np.empty((len(xs), 1, gate_width(p))))
    size = np.abs(dxs[:, 0]).max(axis=1)
    flushed = int(np.argmax(size > 0))  # steps [0, flushed) were flushed
    assert 0 < flushed < len(xs) - 1, variant
    assert size[flushed:].min() > 1e-200, variant
    for name, g in grads.items():
        assert np.all((g == 0) | (np.abs(g) > 1e-200)), f"{variant}.{name}"


def test_lstm_c6_flushes_from_the_step_the_underflow_rule_names():
    """The carried gradient is zeroed from the latest step whose squared norm
    is below _UNDERFLOW: the input gradient's first non-zero step is the one
    after it. That step comes from an unflushed reverse pass written out here,
    whose carried gradient at the step left unzeroed holds entries near 1e-155."""
    rng = make_rng(2750)
    p = init_cell("lstm_c6", 3, 4, "sigmoid", 0.01, rng)
    p.tensors["u_c"][...] *= 1e-3
    xs = rng.uniform(-1.0, 1.0, size=(300, 1, 3))
    _, _, stacks = recorded(p, xs)
    H = stacks[0][:, 0].copy()  # h_0 ... h_T
    W, u, b = (p.tensors[name] for name in ("W_c", "u_c", "b_c"))
    s = 1.0 / (1.0 + np.exp(-(xs[:, 0] @ W.T + u * H[:-1] + b)))
    da = s * (1.0 - s)  # step t's candidate derivative
    dh_dc = H[1:] * (1.0 - H[1:])  # sigmoid'(c_{t+1}) from h_{t+1}
    dc = np.empty_like(dh_dc)  # dc[t]: the loss's gradient at c_{t+1}, dh_T = 1
    dc[-1] = dh_dc[-1]
    for t in range(len(xs) - 2, -1, -1):
        dc[t] = dc[t + 1] * (p.forget_const + u * da[t + 1] * dh_dc[t])
    latest = max(t for t in range(len(xs)) if dc[t] @ dc[t] < training._UNDERFLOW)
    assert 0 < latest < len(xs) - 1
    assert 1e-170 < np.abs(dc[latest]).max() < 1e-150
    grads = {name: np.zeros_like(p.tensors[name]) for name in ADAPTIVE_FIELDS["lstm_c6"]}
    dxs = _backward_cell(p, xs, stacks, np.ones((1, 4)), grads, "", True,
                         stack_gates(p), np.empty((len(xs), 1, gate_width(p))))
    assert np.flatnonzero(np.abs(dxs[:, 0]).max(axis=1) > 0)[0] == latest + 1


def test_gradient_sets_have_no_gate_entries_and_f_is_live():
    model = small_model("lstm6", 3, 4, seed=2800)
    batch = token_batch(2801, B=2, T=3)
    loss_a, grads = model_gradients(model, batch, "bce")
    assert set(grads) == {"emb.E", "fwd.W_c", "fwd.U_c", "fwd.b_c",
                          "out.W_hy", "out.b_y"}
    # the forget constant is a live hyper-parameter, not a tensor: nudging
    # it changes the loss without changing the gradient key set
    model.cell.forget_const = 0.61
    loss_b, grads_b = model_gradients(model, batch, "bce")
    assert loss_a != loss_b
    assert set(grads_b) == set(grads)

    # gradcheck reports and corrupts a one-cell model's tensors by bare name
    assert set(_bare_names(grads)) == {"E", "W_c", "U_c", "b_c", "W_hy", "b_y"}


def test_oracle_wrapper_uses_bare_names():
    model = small_model("lstm_c6", 3, 3, seed=2900)
    batch = token_batch(2901, B=1, T=2)
    numeric = _bare_names(finite_difference_model(model, batch, "bce"))
    assert set(numeric) == {"E", "W_c", "u_c", "b_c", "W_hy", "b_y"}


def cs_params(model):
    """Every tensor in complex128 with a size-1 perturbation axis."""
    return {k: np.asarray(v, dtype=complex)[None]
            for k, v in model.param_arrays(include_frozen=True).items()}


@pytest.mark.parametrize("block", [1, 3])
def test_oracle_result_does_not_depend_on_the_block_size(monkeypatch, block):
    # a block of the flat vector spans tensors: at 3 some blocks straddle
    # two of them, and the last is short
    model = small_model("lstm", 3, 4, seed=2910, act="tanh", out_dim=3,
                        bidirectional=True)
    batch = token_batch(2911, B=3, T=3, n_classes=3)
    want = finite_difference_model(model, batch, "cce")
    monkeypatch.setattr(training, "FD_BLOCK", block)
    got = finite_difference_model(model, batch, "cce")
    assert set(got) == set(want)
    for name in want:
        npt.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("inputs", ["trainable", "frozen"])
@pytest.mark.parametrize("loss_kind", ["bce", "cce"])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_entry_per_pass_gives_the_bits_of_the_default_block(
        monkeypatch, variant, bidirectional, loss_kind, inputs):
    # at the default FD_BLOCK one pass perturbs every entry of these nets;
    # at 1 each entry gets a pass of its own
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, 2, 2, seed=3800, act="tanh", out_dim=k,
                        trainable_emb=inputs == "trainable", bidirectional=bidirectional)
    for B in (1, 3):
        batch = token_batch(3801 + B, B=B, T=2, n_classes=max(k, 2))
        want = finite_difference_model(model, batch, loss_kind)
        with monkeypatch.context() as mp:
            mp.setattr(training, "FD_BLOCK", 1)
            got = finite_difference_model(model, batch, loss_kind)
        assert [(name, g.tobytes()) for name, g in got.items()] == \
            [(name, g.tobytes()) for name, g in want.items()], B


def test_oracle_entry_is_the_complex_step_of_one_batch_loss():
    model = small_model("lstm6", 3, 4, seed=2920, bidirectional=True)
    batch = token_batch(2921, B=3, T=4)
    numeric = finite_difference_model(model, batch, "bce")
    A = cs_params(model)
    for name, entry in (("emb.E", (4, 1)), ("bwd.U_c", (2, 3)), ("out.W_hy", (0, 5))):
        keep = A[name][(0,) + entry]
        A[name][(0,) + entry] = keep + 1e-30j
        loss = _cs_batch_loss(model, A, batch, "bce")
        A[name][(0,) + entry] = keep
        assert loss.shape == (1,)
        assert numeric[name][entry] == loss[0].imag / 1e-30, name


@pytest.mark.parametrize("seed", [2926, 2927, 2928])
def test_oracle_batch_loss_adds_the_samples_in_order(seed):
    # np.sum's pairwise order changes the last bits for some of these batches
    model = small_model("srnn", 3, 4, seed=2925, out_dim=3)
    batch = token_batch(seed, B=16, T=3, n_classes=3)
    A = cs_params(model)
    A["fwd.W_hh"] = A["fwd.W_hh"] + 1e-30j  # an imaginary part to add too
    (losses,) = _cs_losses(model, A, batch, "cce")
    total = np.complex128(0.0)
    for loss in losses:
        total += loss
    assert _cs_batch_loss(model, A, batch, "cce")[0] == total / len(batch)


def test_oracle_skips_the_padding_row_and_a_frozen_embedding():
    batch = token_batch(2931, B=3, T=4)
    batch.tokens[:, 0] = PAD_INDEX
    numeric = finite_difference_model(small_model("srnn", 3, 4, seed=2930),
                                      batch, "bce")
    npt.assert_array_equal(numeric["emb.E"][PAD_INDEX], np.zeros(3))
    used = np.unique(batch.tokens[batch.tokens != PAD_INDEX])
    assert np.all(numeric["emb.E"][used] != 0.0)
    frozen = small_model("srnn", 3, 4, seed=2930, trainable_emb=False)
    assert "emb.E" not in finite_difference_model(frozen, batch, "bce")


def test_oracle_truncation_error_shrinks_quadratically(monkeypatch):
    """The complex step has O(h^2) truncation error, so at steps large
    enough to show it, doubling h should roughly quadruple the gap to the
    analytic gradient."""
    model = small_model("lstm6", 3, 3, seed=2600, act="tanh")
    batch = token_batch(2601, B=2, T=3)
    _, analytic = model_gradients(model, batch, "bce")

    def gap(h):
        monkeypatch.setattr(training, "_STEP", h)
        numeric = finite_difference_model(model, batch, "bce")
        return math.sqrt(sum(float(np.sum((analytic[k] - numeric[k]) ** 2))
                             for k in analytic))

    ratio = gap(2e-2) / gap(1e-2)
    assert 3.0 < ratio < 5.5, f"error ratio {ratio} not ~4"


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_the_oracle_activations_extend_the_engine_ones(kind):
    # on the real line each is the engine's activation, with no overflow
    # where exp(|x|) would, and its complex step is the derivative to
    # rounding: against closed forms in e = exp(-|x|), since the engine's
    # y (1 - y) and 1 - y^2 lose digits to cancellation as y saturates
    x = np.concatenate([np.linspace(-6.0, 6.0, 49), [-800.0, -40.0, 40.0, 800.0]])
    y = activate(kind, x.copy())
    e = np.exp(-np.abs(x))
    slope = {"sigmoid": e / (1.0 + e) ** 2, "tanh": 4.0 * e * e / (1.0 + e * e) ** 2,
             "relu": activate_grad_from_output("relu", y)}[kind]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        real = _cs_activate(kind, x.astype(complex))
        stepped = _cs_activate(kind, x + 1e-30j)
    assert np.all(real.imag == 0.0)
    npt.assert_allclose(real.real, y, rtol=1e-15, atol=1e-300)
    npt.assert_allclose(stepped.imag / 1e-30, slope, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("loss_kind", ["bce", "cce"])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_oracle_transcription_scores_each_sample_as_the_engine_does(
        variant, bidirectional, loss_kind):
    # with no imaginary part the complex transcription is the engine's
    # forward pass and loss, written apart from it: rounding is all that
    # may differ, for every activation
    k = 1 if loss_kind == "bce" else 3
    batch = token_batch(2951, B=5, T=4, n_classes=max(k, 2))
    for act in ACTIVATIONS:
        model = small_model(variant, 3, 4, seed=2950, act=act, out_dim=k,
                            bidirectional=bidirectional)
        y_raw, _ = model.forward(embed_lookup(model.emb, batch.tokens.T))
        want, _ = loss_eval(loss_kind, y_raw, batch.labels)
        (got,) = _cs_losses(model, cs_params(model), batch, loss_kind)
        assert np.all(got.imag == 0.0), act
        npt.assert_allclose(got.real, want, rtol=1e-13, atol=0, err_msg=act)


def test_oracle_memory_stays_small_at_the_gradcheck_caps():
    # every pass runs in this process, which tracemalloc sees
    model = small_model("lstm", 8, 8, seed=2940, bidirectional=True)
    batch = token_batch(2941, B=8, T=5)
    tracemalloc.start()
    try:
        finite_difference_model(model, batch, "bce")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_zero_net_symmetric_batch_has_zero_bias_gradient():
    # all-zero weights predict 0.5 everywhere; with labels split evenly
    # the output-bias pulls cancel exactly
    model = small_model("lstm", 3, 4, seed=3000)
    for arr in model.param_arrays().values():
        arr[...] = 0.0
    batch = SequenceBatch(tokens=np.full((2, 3), 2, dtype=np.int64),
                          labels=np.array([0, 1]))
    _, grads = model_gradients(model, batch, "bce")
    npt.assert_array_equal(grads["out.b_y"], np.zeros(1))


def test_padding_row_gradient_is_always_zero():
    model = small_model("lstm6", 3, 4, seed=3100)
    batch = SequenceBatch(tokens=np.array([[0, 0, 2, 3], [0, 4, 5, 6]]),
                          labels=np.array([1, 0]))
    _, grads = model_gradients(model, batch, "bce")
    npt.assert_array_equal(grads["emb.E"][0], np.zeros(3))
    assert np.any(grads["emb.E"][2:] != 0.0)


def test_frozen_embedding_is_excluded_and_untouched():
    model = small_model("lstm6", 3, 4, seed=3200, trainable_emb=False)
    before = model.emb.E.copy()
    batch = token_batch(3201, B=4, T=3)
    _, grads = model_gradients(model, batch, "bce")
    assert "emb.E" not in grads
    opt = OptimizerState(kind="adam", eta=0.05)
    optimizer_step(opt, model.param_arrays(), grads)
    npt.assert_array_equal(model.emb.E, before)


def test_empty_batch_rejected():
    model = small_model("lstm6", 3, 4, seed=3300)
    empty = SequenceBatch(tokens=np.zeros((0, 3), dtype=np.int64),
                          labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        model_gradients(model, empty, "bce")
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, empty, "bce")


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_empty_sequence_rejected_by_both_gradient_routes(variant, bidirectional):
    # without their own checks, numpy's reshape and broadcast errors
    # surfaced from inside each route
    model = small_model(variant, 3, 4, seed=3305, bidirectional=bidirectional)
    empty = SequenceBatch(tokens=np.zeros((2, 0), dtype=np.int64),
                          labels=np.array([0, 1]))
    for route in (model_gradients, finite_difference_model):
        with pytest.raises(ValueError, match="empty sequence"):
            route(model, empty, "bce")


def test_invalid_target_rejected_by_model_gradients():
    # both gradient routes refuse the same batches: unchecked, the oracle
    # would weigh log(p) by a bce label of 2 and read a cce label of -1 as
    # the last class
    batch = token_batch(3311, B=3, T=3)
    for loss_kind, k, label in (("bce", 1, 2), ("cce", 2, 2), ("cce", 3, -1)):
        model = small_model("lstm6", 3, 4, seed=3310, out_dim=k)
        batch.labels[1] = label
        bounds = fr"\[0, {max(k, 2)}\)"
        for route in (model_gradients, finite_difference_model):  # one reason
            with pytest.raises(ValueError, match=fr"{loss_kind} label {label} outside {bounds}"):
                route(model, batch, loss_kind)
    floats = SequenceBatch(tokens=batch.tokens, labels=np.array([0.0, 1.0, 1.0]))
    for route in (model_gradients, finite_difference_model):
        with pytest.raises(ValueError, match="integer"):
            route(small_model("lstm6", 3, 4, seed=3310), floats, "bce")


# --------------------------------------------------------------------------
# Chunked reverse pass.
# --------------------------------------------------------------------------

def per_sample_gradients(model, batch, loss_kind):
    """Mean loss and gradients one sample at a time, each sample a batch of
    one through its own recorded forward and _backward_cell calls, each reverse
    pass on a fresh layout and work array: the chunked pass's reference."""
    grads = {k: np.zeros_like(v) for k, v in model.param_arrays().items()}
    need_dx = "emb.E" in grads
    n = model.cell.n

    def backward(cell, xs, stacks, dh, prefix):
        return _backward_cell(cell, xs, stacks, dh, grads, prefix, need_dx,
                              stack_gates(cell), np.empty((len(xs), 1, gate_width(cell))))

    total = 0.0
    for i, label in enumerate(batch.labels):
        xs = model.emb.E[batch.tokens[i]][:, None]
        h, _, stacks = recorded(model.cell, xs)
        if model.bidirectional:
            h_b, _, stacks_b = recorded(model.cell_bwd, xs[::-1])
            h = np.concatenate([h, h_b], axis=-1)
        (loss,), dy = loss_eval(loss_kind, output_layer_apply(model.out, h), [label])
        total += loss
        grads["out.W_hy"] += np.outer(dy, h)
        grads["out.b_y"] += dy[0]
        dh = dy @ model.out.W_hy
        dxs = backward(model.cell, xs, stacks, dh[:, :n], "fwd.")
        if model.bidirectional:
            dx_b = backward(model.cell_bwd, xs[::-1], stacks_b, dh[:, n:], "bwd.")
            if need_dx:
                dxs = dxs + dx_b[::-1]
        if need_dx:
            np.add.at(grads["emb.E"], batch.tokens[i], dxs[:, 0])
    for g in grads.values():
        g /= len(batch)
    if need_dx:
        grads["emb.E"][PAD_INDEX] = 0.0
    return total / len(batch), grads


def chunk_budget(model, T, rows):
    """A CACHE_BUDGET that gives chunks of exactly `rows` samples."""
    return rows * training._row_bytes(model, T)


@pytest.mark.parametrize("variant", VARIANTS)
def test_directions_order_the_readout_and_the_tensors(variant):
    # model_gradients pairs each direction with its H[-1] columns of the
    # readout and its tensor-name prefix by position alone
    uni = small_model(variant, 3, 4, seed=3317)
    assert len(uni.directions) == 1 and uni.directions[0][0] is uni.cell
    model = small_model(variant, 3, 4, seed=3318, act="tanh", bidirectional=True)
    (fwd, *f), (bwd, *b) = model.directions
    assert fwd is model.cell and bwd is model.cell_bwd
    assert (f, b) == (["fwd.", 1], ["bwd.", -1])
    xs = make_rng(3319).uniform(-1.0, 1.0, (6, 2, 3))
    _, h = model.forward(xs)
    npt.assert_array_equal(h, np.concatenate(
        [run_cell(cell, xs[::step]) for cell, _, step in model.directions], axis=-1))
    params = model.param_arrays()
    prefixes = dict.fromkeys(key.split(".")[0] + "." for key in params)
    assert list(prefixes) == ["emb.", *(p for _, p, _ in model.directions), "out."]
    for cell, prefix, _ in model.directions:
        for name, arr in cell.param_arrays().items():
            assert params[prefix + name] is arr


@pytest.mark.parametrize("inputs", ["trainable", "frozen"])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_model_rebuilt_from_its_arrays_holds_them_and_forwards_the_same(
        variant, bidirectional, inputs):
    model = small_model(variant, 3, 4, seed=3798, act="tanh", out_dim=3,
                        trainable_emb=inputs == "trainable", bidirectional=bidirectional)
    for cell, _, _ in model.directions:
        cell.forget_const = 0.3
    arrays = model.param_arrays(include_frozen=True)
    rebuilt = model_from_arrays(model_spec(model), arrays)
    assert model_spec(rebuilt) == model_spec(model)
    assert model_spec(model) == {"variant": variant, "m": 3, "n": 4, "activation": "tanh",
                                 "forget": 0.3, "bidirectional": bidirectional,
                                 "trainable": inputs == "trainable"}
    held = rebuilt.param_arrays(include_frozen=True)
    assert list(held) == list(arrays)
    assert all(held[name] is arr for name, arr in arrays.items())
    xs = make_rng(3799).uniform(-1.0, 1.0, (6, 2, 3))
    assert ([a.tobytes() for a in rebuilt.forward(xs)]
            == [a.tobytes() for a in model.forward(xs)])


@pytest.mark.parametrize("variant,loss_kind,bidirectional,inputs", [
    ("srnn", "bce", False, "trainable"), ("srnn", "cce", True, "vector"),
    ("lstm", "cce", True, "frozen"), ("lstm", "bce", False, "vector"),
    ("lstm6", "bce", True, "trainable"), ("lstm6", "cce", False, "vector"),
    ("lstm_c6", "cce", True, "trainable"), ("lstm_c6", "bce", False, "frozen")])
def test_chunked_gradients_match_the_per_sample_reference(
        monkeypatch, variant, loss_kind, bidirectional, inputs):
    B, T, m = 7, 6, 3
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, m, 4, seed=3320, act="tanh", out_dim=k,
                        trainable_emb=inputs == "trainable",
                        bidirectional=bidirectional)
    batch = token_batch(3321, B, T, n_classes=max(k, 2))
    if inputs == "vector":  # uniform floats, step t of sample i in row 1 + i T + t
        xs = make_rng(3322).uniform(-1.0, 1.0, (B * T, m))
        model.emb = EmbeddingTable(np.concatenate([np.zeros((1, m)), xs]), trainable=False)
        batch = SequenceBatch(tokens=np.arange(1, B * T + 1).reshape(B, T),
                              labels=batch.labels, n_classes=batch.n_classes)
    else:
        assert (batch.tokens == PAD_INDEX).any()
    want_loss, want = per_sample_gradients(model, batch, loss_kind)
    widths = []

    def spy(p, xs, stacks, dh, grads, prefix, *args):
        if prefix == "fwd.":
            widths.append(xs.shape[1])
        return _backward_cell(p, xs, stacks, dh, grads, prefix, *args)

    monkeypatch.setattr(training, "_backward_cell", spy)
    # the last input splits the batch at gate 0: this process walks rows
    # [0, 3) in chunks of 2 and 1, and a forked one, unseen by the spy, [3, 7)
    forked = [2, 1] if training._can_fork() else [2, 1, 2, 2]
    for rows, chunks, gate in ((1, [1] * 7, math.inf), (2, [2, 2, 2, 1], math.inf),
                               (3, [3, 3, 1], math.inf), (B, [B], math.inf),
                               (2, forked, 0)):
        monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, rows))
        monkeypatch.setattr(training, "FORK_MIN_SAMPLE_STEPS", gate)
        widths.clear()
        loss, grads = model_gradients(model, batch, loss_kind)
        assert widths == chunks
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(g - want[name])) <= 1e-13 * scale, (rows, name)
        if "emb.E" in grads:
            npt.assert_array_equal(grads["emb.E"][PAD_INDEX], np.zeros(m))


ACT_GRAD = {"sigmoid": lambda y: y * (1.0 - y), "tanh": lambda y: 1.0 - y * y,
            "relu": lambda y: (y > 0.0) * 1.0}


def lstm_c6_loop_gradients(model, batch, loss_kind, flushes):
    """Mean loss and gradients of an lstm_c6 model one sample and one step at
    a time, in plain numpy: dc += dh act'(c_t); dc is zeroed once its squared
    norm drops below float64's smallest normal; delta_t = dc act'(c_tilde_t);
    dh = u_c delta_t; dc *= f. Shares no backward code with the engine. Each
    (sample, direction) whose dc was zeroed is added to the set flushes."""
    grads = {k: np.zeros_like(v) for k, v in model.param_arrays().items()}
    n, T = model.cell.n, batch.T
    cells = [("fwd.", model.cell, 1)]
    if model.bidirectional:
        cells.append(("bwd.", model.cell_bwd, -1))
    grad = ACT_GRAD[model.cell.act]
    total = 0.0
    for i, label in enumerate(batch.labels):
        xs = model.emb.E[batch.tokens[i]]
        runs = [recorded(p, xs[::step, None]) for _, p, step in cells]  # a batch of one
        h = np.concatenate([h_T for h_T, _, _ in runs], axis=-1)
        (loss,), (dy,) = loss_eval(loss_kind, output_layer_apply(model.out, h), [label])
        total += loss
        grads["out.W_hy"] += np.outer(dy, h)
        grads["out.b_y"] += dy
        dh_T = model.out.W_hy.T @ dy
        for j, (prefix, p, step) in enumerate(cells):
            H, _, c_tilde = (a[:, 0] for a in runs[j][2])
            seq = xs[::step]
            dh, dc, dxs = dh_T[j * n:(j + 1) * n], np.zeros(n), np.zeros_like(seq)
            for t in range(T - 1, -1, -1):
                dc = dc + dh * grad(H[t + 1])
                if dc @ dc < np.finfo(np.float64).tiny:
                    flushes.add((i, prefix))
                    dc = np.zeros(n)
                delta = dc * grad(c_tilde[t])
                grads[prefix + "W_c"] += np.outer(delta, seq[t])
                grads[prefix + "u_c"] += delta * H[t]
                grads[prefix + "b_c"] += delta
                dxs[t] = delta @ p.tensors["W_c"]
                dh = p.tensors["u_c"] * delta
                dc = dc * p.forget_const
            if "emb.E" in grads:
                np.add.at(grads["emb.E"], batch.tokens[i], dxs[::step])
    for g in grads.values():
        g /= len(batch)
    if "emb.E" in grads:
        grads["emb.E"][PAD_INDEX] = 0.0
    return total / len(batch), grads


@pytest.mark.parametrize("T", [6, 150])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_lstm_c6_gradients_match_a_per_step_loop(monkeypatch, act, bidirectional, T):
    B = 5
    model = small_model("lstm_c6", 3, 4, seed=3324, act=act,
                        bidirectional=bidirectional)
    batch = token_batch(3325, B, T)
    if T > 100:  # dc shrinks about 100x a step: it leaves the normal range
        for cell in filter(None, (model.cell, model.cell_bwd)):
            cell.forget_const = 0.01
            cell.tensors["u_c"] *= 1e-3
    flushes = set()
    want_loss, want = lstm_c6_loop_gradients(model, batch, "bce", flushes)
    assert len(flushes) == (B * (1 + bidirectional) if T > 100 else 0)
    for rows in (1, B):
        monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, rows))
        loss, grads = model_gradients(model, batch, "bce")
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(g - want[name])) <= 1e-13 * scale, (rows, name)


def test_lstm_c6_reverse_pass_holds_at_most_three_step_arrays():
    # the running product G, the deltas D and the D * H[:-1] temporary of g_u
    T, b, m, n = 2000, 3, 4, 16
    rng = make_rng(3327)
    p = init_cell("lstm_c6", m, n, "sigmoid", 0.59, rng)
    xs = rng.uniform(-1.0, 1.0, (T, b, m))
    stacks = recorded(p, xs)[2]
    grads = {name: np.zeros_like(p.tensors[name]) for name in ADAPTIVE_FIELDS["lstm_c6"]}
    dh = rng.uniform(-1.0, 1.0, (b, n))
    peak = traced_peak(lambda: _backward_cell(p, xs, stacks, dh, grads, "", True,
                                              stack_gates(p), np.empty((T, b, n))))
    assert peak <= 3 * T * b * n * 8 + 64 * 2**10, peak


@pytest.mark.parametrize("loss_kind,bidirectional", [("bce", False), ("cce", True)])
def test_each_chunk_takes_its_losses_from_one_loss_eval_call(monkeypatch, loss_kind,
                                                             bidirectional):
    B, T = 7, 5
    k = 1 if loss_kind == "bce" else 3
    model = small_model("lstm6", 3, 4, seed=3325, act="tanh", out_dim=k,
                        bidirectional=bidirectional)
    batch = token_batch(3326, B, T, n_classes=max(k, 2))
    calls = []

    def spy(kind, y_raw, labels):
        calls.append((kind, y_raw.shape, labels.shape))
        return loss_eval(kind, y_raw, labels)

    monkeypatch.setattr(training, "loss_eval", spy)
    for rows, chunks in ((1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]), (B, [B])):
        monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, rows))
        calls.clear()
        model_gradients(model, batch, loss_kind)
        assert calls == [(loss_kind, (b, k), (b,)) for b in chunks]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_each_chunk_makes_one_readout_call(monkeypatch, bidirectional):
    B, T, k = 7, 5, 3
    model = small_model("lstm6", 3, 4, seed=3326, act="tanh", out_dim=k,
                        bidirectional=bidirectional)
    batch = token_batch(3327, B, T, n_classes=k)
    calls = []

    def spy(out, h):
        calls.append(h.shape)
        return output_layer_apply(out, h)

    monkeypatch.setattr(training, "output_layer_apply", spy)
    width = len(model.directions) * 4
    for rows, chunks in ((1, [1] * 7), (3, [3, 3, 1]), (B, [B])):
        monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, rows))
        calls.clear()
        model_gradients(model, batch, "cce")
        assert calls == [(b, width) for b in chunks]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_each_chunk_projects_once_per_direction_and_steps_once_per_sample_step(
        monkeypatch, bidirectional):
    B, T, m = 7, 5, 3
    model = small_model("lstm6", m, 4, seed=3342, act="tanh", bidirectional=bidirectional)
    batch = token_batch(3343, B, T)
    projections, steps, runs = [], [], []

    def project(W, b, x, out=None):
        projections.append(x.shape)
        return input_term(W, b, x, out=out)

    def step(*args, **kwargs):
        steps.append(1)
        return lstm6_step(*args, **kwargs)

    monkeypatch.setattr(training, "input_term", project)
    monkeypatch.setattr(cells, "lstm6_step", step)
    monkeypatch.setattr(training, "run_cell", lambda *args, **kwargs: runs.append(1))
    dirs = len(model.directions)
    for rows, chunks in ((1, [1] * 7), (3, [3, 3, 1]), (B, [B])):
        monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, rows))
        projections.clear()
        steps.clear()
        model_gradients(model, batch, "bce")
        assert projections == [(T, b, 1, m) for b in chunks for _ in range(dirs)]
        assert len(steps) == B * T  # one call steps every direction
    assert runs == []


@pytest.mark.parametrize("m,w", [(8, 8), (16, 32), (32, 100), (32, 400)])
@pytest.mark.parametrize("T", [1, 5, 40])
def test_a_chunk_projection_gives_each_sample_the_bits_of_its_own(m, w, T):
    # model_gradients projects a chunk's (T, b, m) inputs, in either time
    # order, as stacked 1-row products into the leading memory of its work
    # array, a direction's slot of it when there are two: column j must be
    # sample j's projection alone, bit for bit
    rng = make_rng(3344)
    W, bias = rng.uniform(-1.0, 1.0, (m, w)), rng.uniform(-1.0, 1.0, w)
    inputs = rng.uniform(-1.0, 1.0, (T, 32, m))
    for block in ((1,), (2, 1)):
        work = np.empty((T, 32, *block, w))
        for b in range(1, 33):
            X = np.ascontiguousarray(inputs[:, :b])
            for k, step in enumerate((1, -1)):
                D = training._direction(training._leading(work, b), k % block[0])
                input_term(W, bias, X[::step, :, None, :], out=D[:, :, None])
                for j in range(b):
                    want = input_term(W, bias, X[::step, j:j + 1])
                    npt.assert_array_equal(D[:, j:j + 1], want,
                                           err_msg=f"{block} b={b} j={j} {step}")


@pytest.mark.parametrize("trainable_emb,bidirectional", [(True, False), (False, True)])
def test_gradients_are_disjoint_views_named_and_shaped_like_the_tensors(
        trainable_emb, bidirectional):
    model = small_model("lstm", 3, 4, seed=3334, trainable_emb=trainable_emb,
                        bidirectional=bidirectional)
    _, grads = model_gradients(model, token_batch(3335, 5, 4), "bce")
    params = model.param_arrays()
    assert list(grads) == list(params)
    assert all(grads[key].shape == theta.shape for key, theta in params.items())
    before = {key: g.copy() for key, g in grads.items()}
    for key, g in grads.items():
        assert g.base is not None  # a view, into one buffer
        g[...] = np.nan
        for other, h in grads.items():
            if other != key:
                npt.assert_array_equal(h, before[other], err_msg=f"{key} wrote {other}")
        g[...] = before[key]


@pytest.mark.parametrize("variant,bidirectional", [("lstm", False), ("lstm6", True)])
@pytest.mark.parametrize("B", [1, 9])
def test_each_direction_is_laid_out_once_per_call(monkeypatch, variant, bidirectional, B):
    # once transposed for the forward and once untransposed for _backward_cell
    T = 5
    model = small_model(variant, 3, 4, seed=3328, act="tanh", bidirectional=bidirectional)
    batch = token_batch(3329, B, T)
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, 2))
    laid_out = []

    def spy(p, transposed=False):
        laid_out.append((id(p), transposed))
        return stack_gates(p, transposed)

    monkeypatch.setattr("slimrnn.training.stack_gates", spy)
    monkeypatch.setattr("slimrnn.cells.stack_gates", spy)
    model_gradients(model, batch, "bce")
    assert sorted(laid_out) == sorted((id(cell), transposed)
                                      for cell, _, _ in model.directions
                                      for transposed in (True, False))


@pytest.mark.parametrize("variant,bidirectional",
                         [(v, False) for v in VARIANTS] + [("lstm6", True)])
def test_the_work_array_is_allocated_once_per_call(monkeypatch, variant, bidirectional):
    # 2-sample chunks and a short last one: every chunk and direction writes
    # its factors into the leading memory of one array
    B, T = 9, 5
    model = small_model(variant, 3, 4, seed=3332, act="tanh", bidirectional=bidirectional)
    batch = token_batch(3333, B, T)
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, 2))
    starts = []

    def spy(p, xs, stacks, dh, grads, prefix, need_dx, gates, work):
        assert work.shape == (len(xs), xs.shape[1], gate_width(p))
        assert work.flags.c_contiguous
        starts.append(work.__array_interface__["data"][0])
        return _backward_cell(p, xs, stacks, dh, grads, prefix, need_dx, gates, work)

    monkeypatch.setattr(training, "_backward_cell", spy)
    model_gradients(model, batch, "bce")
    assert len(starts) == 5 * len(model.directions)
    assert len(set(starts)) == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_reverse_pass_given_its_work_array_allocates_only_its_input_gradient(variant):
    # besides the (T, b, m) input gradient, only per-step rows and the
    # weight-gradient blocks: no derivative factor of the stacks' size, also
    # on one direction's strided views of a two-direction chunk
    T, b, m, n = 2000, 3, 4, 16
    rng = make_rng(3334)
    p = init_cell(variant, m, n, "sigmoid", 0.59, rng)
    xs = rng.uniform(-1.0, 1.0, (T, b, m))
    stacks = recorded(p, xs)[2]
    views = []
    for a in stacks:
        views.append(None if a is None else
                     training._direction(np.empty((len(a), b, 2, 1, a.shape[-1])), 1))
        if a is not None:
            views[-1][...] = a
    dh = rng.uniform(-1.0, 1.0, (b, n))
    for arrays in (stacks, views):
        grads = {name: np.zeros_like(p.tensors[name]) for name in ADAPTIVE_FIELDS[variant]}
        work = np.empty((T, b, gate_width(p)))
        peak = traced_peak(_backward_cell, p, xs, arrays, dh, grads, "", True,
                           stack_gates(p), work)
        assert peak <= T * b * m * 8 + 64 * 2**10, peak


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_chunks_of_one_match_the_per_sample_reference_bit_for_bit(
        monkeypatch, variant, act, bidirectional):
    # the reference gives each reverse pass its own layout and work array;
    # the carried gradient underflows, so the flush fires
    B, T = 3, 150
    model = small_model(variant, 3, 4, seed=3336, act=act, bidirectional=bidirectional)
    for cell, _, _ in model.directions:
        for name in ADAPTIVE_FIELDS[variant][1::3]:  # shrink the recurrent gain
            cell.tensors[name][...] *= 1e-3
        cell.forget_const = 0.01
        if variant == "lstm":
            cell.tensors["b_f"][...] = -30.0
    batch = token_batch(3337, B, T)
    want_loss, want = per_sample_gradients(model, batch, "bce")
    flushed = []

    def spy(*args):
        dx = _backward_cell(*args)
        flushed.append(not dx[0].any() and dx.any())  # zero at the first step
        return dx

    monkeypatch.setattr(training, "_backward_cell", spy)
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, 1))
    # the chunk walk of an unsplit call, whose sums run in sample order
    monkeypatch.setattr(training, "FORK_MIN_SAMPLE_STEPS", math.inf)
    loss, grads = model_gradients(model, batch, "bce")
    assert flushed == [True] * (B * len(model.directions))
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        npt.assert_array_equal(g, want[name], err_msg=name)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunk_of_one_sample_runs_on_its_own_stacks(monkeypatch):
    # a long sequence whose stacks outweigh everything else the pass allocates
    T = 2000
    model = small_model("lstm6", 4, 16, seed=3330, act="tanh")
    batch = token_batch(3331, B=1, T=T)
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, T, 1))
    stack_bytes = training._stack_bytes(model, T)
    reference = traced_peak(per_sample_gradients, model, batch, "bce")
    peak = traced_peak(model_gradients, model, batch, "bce")
    assert peak < reference + stack_bytes / 2, (peak, reference, stack_bytes)


@pytest.mark.parametrize("variant", VARIANTS)
def test_record_shapes_are_what_run_cell_records(variant):
    # CACHE_BUDGET sizes chunks by record_shapes: it must match the stacks
    T, B = 6, 3
    model = small_model(variant, 3, 4, seed=3340, act="tanh")
    p = model.cell
    stacks = recorded(p, make_rng(3341).uniform(-1, 1, (T, B, 3)))[2]
    assert [None if a is None else a.shape for a in stacks] == list(
        record_shapes(p, T, B))
    nbytes = sum(a.nbytes for a in stacks if a is not None)
    assert nbytes == B * training._stack_bytes(model, T)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("lead", [(1,), (3,), (2, 1), (2, 3)])
def test_the_zero_start_states_are_written_once_and_kept(variant, lead):
    # record_arrays is the one writer of the zero start states: a recording
    # run_steps writes rows 1..T, _backward_cell only aux and its work array,
    # so model_gradients' chunks share stacks it never zeroes again. lead is
    # (B,) for one direction, (D, B) for D stacked directions.
    T, m, n, B = 6, 3, 4, lead[-1]
    D = lead[0] if len(lead) == 2 else 1
    rng = make_rng(3720)
    dirs = [init_cell(variant, m, n, "tanh", 0.59, rng) for _ in range(D)]
    p = dirs[0]
    layouts = [stack_gates(q, transposed=True) for q in dirs]
    xs = rng.uniform(-2, 2, (T, *lead, m))
    if D == 1:
        (W, R, b), = layouts
        terms = input_term(W, b, xs)
    else:
        R = np.stack([r for _, r, _ in layouts])
        terms = np.stack([input_term(W, b, xs[:, d])
                          for d, (W, _, b) in enumerate(layouts)], axis=1)
    stacks = record_arrays(p, T, *lead)
    starts = [a for a in stacks[:2] if a is not None]
    for a in starts:
        assert a.shape == (T + 1, *lead, n) and not a[0].any()
    run_steps(p, R, terms, stacks)
    for d, q in enumerate(dirs):
        view = [a if D == 1 or a is None else a[:, d] for a in stacks]
        grads = {name: np.zeros_like(t) for name, t in q.tensors.items()}
        _backward_cell(q, xs if D == 1 else xs[:, d], view, rng.uniform(-1, 1, (B, n)),
                       grads, "", True, stack_gates(q), np.empty((T, B, gate_width(q))))
    for a in starts:
        assert not a[0].any()
    # two alternating rows, from random start states, end with the bits of
    # a recording run from the same states
    begin = [rng.uniform(-1, 1, a.shape[1:]) for a in starts]
    recording, alternating = record_arrays(p, T, *lead), record_arrays(p, 1, *lead)
    for arrays in (recording, alternating):
        for a, v in zip(arrays, begin):
            a[0] = v
    want = run_steps(p, R, terms, recording)
    got = run_steps(p, R, terms, alternating)
    for g, w, a in zip(got, want, recording):
        if w is None:
            assert g is None and a is None
        else:
            assert g.tobytes() == w.tobytes() == a[-1].tobytes()


@pytest.mark.parametrize("variant,bidirectional",
                         [(v, False) for v in VARIANTS] + [("lstm6", True)])
def test_model_gradients_memory_stays_bounded_at_paper_shape(variant, bidirectional):
    # one sample more than a chunk holds, so a short last chunk follows a full
    # one; at a 6.75 MiB CACHE_BUDGET the peaks are srnn 7.6 MiB (6 rows), lstm
    # 7.0 (1), lstm6 6.9 (3), lstm_c6 6.7 (3) and lstm6 bidir 8.75 MiB (2; its
    # work array holds both directions' rows). A budget that gives srnn 8 rows
    # goes over the bound; it grew the paper benchmark's peak RSS 4% over a
    # 1 MiB budget.
    m, n, T = 32, 100, 500
    model = small_model(variant, m, n, seed=3354, vocab=5000,
                        bidirectional=bidirectional)
    B = training.CACHE_BUDGET // chunk_budget(model, T, 1) + 1
    batch = token_batch(3355, B, T, vocab=5000)
    peak = traced_peak(model_gradients, model, batch, "bce")
    assert peak <= 9 * 2**20, f"peak {peak / 2**20:.2f} MiB over {B} samples"


def test_evaluate_memory_stays_flat_at_paper_shape():
    # the whole sequence's (T, B, 4n) input terms would add 48.8 MiB here;
    # run_cell computes them PROJECTION_BUDGET bytes at a time
    m, n, T, B = 32, 100, 500, 32
    model = small_model("lstm", m, n, seed=3350, vocab=5000)
    batch = token_batch(3351, B, T, vocab=5000)
    peak = traced_peak(evaluate, model, batch, "bce")
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("B", [2000, 4000])
def test_evaluate_memory_stays_within_the_budget_at_desk_shape(B):
    # a slice's inputs, states and step buffers fit EVAL_BUDGET (827 samples
    # here); its readout and losses take the rest
    m, n, T = 16, 32, 40
    model = small_model("lstm6", m, n, seed=3352, act="tanh", vocab=50)
    batch = token_batch(3353, B, T, vocab=50)
    peak = traced_peak(evaluate, model, batch, "bce")
    assert peak < training.EVAL_BUDGET + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("m,n,T,B", [(16, 32, 40, 2000), (4, 100, 4, 5000)])
@pytest.mark.parametrize("variant,bidirectional",
                         [(v, False) for v in VARIANTS] + [("lstm6", True)])
def test_evaluate_memory_stays_within_the_budget_for_every_variant(variant, bidirectional,
                                                                   m, n, T, B):
    # at T = 4 the states and step buffers outweigh the inputs 19 to 75 times:
    # a budget that counted only the inputs let lstm's slices peak at 62 MiB
    model = small_model(variant, m, n, seed=3354, act="tanh", vocab=50,
                        bidirectional=bidirectional)
    batch = token_batch(3355, B, T, vocab=50)
    peak = traced_peak(evaluate, model, batch, "bce")
    assert peak <= training.EVAL_BUDGET + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_gradient_rel_error_definition():
    a = np.array([1.0, 0.0])
    b = np.array([1.0 + 1e-6, 0.0])
    want = 1e-6 / (2.0 + 1e-6)
    assert abs(gradient_rel_error(a, b) - want) < 1e-15
    # the 1e-8 floor keeps near-zero pairs from exploding
    assert gradient_rel_error(np.array([1e-12]), np.array([-1e-12])) == 2e-12 / 1e-8
    assert gradient_rel_error(np.zeros(0), np.zeros(0)) == 0.0


# --------------------------------------------------------------------------
# Optimizers.
# --------------------------------------------------------------------------

def test_sgd_step_is_plain_descent():
    opt = OptimizerState(kind="sgd", eta=0.1)
    theta = {"w": np.array([1.0, -2.0])}
    optimizer_step(opt, theta, {"w": np.array([0.5, 0.5])})
    npt.assert_allclose(theta["w"], [0.95, -2.05], rtol=0, atol=1e-16)
    # zero gradient leaves sgd parameters bit-identical
    before = theta["w"].copy()
    optimizer_step(opt, theta, {"w": np.zeros(2)})
    npt.assert_array_equal(theta["w"], before)


def test_adam_two_steps_match_scalar_transcription():
    """Descend f(theta) = theta^2 from theta = 1 at eta = 0.1 and follow
    the moment algebra by hand for two steps."""
    opt = OptimizerState(kind="adam", eta=0.1)
    theta = {"w": np.array([1.0])}

    # step 1: g = 2
    optimizer_step(opt, theta, {"w": np.array([2.0])})
    m1, v1 = 0.1 * 2.0, 0.001 * 4.0
    m1_hat, v1_hat = m1 / (1 - 0.9), v1 / (1 - 0.999)
    w1 = 1.0 - 0.1 * m1_hat / (math.sqrt(v1_hat) + 1e-8)
    assert abs(w1 - 0.9000000005) < 1e-12
    npt.assert_allclose(theta["w"], [w1], rtol=0, atol=1e-15)

    # step 2: g = 2 * w1, bias corrections now use t = 2
    g2 = 2.0 * w1
    optimizer_step(opt, theta, {"w": np.array([g2])})
    m2 = 0.9 * m1 + 0.1 * g2
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    m2_hat = m2 / (1 - 0.9 ** 2)
    v2_hat = v2 / (1 - 0.999 ** 2)
    w2 = w1 - 0.1 * m2_hat / (math.sqrt(v2_hat) + 1e-8)
    npt.assert_allclose(theta["w"], [w2], rtol=0, atol=1e-15)
    assert opt.t == 2


def test_adam_first_step_size_is_eta_regardless_of_gradient_scale():
    for g in (1e-4, 1.0, 1e4):
        opt = OptimizerState(kind="adam", eta=0.01)
        theta = {"w": np.array([0.0])}
        optimizer_step(opt, theta, {"w": np.array([g])})
        assert abs(abs(theta["w"][0]) - 0.01) < 0.01 * 0.01


def test_rmsprop_step_matches_scalar_transcription():
    opt = OptimizerState(kind="rmsprop", eta=0.05)
    theta = {"w": np.array([2.0])}
    optimizer_step(opt, theta, {"w": np.array([3.0])})
    v1 = 0.1 * 9.0
    w1 = 2.0 - 0.05 * 3.0 / (math.sqrt(v1) + 1e-8)
    npt.assert_allclose(theta["w"], [w1], rtol=0, atol=1e-15)
    optimizer_step(opt, theta, {"w": np.array([-1.0])})
    v2 = 0.9 * v1 + 0.1 * 1.0
    w2 = w1 + 0.05 * 1.0 / (math.sqrt(v2) + 1e-8)
    npt.assert_allclose(theta["w"], [w2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_zero_learning_rate_leaves_parameters_bit_identical(kind):
    opt = OptimizerState(kind=kind, eta=0.0)
    rng = make_rng(3400)
    theta = {"a": rng.uniform(-1, 1, size=(3, 2)), "b": rng.uniform(-1, 1, 4)}
    before = {k: v.copy() for k, v in theta.items()}
    for step in range(3):
        grads = {k: rng.uniform(-1, 1, size=v.shape) for k, v in theta.items()}
        optimizer_step(opt, theta, grads)
    for k in theta:
        npt.assert_array_equal(theta[k], before[k])


def test_optimizer_validation():
    with pytest.raises(ValueError, match="unknown optimizer"):
        OptimizerState(kind="adagrad", eta=0.1)
    with pytest.raises(ValueError, match=">= 0"):
        OptimizerState(kind="sgd", eta=-0.1)
    opt = OptimizerState(kind="sgd", eta=0.1)
    with pytest.raises(ValueError, match="^gradient a is missing"):
        optimizer_step(opt, {"a": np.zeros(2)}, {"b": np.zeros(2)})
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(opt, {"a": np.zeros(2)}, {"a": np.zeros(3)})


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_optimizer_rejects_a_non_finite_learning_rate(eta):
    with pytest.raises(ValueError, match=f"^learning rate must be finite, got {eta}$"):
        OptimizerState(kind="adam", eta=eta)


def per_tensor_step(kind, eta, t, params, grads, m, v):
    """One update tensor by tensor, as the rules read: the fused step's
    reference."""
    beta1, beta2 = training.ADAM_BETAS
    rho, eps = training.RMSPROP_RHO, training.OPT_EPS
    for key, theta in params.items():
        g = grads[key]
        if kind == "sgd":
            theta -= eta * g
        elif kind == "rmsprop":
            v[key] = rho * v.get(key, 0.0) + (1.0 - rho) * g * g
            theta -= eta * g / (np.sqrt(v[key]) + eps)
        else:
            m[key] = beta1 * m.get(key, 0.0) + (1.0 - beta1) * g
            v[key] = beta2 * v.get(key, 0.0) + (1.0 - beta2) * g * g
            m_hat = m[key] / (1.0 - beta1 ** t)
            v_hat = v[key] / (1.0 - beta2 ** t)
            theta -= eta * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_fused_step_matches_a_per_tensor_transcription_bit_for_bit(kind):
    rng = make_rng(3402)
    shapes = {"a": (3, 2), "b": (4,), "c": (1,)}
    theta = {key: rng.uniform(-1, 1, shape) for key, shape in shapes.items()}
    want = {key: t.copy() for key, t in theta.items()}
    opt = OptimizerState(kind=kind, eta=0.03)
    m, v = {}, {}
    for step in range(1, 5):
        # the gradients arrive in another key order than the tensors
        grads = {key: rng.uniform(-10, 10, shapes[key]) for key in ("c", "a", "b")}
        optimizer_step(opt, theta, grads)
        per_tensor_step(kind, 0.03, step, want, grads, m, v)
        for key in shapes:
            npt.assert_array_equal(theta[key], want[key], err_msg=f"{key} step {step}")
        for mine, ref in ((opt.m, m), (opt.v, v)):
            assert mine.keys() == ref.keys()
            for key in ref:
                npt.assert_array_equal(mine[key], ref[key])
    assert opt.t == 4


@pytest.mark.parametrize("kind,moments", [("adam", "mv"), ("rmsprop", "v"), ("sgd", "")])
def test_optimizer_moments_are_shaped_like_their_tensors(kind, moments):
    model = small_model("lstm6", 3, 4, seed=3403, bidirectional=True)
    params = model.param_arrays()
    _, grads = model_gradients(model, token_batch(3404, 3, 4), "bce")
    opt = OptimizerState(kind=kind, eta=1e-3)
    optimizer_step(opt, params, grads)
    for name in "mv":
        d = getattr(opt, name)
        assert list(d) == (list(params) if name in moments else [])
        for key, theta in params.items():
            if name in moments:
                assert d[key].shape == theta.shape, (name, key)


def test_a_moment_set_before_the_first_step_is_its_starting_value():
    theta, want = {"w": np.array([1.0, 2.0])}, {"w": np.array([1.0, 2.0])}
    m, v = {"w": np.array([0.5, -0.5])}, {"w": np.array([0.25, 1.0])}
    opt = OptimizerState(kind="adam", eta=0.1, m={"w": m["w"].copy()},
                         v={"w": v["w"].copy()})
    g = {"w": np.array([0.3, -0.7])}
    optimizer_step(opt, theta, g)
    per_tensor_step("adam", 0.1, 1, want, g, m, v)
    npt.assert_array_equal(theta["w"], want["w"])
    npt.assert_array_equal(opt.m["w"], m["w"])


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_the_first_step_fixes_the_tensors_and_their_shapes(kind):
    opt = OptimizerState(kind=kind, eta=0.1)
    first = {"a": np.zeros((3, 2)), "b": np.zeros(4)}
    optimizer_step(opt, first, {k: np.ones(v.shape) for k, v in first.items()})
    changed = [("b", "is missing", {"a": np.zeros((3, 2))}),
               ("c", "is new", {**first, "c": np.zeros(1)}),
               ("b", r"has shape \(5,\)", {"a": np.zeros((3, 2)), "b": np.zeros(5)})]
    for key, what, params in changed:
        with pytest.raises(ValueError, match=rf"^tensor {key} {what}"):
            optimizer_step(opt, params, {k: np.ones(v.shape) for k, v in params.items()})
    assert opt.t == 1
    optimizer_step(opt, first, {k: np.ones(v.shape) for k, v in first.items()})
    assert opt.t == 2


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
@pytest.mark.parametrize("grads,what", [
    ({"b": np.ones(2)}, "gradient a is missing"),
    ({"a": np.ones(2), "z": np.ones(1)}, "gradient z is new"),
    ({"a": np.ones(3)}, r"gradient a has shape \(3,\), not \(2,\)"),
], ids=["missing", "new", "reshaped"])
def test_a_refused_first_step_fixes_nothing(kind, grads, what):
    opt = OptimizerState(kind=kind, eta=0.1)
    theta = {"a": np.zeros(2)}
    with pytest.raises(ValueError, match=f"^{what}"):
        optimizer_step(opt, theta, grads)
    assert opt.t == 0 and opt.m == {} and opt.v == {}
    npt.assert_array_equal(theta["a"], np.zeros(2))
    # the next step, under other names, is the first
    other = {"x": np.zeros((2, 2)), "y": np.zeros(1)}
    optimizer_step(opt, other, {k: np.ones(v.shape) for k, v in other.items()})
    assert opt.t == 1
    assert list(opt.v) == (list(other) if kind != "sgd" else [])
    assert not np.array_equal(other["x"], np.zeros((2, 2)))


# --------------------------------------------------------------------------
# Evaluation and epochs.
# --------------------------------------------------------------------------

def frozen_half_model(seed=3500):
    """Zero weights: every bce prediction is exactly 0.5 (classified 1)."""
    model = small_model("lstm6", 3, 4, seed=seed)
    for arr in model.param_arrays().values():
        arr[...] = 0.0
    return model


def test_evaluate_thresholds_binary_predictions():
    model = frozen_half_model()
    batch = SequenceBatch(tokens=np.full((4, 3), 2, dtype=np.int64),
                          labels=np.array([1, 1, 1, 0]))
    loss, acc = evaluate(model, batch, "bce")
    assert abs(loss - math.log(2.0)) < 1e-12
    assert acc == 0.75  # p = 0.5 rounds up to class 1


def test_evaluate_predicts_binary_classes_by_the_sign_of_the_raw_score():
    # expit(-1e-17) rounds to exactly 0.5: a rule on the probability would
    # predict class 1 for this negative score
    model = frozen_half_model()
    model.out.b_y[...] = -1e-17
    batch = SequenceBatch(tokens=np.full((4, 3), 2, dtype=np.int64),
                          labels=np.zeros(4, dtype=np.int64))
    _, acc = evaluate(model, batch, "bce")
    assert acc == 1.0
    assert acc == per_sample_evaluate(model, batch, "bce")[1]


def test_evaluate_multiclass_argmax():
    model = small_model("lstm6", 3, 4, seed=3600, out_dim=3)
    for arr in model.param_arrays().values():
        arr[...] = 0.0
    model.out.b_y[...] = np.array([0.0, 1.0, 0.0])  # class 1 always wins
    batch = token_batch(3601, B=6, T=3, n_classes=3)
    _, acc = evaluate(model, batch, "cce")
    assert acc == float(np.mean(batch.labels == 1))


def per_sample_evaluate(model, batch, loss_kind):
    """Mean loss and accuracy stepping one sample at a time."""
    total, correct = 0.0, 0
    for tokens, label in zip(batch.tokens, batch.labels):
        xs = model.emb.E[tokens][:, None]  # a batch of one
        h = run_cell(model.cell, xs)
        if model.cell_bwd is not None:
            h = np.concatenate([h, run_cell(model.cell_bwd, xs[::-1])], axis=-1)
        y_raw = output_layer_apply(model.out, h)
        total += loss_eval(loss_kind, y_raw, [label])[0][0]
        pred = int(y_raw[0, 0] >= 0.0) if loss_kind == "bce" else int(np.argmax(y_raw))
        correct += int(pred == label)
    return total / len(batch), correct / len(batch)


def eval_budget(T, m, n, rows, variant="lstm6", dirs=1):
    """An EVAL_BUDGET that gives evaluate slices of `rows` samples: a
    sample's (T, m) inputs and, per direction, two h (and c) states, one
    step's input terms and the gate or candidate buffer."""
    per_dir = {"srnn": 2 * n + n,
               "lstm": 4 * n + 4 * n + 4 * n}.get(variant, 4 * n + n + n)
    return rows * 8 * (T * m + dirs * per_dir)


@pytest.mark.parametrize("variant,loss_kind,bidirectional",
                         [("lstm", "bce", False), ("lstm_c6", "bce", True),
                          ("srnn", "cce", False), ("lstm6", "cce", True)])
def test_evaluate_in_slices_matches_per_sample_runs(monkeypatch, variant, loss_kind,
                                                     bidirectional):
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, 3, 4, seed=3650, act="tanh", out_dim=k,
                        bidirectional=bidirectional)
    batch = token_batch(3651, B=2 * 64 + 5, T=6, n_classes=max(k, 2))
    budget = eval_budget(6, 3, 4, 64, variant, len(model.directions))
    monkeypatch.setattr(training, "EVAL_BUDGET", budget)  # 64 + 64 + 5
    loss, acc = evaluate(model, batch, loss_kind)
    want_loss, want_acc = per_sample_evaluate(model, batch, loss_kind)
    assert abs(loss - want_loss) <= 1e-14 * want_loss
    assert acc == want_acc


@pytest.mark.parametrize("budget,slices", [
    (1, [1] * 7),                    # below one row: a slice of one sample
    (eval_budget(5, 3, 4, 2), [2, 2, 2, 1]),
    (eval_budget(5, 3, 4, 3) + eval_budget(5, 3, 4, 1) - 1, [3, 3, 1]),  # rounds down
    (eval_budget(5, 3, 4, 7), [7]),
    (training.EVAL_BUDGET, [7]),
])
def test_evaluate_slices_follow_the_byte_budget(monkeypatch, budget, slices):
    model = small_model("lstm6", 3, 4, seed=3660)
    batch = token_batch(3661, B=7, T=5)
    seen = []

    def spy(kind, y_raw, labels):
        seen.append(len(y_raw))
        assert labels.shape == (len(y_raw),)
        return loss_eval(kind, y_raw, labels)

    monkeypatch.setattr(training, "loss_eval", spy)
    monkeypatch.setattr(training, "EVAL_BUDGET", budget)
    evaluate(model, batch, "bce")
    assert seen == slices


@pytest.mark.parametrize("variant,bidirectional,shape,rows", [
    ("srnn", False, "desk", 934), ("lstm", False, "desk", 672),
    ("lstm6", False, "desk", 827), ("lstm_c6", False, "desk", 827),
    ("lstm6", True, "desk", 672),
    ("srnn", False, "paper", 42), ("lstm", False, "paper", 40),
    ("lstm6", False, "paper", 41), ("lstm_c6", False, "paper", 41),
    ("lstm6", True, "paper", 40)])
def test_evaluate_slices_at_the_benchmark_shapes(monkeypatch, variant, bidirectional,
                                                 shape, rows):
    # the rows per slice that EVAL_BUDGET gives each benchmark model, from the
    # per-row bytes evaluate derives from record_shapes and the stacked bias
    m, n, T = {"desk": (16, 32, 40), "paper": (32, 100, 500)}[shape]
    model = small_model(variant, m, n, seed=3662, vocab=50, bidirectional=bidirectional)
    batch = token_batch(3663, B=rows + 1, T=T, vocab=50)
    seen = []

    def spy(kind, y_raw, labels):
        seen.append(len(y_raw))
        assert labels.shape == (len(y_raw),)
        return loss_eval(kind, y_raw, labels)

    monkeypatch.setattr(training, "loss_eval", spy)
    evaluate(model, batch, "bce")
    assert seen == [rows, 1]


def with_gate(monkeypatch, gate, fn, *args, fork=None):
    """fn(*args) under EVAL_FORK_MIN_SAMPLE_STEPS = gate (0 splits every
    evaluate slice of two rows or more, math.inf none, None keeps the
    module's gate), and the number of slices whose second half the helper
    forwarded (fork, when given, stands in for os.fork)."""
    return with_fork_gate(monkeypatch, gate, fn, *args, fork=fork,
                          name="EVAL_FORK_MIN_SAMPLE_STEPS")


def evaluate_fallback(monkeypatch, model, batch, loss_kind):
    """evaluate with every slice split and both halves forwarded in this
    process."""
    training._stop_helper()
    with monkeypatch.context() as mp:
        mp.setattr(training, "_can_fork", lambda: False)
        result, walks = with_gate(mp, 0, evaluate, model, batch, loss_kind)
    assert walks == 0
    return result


@pytest.mark.parametrize("loss_kind", ["bce", "cce"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_bidirectional_row_halves_keep_every_bit(monkeypatch, variant, loss_kind):
    # a bidirectional model's row halves, each running both directions, give
    # the bits of the in-process fallback; the forward concatenates each
    # direction's own run
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, 3, 4, seed=3670, act="tanh", out_dim=k,
                        bidirectional=True)
    batch = token_batch(3671, B=2 * 16 + 5, T=6, n_classes=max(k, 2))
    monkeypatch.setattr(training, "EVAL_BUDGET", eval_budget(6, 3, 4, 16, variant, 2))
    serial = evaluate_fallback(monkeypatch, model, batch, loss_kind)
    helped, walks = with_gate(monkeypatch, 0, evaluate, model, batch, loss_kind)
    assert walks == 3  # 16 + 16 + 5 rows
    assert [x.hex() for x in helped] == [x.hex() for x in serial]
    xs = model.emb.E[batch.tokens.T]
    y, h = model.forward(xs)
    want = np.concatenate([run_cell(model.cell, xs), run_cell(model.cell_bwd, xs[::-1])],
                          axis=-1)
    assert h.tobytes() == want.tobytes()
    assert y.tobytes() == output_layer_apply(model.out, want).tobytes()


@pytest.mark.parametrize("bidirectional,rows,walks", [
    (False, 15, 0),  # one direction: 15 x 5 = 75 sample-steps, below the gate
    (True, 7, 0),    # 7 x 5 x 2 = 70, below the gate
    (True, 8, 1)])   # 8 x 5 x 2 = 80, at the gate
def test_only_a_bidirectional_slice_at_the_gate_sends_a_half_to_the_helper(
        monkeypatch, bidirectional, rows, walks):
    # the evaluate gate counts sample-steps over both directions: at 80,
    # only the bidirectional slice of 8 rows sends a half to the helper
    model = small_model("lstm6", 3, 4, seed=3672, bidirectional=bidirectional)
    batch = token_batch(3673, B=rows, T=5)
    assert with_gate(monkeypatch, 80, evaluate, model, batch, "bce")[1] == walks


def test_paper_srnn_row_halves_keep_the_bits_of_the_whole_slice(monkeypatch):
    # the paper test split's one slice: halves of 16 rows at n = 100 give
    # the whole slice's bits
    model = small_model("srnn", 32, 100, seed=3686, vocab=50)
    batch = token_batch(3687, B=32, T=6, vocab=50)
    whole, none = with_gate(monkeypatch, math.inf, evaluate, model, batch, "bce")
    helped, walks = with_gate(monkeypatch, 0, evaluate, model, batch, "bce")
    assert (none, walks) == (0, 1)
    assert [x.hex() for x in helped] == [x.hex() for x in whole]
    xs = model.emb.E[batch.tokens.T]
    halves = np.concatenate([run_cell(model.cell, xs[:, :16]),
                             run_cell(model.cell, xs[:, 16:])])
    assert halves.tobytes() == run_cell(model.cell, xs).tobytes()


@pytest.mark.parametrize("variant,bidirectional,rows,walks", [
    ("srnn", False, 28, 1),
    ("srnn", False, 26, 0),
    ("lstm6", True, 8, 0),
    ("lstm6", True, 16, 1)])
def test_the_eval_gate_splits_at_its_sample_steps_at_n_100(monkeypatch, variant,
                                                           bidirectional, rows, walks):
    # the module's gate at n = 100 and T = ceil(gate / 28): a slice of 28
    # rows splits and one of 26 does not, and a bidirectional slice counts
    # both directions, so 16 rows split and 8 do not
    T = math.ceil(training.EVAL_FORK_MIN_SAMPLE_STEPS / 28)
    model = small_model(variant, 4, 100, seed=3688, bidirectional=bidirectional)
    batch = token_batch(3689, B=rows, T=T)
    assert with_gate(monkeypatch, None, evaluate, model, batch, "bce")[1] == walks


@pytest.mark.parametrize("failing", ["fwd.", "bwd."])
def test_an_error_in_either_direction_surfaces_and_reaps_the_helper(monkeypatch, failing):
    # both directions of a row half run in one process: an error in either
    # surfaces from this process's half, and the helper is killed and reaped
    model = small_model("lstm6", 3, 4, seed=3674, bidirectional=True)
    bad = model.cell if failing == "fwd." else model.cell_bwd
    ran_on = []

    def run_cell_failing(cell, xs):
        if cell is bad:  # never the helper's unpickled copy
            ran_on.append(os.getpid())
            raise FloatingPointError(f"{failing} went wrong")
        return run_cell(cell, xs)

    monkeypatch.setattr(training, "run_cell", run_cell_failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"^{failing} went wrong$"):
        with_gate(monkeypatch, 0, evaluate, model, token_batch(3675, B=9, T=5), "bce")
    assert threading.active_count() == before
    assert ran_on == [os.getpid()] and training._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("loss_kind", ["bce", "cce"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_helper_row_halves_keep_the_bits_of_serial_halves(monkeypatch, variant, loss_kind):
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, 3, 4, seed=3676, out_dim=k)
    batch = token_batch(3677, B=2 * 17 + 3, T=6, n_classes=max(k, 2))
    monkeypatch.setattr(training, "EVAL_BUDGET", eval_budget(6, 3, 4, 17, variant))
    serial = evaluate_fallback(monkeypatch, model, batch, loss_kind)
    seen = []

    def spy(kind, y_raw, labels):
        seen.append(y_raw.copy())
        return loss_eval(kind, y_raw, labels)

    with monkeypatch.context() as mp:
        mp.setattr(training, "loss_eval", spy)
        helped, walks = with_gate(mp, 0, evaluate, model, batch, loss_kind)
    assert walks == 3  # 17 + 17 + 3 rows, each slice in halves
    assert [x.hex() for x in helped] == [x.hex() for x in serial]
    (whole, acc), none = with_gate(monkeypatch, math.inf, evaluate, model, batch, loss_kind)
    assert none == 0 and (helped[0], helped[1]) == (pytest.approx(whole, rel=1e-13), acc)
    xs = model.emb.E[batch.tokens.T]  # the first slice's 17 rows: halves of 8 and 9
    halves = np.concatenate([model.forward(xs[:, :8])[0], model.forward(xs[:, 8:17])[0]])
    assert seen[0].tobytes() == halves.tobytes()


@pytest.mark.parametrize("failing", ["first", "second"])
def test_an_error_in_either_row_half_surfaces_here(monkeypatch, failing):
    model = small_model("lstm", 3, 4, seed=3678)
    rows = {"first": 4, "second": 5}[failing]  # the halves of 9 rows

    def run_cell_failing(cell, xs):
        if xs.shape[1] == rows:
            raise FloatingPointError(f"the {failing} half went wrong")
        return run_cell(cell, xs)

    monkeypatch.setattr(training, "run_cell", run_cell_failing)
    before = threading.active_count()
    batch = token_batch(3679, B=9, T=5)
    with pytest.raises(FloatingPointError, match=f"^the {failing} half went wrong$") as caught:
        with_gate(monkeypatch, 0, evaluate, model, batch, "bce")
    assert threading.active_count() == before
    if failing == "first":  # this process's half: the helper is killed and reaped
        assert training._helper is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    else:  # the helper's half: raised here with its traceback, and it serves on
        assert isinstance(caught.value.__cause__, ChildProcessError)
        assert "run_cell_failing" in str(caught.value.__cause__)
        assert training._helper is not None
        no_child_left()


@pytest.mark.parametrize("shape,halved", [
    ("desk", {"srnn", "lstm", "lstm6", "lstm_c6", "lstm6_bidir"}),
    ("paper", {"srnn", "lstm", "lstm6", "lstm_c6", "lstm6_bidir"}),
    ("certify", set())])
def test_the_eval_gate_splits_the_benchmark_models_whose_slices_pay(monkeypatch, shape,
                                                                    halved):
    # each workload's activation, m, n and T, and its test split's rows, one
    # slice: the module's gate splits every desk and paper slice (20,000 and
    # 16,000 sample-steps, twice that bidirectional) and no certify one (100)
    act, m, n, T, rows = {"desk": ("tanh", 16, 32, 40, 500),
                          "paper": ("sigmoid", 32, 100, 500, 32),
                          "certify": ("sigmoid", 8, 8, 5, 20)}[shape]
    batch = token_batch(3680, B=rows, T=T, vocab=50)
    split = set()
    for key, variant, bidirectional in [
            ("srnn", "srnn", False), ("lstm", "lstm", False), ("lstm6", "lstm6", False),
            ("lstm_c6", "lstm_c6", False), ("lstm6_bidir", "lstm6", True)]:
        model = small_model(variant, m, n, seed=3681, act=act, vocab=50,
                            bidirectional=bidirectional)
        _, walks = with_gate(monkeypatch, None, evaluate, model, batch, "bce")
        assert walks in (0, 1), key  # the split is one slice
        if walks:
            split.add(key)
    assert split == (halved if training._can_fork() else set())
    no_child_left()


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
def test_the_eval_gate_reads_sample_steps_whatever_the_activation(monkeypatch, act):
    # bidirectional lstm6 at the desk shape: the slice at the module's gate
    # splits and one row fewer does not, whatever the activation
    T = 40
    rows = math.ceil(training.EVAL_FORK_MIN_SAMPLE_STEPS / (2 * T))
    model = small_model("lstm6", 16, 32, seed=3682, act=act, vocab=50, bidirectional=True)
    for B, walks in ((rows, 1), (rows - 1, 0)):
        batch = token_batch(3683, B=B, T=T, vocab=50)
        assert with_gate(monkeypatch, None, evaluate, model, batch, "bce")[1] == walks


def test_one_helper_serves_evaluate_then_model_gradients(monkeypatch):
    # the helper an evaluate call starts serves the next model_gradients
    # call with no second fork, and each gives the fallback's bits
    model = small_model("lstm6", 3, 4, seed=3790, bidirectional=True)
    batch = token_batch(3791, B=12, T=5)
    want_eval = evaluate_fallback(monkeypatch, model, batch, "bce")
    want_grads = fallback_bytes(monkeypatch, model, batch, "bce")
    helped, walks = with_gate(monkeypatch, 0, evaluate, model, batch, "bce")
    assert walks == 1 and [x.hex() for x in helped] == [x.hex() for x in want_eval]
    pid = training._helper.pid
    result, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce",
                                   fork=refuse_fork)
    assert (gradient_bytes(result), walks) == (want_grads, 1)
    assert training._helper.pid == pid
    no_child_left()


def test_a_bad_token_in_the_helpers_half_raises_the_serial_error(monkeypatch):
    model = small_model("srnn", 3, 4, seed=3792)
    batch = token_batch(3793, B=8, T=5)
    tokens = batch.tokens.copy()
    tokens[5, 2], tokens[6, 0] = 99, 0  # both extremes in the second half, rows [4, 8)
    bad = SequenceBatch(tokens=tokens, labels=batch.labels)
    want = evaluate_fallback(monkeypatch, model, batch, "bce")
    with pytest.raises(ValueError) as serial:
        with_gate(monkeypatch, math.inf, evaluate, model, bad, "bce")
    with pytest.raises(ValueError) as helped:
        with_gate(monkeypatch, 0, evaluate, model, bad, "bce")
    assert str(helped.value) == str(serial.value) == (
        "token index out of range [0, 7): min=0 max=99")
    assert isinstance(helped.value.__cause__, ChildProcessError)
    # the helper serves on
    helper = training._helper
    result, walks = with_gate(monkeypatch, 0, evaluate, model, batch, "bce",
                              fork=refuse_fork)
    assert walks == 1 and [x.hex() for x in result] == [x.hex() for x in want]
    assert training._helper is helper
    no_child_left()


# --------------------------------------------------------------------------
# The helper process that walks the second half of a split model_gradients
# batch.
# --------------------------------------------------------------------------

def with_fork_gate(monkeypatch, gate, fn, *args, fork=None, name="FORK_MIN_SAMPLE_STEPS"):
    """fn(*args) under the gate called name = gate (None keeps the
    module's), and the number of calls whose second half the helper ran
    (fork, when given, stands in for os.fork)."""
    with monkeypatch.context() as mp:
        if gate is not None:
            mp.setattr(training, name, gate)
        walks = helper_walks(mp)
        if fork is not None:
            mp.setattr(os, "fork", fork)
        return fn(*args), sum(walked for *_, walked in walks)


def refuse_fork():
    raise AssertionError("os.fork was called")


def no_child_left():
    """Stop the helper, then find no child of this process: it was reaped."""
    training._stop_helper()
    assert training._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def gradient_bytes(result):
    loss, grads = result
    return [loss.hex()] + [(name, g.tobytes()) for name, g in grads.items()]


def fallback_bytes(monkeypatch, model, batch, loss_kind):
    """The bytes of a split call walked wholly in this process."""
    training._stop_helper()
    with monkeypatch.context() as mp:
        mp.setattr(training, "_can_fork", lambda: False)
        (result, walks) = with_fork_gate(mp, 0, model_gradients, model, batch, loss_kind)
    assert walks == 0
    return gradient_bytes(result)


@pytest.mark.parametrize("inputs", ["trainable", "frozen"])
@pytest.mark.parametrize("loss_kind", ["bce", "cce"])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_forked_half_gives_the_bits_of_the_in_process_fallback(
        monkeypatch, variant, bidirectional, loss_kind, inputs):
    k = 1 if loss_kind == "bce" else 3
    model = small_model(variant, 3, 4, seed=3760, act="tanh", out_dim=k,
                        trainable_emb=inputs == "trainable", bidirectional=bidirectional)
    batch = token_batch(3761, B=9, T=5, n_classes=max(k, 2))  # halves of 4 and 5
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, 5, 2))
    helped, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, loss_kind)
    assert walks == 1
    want = gradient_bytes(helped)
    # a second call reuses the helper, which rebuilds the model it is sent
    again, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, loss_kind,
                                  fork=refuse_fork)
    assert (gradient_bytes(again), walks) == (want, 1)
    no_child_left()
    # the fallback, three ways: no os.fork, one CPU, another thread alive
    with monkeypatch.context() as mp:
        mp.setattr(training, "FORK_MIN_SAMPLE_STEPS", 0)
        mp.delattr(os, "fork")
        assert gradient_bytes(model_gradients(model, batch, loss_kind)) == want
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        fallback = with_fork_gate(mp, 0, model_gradients, model, batch, loss_kind,
                                  fork=refuse_fork)
        assert (gradient_bytes(fallback[0]), fallback[1]) == (want, 0)
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        fallback = with_fork_gate(monkeypatch, 0, model_gradients, model, batch,
                                  loss_kind, fork=refuse_fork)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert (gradient_bytes(fallback[0]), fallback[1]) == (want, 0)
    (whole, _), walks = with_fork_gate(monkeypatch, math.inf, model_gradients, model,
                                       batch, loss_kind)
    assert walks == 0 and whole.hex() == helped[0].hex()


def test_the_helper_follows_the_model_it_is_sent(monkeypatch):
    # one helper serves models of other variants, shapes and values in
    # turn, and a model whose tensors change in place between calls
    batch = token_batch(3774, B=6, T=5, vocab=9)
    models = [small_model("lstm6", 3, 4, seed=3775, vocab=9),
              small_model("lstm", 2, 5, seed=3776, vocab=9, bidirectional=True),
              small_model("lstm6", 3, 4, seed=3777, vocab=9, trainable_emb=False)]
    want = [fallback_bytes(monkeypatch, model, batch, "bce") for model in models]
    for round in range(2):
        for model, bits in zip(models, want):
            (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model,
                                             batch, "bce")
            assert (gradient_bytes(result), walks) == (bits, 1), round
    models[0].cell.tensors["U_c"] *= 0.5
    models[0].cell.forget_const = 0.3
    changed = fallback_bytes(monkeypatch, models[0], batch, "bce")
    assert changed != want[0]
    for _ in range(2):
        (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, models[0],
                                         batch, "bce")
        assert (gradient_bytes(result), walks) == (changed, 1)
    models[0].cell.act = "tanh"
    tanh = fallback_bytes(monkeypatch, models[0], batch, "bce")
    assert tanh != changed
    for _ in range(2):
        (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, models[0],
                                         batch, "bce")
        assert (gradient_bytes(result), walks) == (tanh, 1)


def test_the_helper_walks_the_rows_per_chunk_it_is_sent(monkeypatch):
    # the helper forks at one CACHE_BUDGET and keeps it; a split call's
    # bits follow the caller's budget all the same
    model = small_model("lstm6", 3, 4, seed=3796, act="tanh")
    batch = token_batch(3797, B=12, T=5)  # halves of 6
    training._stop_helper()
    (_, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert walks == 1
    helper = training._helper
    monkeypatch.setattr(training, "CACHE_BUDGET", chunk_budget(model, 5, 2))
    (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce",
                                     fork=refuse_fork)
    assert walks == 1 and training._helper is helper
    assert gradient_bytes(result) == fallback_bytes(monkeypatch, model, batch, "bce")
    no_child_left()


def test_a_model_that_outgrows_the_mapping_restarts_the_helper(monkeypatch):
    small = small_model("lstm6", 3, 4, seed=3785, vocab=9)
    large = small_model("lstm", 8, 30, seed=3786, vocab=400, bidirectional=True)
    batch = token_batch(3787, B=6, T=5, vocab=9)
    int32 = SequenceBatch(tokens=batch.tokens.astype(np.int32), labels=batch.labels)
    want = {id(m): fallback_bytes(monkeypatch, m, batch, "bce") for m in (small, large)}
    pids = []
    for model, sample in ((small, batch), (large, int32), (small, int32)):
        (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, sample,
                                         "bce")
        assert (gradient_bytes(result), walks) == (want[id(model)], 1)
        pids.append(training._helper.pid)
    # the large model restarts it with a larger mapping; the small one fits
    assert pids[0] != pids[1] == pids[2]
    with pytest.raises(ChildProcessError):  # the first helper was reaped
        os.waitpid(pids[0], os.WNOHANG)
    no_child_left()


def test_a_call_that_outgrows_the_mapping_walks_here_where_no_helper_may_start(
        monkeypatch):
    # the one fork check guards a restart as it guards the first start:
    # refused, the larger call walks both halves here, and the helper that
    # runs is kept for the calls that fit it
    small = small_model("lstm6", 3, 4, seed=3785, vocab=9)
    large = small_model("lstm", 8, 30, seed=3786, vocab=400, bidirectional=True)
    batch = token_batch(3787, B=6, T=5, vocab=9)
    want = fallback_bytes(monkeypatch, large, batch, "bce")
    walks = with_fork_gate(monkeypatch, 0, model_gradients, small, batch, "bce")[1]
    assert walks == training._can_fork()
    helper = training._helper
    with monkeypatch.context() as mp:
        mp.setattr(training, "_can_fork", lambda: False)
        result, walks = with_fork_gate(mp, 0, model_gradients, large, batch, "bce",
                                       fork=refuse_fork)
    assert (gradient_bytes(result), walks) == (want, 0)
    assert training._helper is helper
    no_child_left()


class Unpicklable(Exception):
    """An error whose state does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@pytest.mark.parametrize("error,raised,reason", [
    (FloatingPointError("the forked half went wrong"), FloatingPointError,
     "^the forked half went wrong$"),
    (Unpicklable("no pickle"), RuntimeError, "^Unpicklable: no pickle$"),
    (ValueError("x" * 100_000), ValueError, "^x{100000}$")])
def test_an_error_in_the_forked_half_is_raised_in_the_caller(monkeypatch, error, raised,
                                                             reason):
    model = small_model("lstm6", 3, 4, seed=3762)
    batch = token_batch(3763, B=6, T=5)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    parent = os.getpid()
    real = training._walk_chunks
    failing = [True]  # the helper's copy empties at its first walk

    def walk_failing(*args):
        if os.getpid() != parent and failing and failing.pop():
            raise error
        return real(*args)

    monkeypatch.setattr(training, "_walk_chunks", walk_failing)
    with pytest.raises(raised, match=reason) as caught:
        with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    # the helper's traceback comes along as the cause
    assert isinstance(caught.value.__cause__, ChildProcessError)
    assert "walk_failing" in str(caught.value.__cause__)
    # the helper serves on, rebuilding the model from the next request
    helper = training._helper
    (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce",
                                     fork=refuse_fork)
    assert (gradient_bytes(result), walks) == (want, 1)
    assert training._helper is helper
    no_child_left()


def test_an_error_in_this_half_stops_and_reaps_the_forked_one(monkeypatch):
    model = small_model("lstm6", 3, 4, seed=3764)
    batch = token_batch(3765, B=6, T=5)
    parent = os.getpid()
    real = training._walk_chunks
    fail = [True]

    def walk_failing(*args):
        if os.getpid() == parent and fail[0]:
            raise FloatingPointError("the first half went wrong")
        return real(*args)

    monkeypatch.setattr(training, "_walk_chunks", walk_failing)
    with pytest.raises(FloatingPointError, match="^the first half went wrong$"):
        with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    # killed, reaped and dropped: no shutdown needed
    assert training._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    fail[0] = False  # the next call starts a new helper
    (_, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert walks == 1
    no_child_left()


def test_an_interrupt_while_waiting_for_the_reply_stops_the_helper(monkeypatch):
    # a helper left walking would answer the next call with this one's reply
    model = small_model("lstm6", 3, 4, seed=3788)
    batch = token_batch(3789, B=6, T=5)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    (_, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    pid = training._helper.pid
    connection = type(training._helper.replies)
    real = connection.recv_bytes
    interrupts = [KeyboardInterrupt()]

    def interrupted(self, *args):  # patched after the fork: this process only
        if interrupts:
            raise interrupts.pop()
        return real(self, *args)

    monkeypatch.setattr(connection, "recv_bytes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert training._helper is None
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(pid, os.WNOHANG)
    (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, 1) and training._helper.pid != pid
    no_child_left()


def test_a_forked_half_that_dies_is_reported(monkeypatch):
    model = small_model("srnn", 3, 4, seed=3766)
    batch = token_batch(3767, B=6, T=5)
    parent = os.getpid()
    real = training._walk_chunks

    def walk_killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(training, "_walk_chunks", walk_killed)
    with pytest.raises(ChildProcessError, match=f"exit code {-signal.SIGKILL}$"):
        with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert training._helper is None
    no_child_left()


def test_a_helper_killed_between_calls_is_reported_and_replaced(monkeypatch):
    model = small_model("lstm_c6", 3, 4, seed=3778, bidirectional=True)
    batch = token_batch(3779, B=6, T=5)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, 1)
    os.kill(training._helper.pid, signal.SIGKILL)
    with pytest.raises(ChildProcessError, match=f"exit code {-signal.SIGKILL}$"):
        with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert training._helper is None
    (result, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, 1)
    no_child_left()


def test_a_batch_of_one_never_forks(monkeypatch):
    model = small_model("lstm", 3, 4, seed=3768, bidirectional=True)
    batch = token_batch(3769, B=1, T=5)
    (loss, _), walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch,
                                      "bce", fork=refuse_fork)
    assert walks == 0 and math.isfinite(loss)
    assert training._helper is None


def open_fds():
    """This process's open file descriptors, where /proc lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("job", ["model_gradients", "evaluate"])
def test_a_failed_fork_runs_the_half_here_with_the_fallback_bits(monkeypatch, job):
    # os.fork raising closes the new helper's mapping and pipes, and the
    # second half runs in this process; the next call forks a helper
    built = []

    def fork_refused():
        built.append(sys._getframe(1).f_locals["self"])  # the helper being made
        raise BlockingIOError(errno.EAGAIN, "fork refused under a process limit")

    model = small_model("lstm6", 3, 4, seed=3794, bidirectional=True)
    batch = token_batch(3795, B=8, T=5)
    if job == "evaluate":
        gate, run, bits = with_gate, evaluate, lambda result: [x.hex() for x in result]
        want = bits(evaluate_fallback(monkeypatch, model, batch, "bce"))
    else:
        gate, run, bits = with_fork_gate, model_gradients, gradient_bytes
        want = fallback_bytes(monkeypatch, model, batch, "bce")
    fds = open_fds()
    result, walks = gate(monkeypatch, 0, run, model, batch, "bce", fork=fork_refused)
    assert (bits(result), walks) == (want, 0)
    assert training._helper is None and open_fds() == fds
    assert [(h.mapping.closed, h.requests.closed, h.replies.closed)
            for h in built] == [(True, True, True)]
    result, walks = gate(monkeypatch, 0, run, model, batch, "bce")
    assert (bits(result), walks) == (want, 1)
    no_child_left()


def test_two_threads_at_once_each_get_the_fallback_bits(monkeypatch):
    # the helper serves one call at a time; a call that finds it busy walks
    # its second half here
    model = small_model("lstm6", 4, 6, seed=3780, act="tanh")
    batch = token_batch(3781, B=8, T=12)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    monkeypatch.setattr(training, "FORK_MIN_SAMPLE_STEPS", 0)
    assert gradient_bytes(model_gradients(model, batch, "bce")) == want  # starts it
    results, barrier = [], threading.Barrier(3)

    def train():
        for _ in range(4):
            barrier.wait(timeout=10)
            results.append(gradient_bytes(model_gradients(model, batch, "bce")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=train) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 12 and all(bits == want for bits in results)
    no_child_left()


def test_a_forked_child_closes_the_helper_it_inherits(monkeypatch):
    model = small_model("srnn", 3, 4, seed=3782)
    batch = token_batch(3783, B=6, T=5)
    (_, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    helper = training._helper
    assert walks == 1
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code only
        inherited = (training._helper is None and training._helper_lock.acquire(False)
                     and helper.requests.closed and helper.replies.closed)
        os._exit(0 if inherited else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    (_, walks) = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce",
                                fork=refuse_fork)
    assert walks == 1 and training._helper is helper
    no_child_left()


@pytest.mark.parametrize("shape,forked", [
    ("desk", {"srnn", "lstm", "lstm6", "lstm_c6", "lstm6_bidir"}),
    ("paper", {"srnn", "lstm", "lstm6", "lstm_c6", "lstm6_bidir"}),
    ("certify", set())])
def test_the_gate_forks_the_benchmark_models_whose_batches_pay(monkeypatch, shape,
                                                               forked):
    # each workload's activation, m, n, T and training batch
    act, m, n, T, B = {"desk": ("tanh", 16, 32, 40, 32),
                       "paper": ("sigmoid", 32, 100, 500, 32),
                       "certify": ("sigmoid", 8, 8, 5, 8)}[shape]
    batch = token_batch(3770, B=B, T=T, vocab=50)
    split = set()
    for key, variant, bidirectional in [
            ("srnn", "srnn", False), ("lstm", "lstm", False), ("lstm6", "lstm6", False),
            ("lstm_c6", "lstm_c6", False), ("lstm6_bidir", "lstm6", True)]:
        model = small_model(variant, m, n, seed=3771, act=act, vocab=50,
                            bidirectional=bidirectional)
        _, walks = with_fork_gate(monkeypatch, training.FORK_MIN_SAMPLE_STEPS,
                                  model_gradients, model, batch, "bce")
        assert walks in (0, 1), key
        if walks:
            split.add(key)
    assert split == (forked if training._can_fork() else set())
    no_child_left()


FORK_UNDER_BLAS_THREADS = """
import hashlib
import os

import numpy as np

from slimrnn import training
from slimrnn.cells import init_cell, init_output
from slimrnn.data import SequenceBatch, init_embedding
from slimrnn.numerics import make_rng

rng = make_rng(3772)
m, n, T, B = 32, 100, 500, 4
cells = [init_cell("lstm6", m, n, "sigmoid", 0.59, rng) for _ in range(2)]
model = training.SequenceClassifier(cell=cells[0], cell_bwd=cells[1],
                                    out=init_output(rng, 2 * n, 1),
                                    emb=init_embedding(rng, 50, m, trainable=True))
batch = SequenceBatch(tokens=rng.integers(0, 50, size=(B, T)),
                      labels=rng.integers(0, 2, size=B))
w = rng.uniform(-1.0, 1.0, (512, 512))
w @ w  # OpenBLAS runs its thread pool before the fork
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
training.FORK_MIN_SAMPLE_STEPS = 0
runs = [training.model_gradients(model, batch, "bce")]
training._stop_helper()
del os.fork  # the in-process fallback
runs.append(training.model_gradients(model, batch, "bce"))
print(len(forks))
for loss, grads in runs:
    print(loss.hex(), hashlib.sha256(b"".join(g.tobytes() for g in grads.values())).hexdigest())
"""


def engine_env(**extra):
    """This process's environment, the engine's sources first on the path."""
    src = os.path.dirname(os.path.dirname(training.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_a_fork_under_two_blas_threads_keeps_the_fallback_bits():
    # the paper shape's weight-gradient products are large enough for
    # OpenBLAS to split over its two threads
    out = subprocess.run([sys.executable, "-c", FORK_UNDER_BLAS_THREADS],
                         env=engine_env(OPENBLAS_NUM_THREADS="2"),
                         capture_output=True, text=True, timeout=120, check=True)
    forks, helped, fallback = out.stdout.splitlines()
    assert int(forks) == training._can_fork()
    assert helped == fallback


GRADIENT_BYTES = """
import hashlib

from slimrnn import training  # before NumPy loads, so its thread pin binds
from slimrnn.cells import init_cell, init_output
from slimrnn.data import SequenceBatch, init_embedding
from slimrnn.numerics import make_rng

rng = make_rng(3808)
model = training.SequenceClassifier(cell=init_cell("srnn", 4, 100, "sigmoid", 0.59, rng),
                                    out=init_output(rng, 100, 1),
                                    emb=init_embedding(rng, 50, 4))
batch = SequenceBatch(tokens=rng.integers(1, 50, size=(4, 50)),
                      labels=rng.integers(0, 2, size=4))
loss, grads = training.model_gradients(model, batch, "bce")
print(loss.hex(), hashlib.sha256(b"".join(g.tobytes() for g in grads.values())).hexdigest())
"""


def test_an_unset_blas_thread_count_gives_the_bits_of_one_thread():
    """A process that leaves OPENBLAS_NUM_THREADS unset trains with the bits
    of one BLAS thread: importing slimrnn pins one. The shape is about the
    smallest whose gradients (srnn's fwd.W_hh, from the 100 x 200 x 100
    product rows.T @ H[:-1]) move when OpenBLAS runs its own default of one
    thread per CPU; a 2-CPU machine without the pin fails here. On a one-CPU
    machine both processes run one thread, and the test shows nothing."""
    unset = engine_env()
    unset.pop("OPENBLAS_NUM_THREADS", None)
    bits = [subprocess.run([sys.executable, "-c", GRADIENT_BYTES], env=env,
                           capture_output=True, text=True, timeout=120, check=True).stdout
            for env in (unset, engine_env(OPENBLAS_NUM_THREADS="1"))]
    assert bits[0] == bits[1]


TRAIN_ONE_SPLIT_BATCH = """
from slimrnn import training
from slimrnn.cells import init_cell, init_output
from slimrnn.data import SequenceBatch, init_embedding
from slimrnn.numerics import make_rng

rng = make_rng(3784)
model = training.SequenceClassifier(cell=init_cell("lstm6", 4, 6, "tanh", 0.59, rng),
                                    out=init_output(rng, 6, 1),
                                    emb=init_embedding(rng, 9, 4))
batch = SequenceBatch(tokens=rng.integers(0, 9, size=(8, 80)),
                      labels=rng.integers(0, 2, size=8))
training.model_gradients(model, batch, "bce")
print(training._helper.pid if training._helper else 0, flush=True)
"""


EVALUATE_ONE_SPLIT_SLICE = """
from slimrnn import training
from slimrnn.cells import init_cell, init_output
from slimrnn.data import SequenceBatch, init_embedding
from slimrnn.numerics import make_rng

rng = make_rng(3796)
model = training.SequenceClassifier(cell=init_cell("lstm6", 4, 6, "tanh", 0.59, rng),
                                    out=init_output(rng, 6, 1),
                                    emb=init_embedding(rng, 9, 4))
T = -(-training.EVAL_FORK_MIN_SAMPLE_STEPS // 8)
batch = SequenceBatch(tokens=rng.integers(0, 9, size=(8, T)),
                      labels=rng.integers(0, 2, size=8))
training.evaluate(model, batch, "bce")
print(training._helper.pid if training._helper else 0, flush=True)
"""


def test_a_process_that_trains_a_split_batch_leaves_no_process_behind():
    # 640 sample-steps split at the module's gate; the exit handler ends
    # and reaps the helper
    helper_gone_after(TRAIN_ONE_SPLIT_BATCH)


def test_a_process_that_evaluates_a_split_slice_leaves_no_process_behind():
    # one slice of 8 rows at the module's evaluate gate
    helper_gone_after(EVALUATE_ONE_SPLIT_SLICE)


def helper_gone_after(script):
    """Run script, which prints its helper's pid (0 for none), in a new
    process, and find that helper gone within 10 s of the process's exit."""
    out = subprocess.run([sys.executable, "-c", script], env=engine_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    pid = int(out.stdout)
    assert (pid != 0) == training._can_fork()
    if pid:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# --------------------------------------------------------------------------
# Checks before any work, and what the helper does when its share fails.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["model_gradients", "evaluate"])
def test_a_bad_loss_kind_or_label_is_refused_before_any_work_or_helper_request(
        monkeypatch, route):
    # a split call checks its loss kind and labels at its entry: no input is
    # looked up, no share is sent, and the helper that runs serves on
    model = small_model("lstm6", 3, 4, seed=3825)
    batch = token_batch(3826, B=6, T=5)
    if route == "evaluate":
        gate, run, bits = with_gate, evaluate, lambda result: [x.hex() for x in result]
    else:
        gate, run, bits = with_fork_gate, model_gradients, gradient_bytes
    result, walks = gate(monkeypatch, 0, run, model, batch, "bce")
    want = bits(result)
    assert walks == training._can_fork()
    helper = training._helper
    lookup, walk = training.embed_lookup, training._helper_walk
    for loss_kind, labels, reason in (
            ("mse", batch.labels, "unknown loss 'mse'"),
            ("bce", np.array([0, 1, 2, 0, 1, 0]), re.escape("bce label 2 outside [0, 2)"))):
        called = []
        with monkeypatch.context() as mp:
            mp.setattr(training, "FORK_MIN_SAMPLE_STEPS", 0)
            mp.setattr(training, "EVAL_FORK_MIN_SAMPLE_STEPS", 0)
            mp.setattr(training, "embed_lookup",
                       lambda *args: called.append("lookup") or lookup(*args))
            mp.setattr(training, "_helper_walk",
                       lambda *args: called.append("walk") or walk(*args))
            with pytest.raises(ValueError, match=f"^{reason}$"):
                run(model, SequenceBatch(tokens=batch.tokens, labels=labels), loss_kind)
        assert called == [], loss_kind
    assert training._helper is helper
    result, walks = gate(monkeypatch, 0, run, model, batch, "bce", fork=refuse_fork)
    assert (bits(result), walks) == (want, training._can_fork())
    no_child_left()


def test_a_bad_net_fails_the_oracle_before_any_pass(monkeypatch):
    # the labels, the loss kind, the readout width, the tokens and the
    # batch size are checked once, before any pass, with the engine's
    # reasons
    model = small_model("lstm6", 3, 4, seed=3820)
    wide = small_model("lstm6", 3, 4, seed=3824, out_dim=3)
    batch = token_batch(3821, B=3, T=3)
    losses = []
    monkeypatch.setattr(training, "_cs_batch_loss",
                        lambda *args: losses.append(1) or _cs_batch_loss(*args))
    tokens = {}
    for token in (-1, 7):  # below the table, and its size
        tokens[token] = batch.tokens.copy()
        tokens[token][1, 2] = token
    bad = [(model, SequenceBatch(tokens=batch.tokens, labels=np.array([0, 2, 1])), "bce",
            re.escape("bce label 2 outside [0, 2)")),
           (model, SequenceBatch(tokens=tokens[-1], labels=batch.labels), "bce",
            re.escape("token index out of range [0, 7): min=-1 max=6")),
           (model, SequenceBatch(tokens=tokens[7], labels=batch.labels), "bce",
            re.escape("token index out of range [0, 7): min=0 max=7")),
           (model, batch.subset([]), "bce", "cannot difference a loss over an empty batch"),
           (model, batch, "mse", "unknown loss 'mse'"),
           (wide, batch, "bce", re.escape("bce needs (B, 1) rows, got (3, 3)"))]
    for bad_model, wrong, loss_kind, reason in bad:
        with pytest.raises(ValueError, match=reason):
            finite_difference_model(bad_model, wrong, loss_kind)
    assert losses == []
    finite_difference_model(model, batch, "bce")  # the spy sees a pass
    assert losses


def test_an_error_in_the_helpers_share_is_raised_here_and_the_helper_serves_on(
        monkeypatch):
    # the helper's share fails at its first forward: this process forwards
    # its own share first, then raises the helper's error with the helper's
    # traceback as its cause
    model = small_model("lstm", 3, 4, seed=3840)
    batch = token_batch(3841, B=6, T=3)
    want = [x.hex() for x in evaluate_fallback(monkeypatch, model, batch, "bce")]
    parent = os.getpid()
    real = training.embed_lookup
    failing = [True]  # the helper's copy empties at its first lookup
    here = []  # the inputs this process looked up, (T, b)

    def lookup_failing(emb, tokens):
        if os.getpid() != parent and failing and failing.pop():
            raise FloatingPointError("the helper's share went wrong")
        if os.getpid() == parent:
            here.append(tokens.shape)
        return real(emb, tokens)

    monkeypatch.setattr(training, "embed_lookup", lookup_failing)
    with pytest.raises(FloatingPointError,
                       match="^the helper's share went wrong$") as caught:
        with_gate(monkeypatch, 0, evaluate, model, batch, "bce")
    assert here == [(3, 3)]
    assert isinstance(caught.value.__cause__, ChildProcessError)
    assert "lookup_failing" in str(caught.value.__cause__)
    helper = training._helper
    result, walks = with_gate(monkeypatch, 0, evaluate, model, batch, "bce",
                              fork=refuse_fork)
    assert ([x.hex() for x in result], walks) == (want, 1)
    assert training._helper is helper
    no_child_left()


def test_a_helper_killed_mid_job_is_reported_and_replaced(monkeypatch):
    # the helper dies in its share: this process raises ChildProcessError,
    # and the next call forks a new helper and gives the bits of a serial call
    model = small_model("lstm_c6", 2, 3, seed=3846)
    batch = token_batch(3847, B=4, T=4)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    parent = os.getpid()
    real = training._walk_chunks

    def walk_killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    with monkeypatch.context() as mp:
        mp.setattr(training, "_walk_chunks", walk_killed)
        if training._can_fork():
            with pytest.raises(ChildProcessError, match=f"exit code {-signal.SIGKILL}$"):
                with_fork_gate(mp, 0, model_gradients, model, batch, "bce")
            assert training._helper is None
    result, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, training._can_fork())
    no_child_left()


def test_a_call_whose_mapping_cannot_be_made_runs_here(monkeypatch):
    model = small_model("lstm6", 3, 4, seed=3848)
    batch = token_batch(3849, B=6, T=3)
    want = fallback_bytes(monkeypatch, model, batch, "bce")

    def refused(*args, **kwargs):
        raise OSError(errno.ENOMEM, "no room for the mapping")

    with monkeypatch.context() as mp:
        mp.setattr(training.mmap, "mmap", refused)
        result, walks = with_fork_gate(mp, 0, model_gradients, model, batch, "bce",
                                       fork=refuse_fork)
    assert (gradient_bytes(result), walks) == (want, 0)
    assert training._helper is None
    result, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, training._can_fork())
    no_child_left()


def test_slimrnn_imports_where_no_lock_can_be_made():
    # nothing is made at import, and a gradient check starts no helper
    script = """
import multiprocessing
import multiprocessing.synchronize

def refused(*args, **kwargs):
    raise OSError("no semaphores here")

multiprocessing.Lock = multiprocessing.synchronize.Lock = refused
import slimrnn
from slimrnn import training

report, ok = slimrnn.cmd_gradcheck(m=8, n=8, seq_len=5, batch=8, seeds=1,
                                   activations=("tanh",))
print(ok, training._helper)
"""
    out = subprocess.run([sys.executable, "-c", script], env=engine_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "None"]


def test_the_helpers_job_never_starts_a_helper_of_its_own(monkeypatch):
    # a split call inside the helper's job (here a model_gradients call at
    # gate 0 from within its first walk) runs both halves in the helper: it
    # finds its own lock held and never forks
    model = small_model("lstm6", 3, 4, seed=3850)
    batch = token_batch(3851, B=4, T=3)
    want = fallback_bytes(monkeypatch, model, batch, "bce")
    parent = os.getpid()
    real = training._walk_chunks
    nested = [True]  # the helper's copy empties at its first walk

    def walk_with_a_split_call(*args):
        if os.getpid() != parent and nested and nested.pop():
            training.model_gradients(model, batch, "bce")
            if training._helper is not None:
                raise AssertionError("the helper started a helper")
        return real(*args)

    monkeypatch.setattr(training, "_walk_chunks", walk_with_a_split_call)
    result, walks = with_fork_gate(monkeypatch, 0, model_gradients, model, batch, "bce")
    assert (gradient_bytes(result), walks) == (want, training._can_fork())
    no_child_left()


def synth_split(seed=3700, n=80, T=8, vocab=12):
    from slimrnn.data import synth_generate
    return synth_generate("keyword_count", n, T, vocab, make_rng(seed))


def test_train_epoch_reduces_training_loss():
    train, test = synth_split()
    model = small_model("lstm6", 4, 8, seed=3800, act="tanh", vocab=12)
    opt = OptimizerState(kind="adam", eta=2e-3)
    initial = evaluate(model, train, "bce")[0]
    rec = train_epoch(model, train, test, opt, "bce", batch_size=8,
                      seed=99, epoch=1)
    assert isinstance(rec, MetricsRecord)
    assert rec.epoch == 1
    assert rec.train_loss < initial
    assert rec.seconds > 0.0


def test_train_epoch_zero_eta_changes_nothing():
    train, test = synth_split()
    model = small_model("lstm6", 4, 6, seed=3900, vocab=12)
    before = {k: v.copy() for k, v in model.param_arrays().items()}
    opt = OptimizerState(kind="adam", eta=0.0)
    rec1 = train_epoch(model, train, test, opt, "bce", 8, seed=99, epoch=1)
    rec2 = train_epoch(model, train, test, opt, "bce", 8, seed=99, epoch=2)
    for k, v in model.param_arrays().items():
        npt.assert_array_equal(v, before[k])
    assert (rec1.train_loss, rec1.train_acc, rec1.test_loss, rec1.test_acc) == \
           (rec2.train_loss, rec2.train_acc, rec2.test_loss, rec2.test_acc)


def test_identical_seeds_reproduce_the_run_bit_for_bit():
    train, test = synth_split()

    def run():
        model = small_model("lstm_c6", 4, 6, seed=4000, vocab=12)
        opt = OptimizerState(kind="rmsprop", eta=1e-3)
        recs = [train_epoch(model, train, test, opt, "bce", 8, seed=5, epoch=e)
                for e in (1, 2)]
        return model, recs

    model_a, recs_a = run()
    model_b, recs_b = run()
    for k, v in model_a.param_arrays().items():
        npt.assert_array_equal(v, model_b.param_arrays()[k])
    for ra, rb in zip(recs_a, recs_b):
        assert (ra.train_loss, ra.train_acc, ra.test_loss, ra.test_acc) == \
               (rb.train_loss, rb.train_acc, rb.test_loss, rb.test_acc)


def test_embedding_padding_row_survives_training():
    train, test = synth_split()
    model = small_model("lstm6", 4, 6, seed=4100, vocab=12)
    opt = OptimizerState(kind="adam", eta=5e-3)
    for epoch in (1, 2):
        train_epoch(model, train, test, opt, "bce", 8, seed=7, epoch=epoch)
    npt.assert_array_equal(model.emb.E[0], np.zeros(4))


def test_train_epoch_stops_on_a_non_finite_loss_before_the_update():
    train, test = synth_split()
    model = small_model("lstm6", 4, 6, seed=4300, vocab=12)
    model.cell.tensors["U_c"][0, 0] = np.nan
    before = {k: v.copy() for k, v in model.param_arrays().items()}
    opt = OptimizerState(kind="adam", eta=1e-3)
    with pytest.raises(FloatingPointError, match="non-finite loss in epoch 3"):
        train_epoch(model, train, test, opt, "bce", 8, seed=1, epoch=3)
    assert opt.t == 0
    for k, v in model.param_arrays().items():
        npt.assert_array_equal(v, before[k])


def test_train_epoch_validation():
    train, test = synth_split()
    model = small_model("lstm6", 4, 6, seed=4200, vocab=12)
    opt = OptimizerState(kind="sgd", eta=0.1)
    with pytest.raises(ValueError, match="batch_size"):
        train_epoch(model, train, test, opt, "bce", 0, seed=1, epoch=1)
    empty = SequenceBatch(tokens=np.zeros((0, 8), dtype=np.int64),
                          labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="non-empty"):
        train_epoch(model, empty, test, opt, "bce", 8, seed=1, epoch=1)


def test_array_holding_dataclasses_compare_by_identity():
    # a field-wise == would compare arrays, which have no single truth value
    a, b = (small_model("lstm6", 3, 4, seed=3730, bidirectional=True) for _ in range(2))
    batch = token_batch(3731, B=3, T=4)
    opts = [OptimizerState(kind="adam", eta=1e-3) for _ in range(2)]
    for model, opt in zip((a, b), opts):
        optimizer_step(opt, model.param_arrays(), model_gradients(model, batch, "bce")[1])
    for key, theta in a.param_arrays(include_frozen=True).items():
        npt.assert_array_equal(theta, b.param_arrays(include_frozen=True)[key])
    pairs = [(a, b), (a.cell, b.cell), (a.out, b.out), (a.emb, b.emb),
             (batch, batch.subset(np.arange(len(batch)))), tuple(opts)]
    for x, y in pairs:
        assert x == x and not x == y and x != y, type(x).__name__
