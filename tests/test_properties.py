"""Property checks under hypothesis. Each test is derandomized with a fixed
example count, so every run draws the same examples."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from slimrnn.training import loss_eval


def one_hot_loss(kind, y_raw, labels):
    """The loss as it read (B, k) one-hot float target rows y: bce's one
    column is y for class 1, and both gradients are p - y."""
    y = np.eye(2)[labels][:, 1:] if kind == "bce" else np.eye(y_raw.shape[1])[labels]
    if kind == "bce":
        p = np.clip(expit(y_raw), 1e-12, 1.0 - 1e-12)
        loss = -np.log(np.where(y == 1.0, p, 1.0 - p))[..., 0]
    else:
        e = np.exp(y_raw - y_raw.max(axis=-1, keepdims=True))
        p = np.clip(e / e.sum(axis=-1, keepdims=True), 1e-12, 1.0 - 1e-12)
        loss = -np.log(np.sum(p * y, axis=-1))
    return loss, p - y


@st.composite
def loss_cases(draw):
    kind = draw(st.sampled_from(["bce", "cce"]))
    B = draw(st.integers(1, 64))
    k = 1 if kind == "bce" else draw(st.integers(1, 20))
    # past +-27.7 a probability passes the 1e-12 clamp
    raw = draw(hnp.arrays(np.float64, (B, k), elements=st.floats(-60.0, 60.0)))
    classes = 2 if kind == "bce" else k
    labels = draw(hnp.arrays(np.int64, B, elements=st.integers(0, classes - 1)))
    return kind, raw, labels


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(loss_cases())
def test_loss_eval_keeps_the_bits_of_the_one_hot_formula(case):
    kind, raw, labels = case
    loss, grad = loss_eval(kind, raw, labels)
    want_loss, want_grad = one_hot_loss(kind, raw, labels)
    assert np.array_equal(loss, want_loss)
    assert np.array_equal(grad, want_grad)
