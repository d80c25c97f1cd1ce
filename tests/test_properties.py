"""Property checks under hypothesis. Each test is derandomized with a fixed
example count, so every run draws the same examples."""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from slimrnn.cells import VARIANTS
from slimrnn.data import SYNTH_KINDS, embed_lookup
from slimrnn.harness import (CHOICES, ExperimentConfig, build_model, config_to_text,
                             load_checkpoint, parse_config_text, save_checkpoint)
from slimrnn.numerics import ACTIVATIONS
from slimrnn.training import LOSSES, loss_eval


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


@st.composite
def valid_configs(draw):
    """Any ExperimentConfig that validate() accepts, its paths drawn from
    arbitrary text."""
    kw = {name: draw(st.sampled_from(allowed)) for name, allowed in CHOICES.items()}
    for name in ("hidden", "embed", "seq_len", "epochs", "batch"):
        kw[name] = draw(st.integers(1, 10**6))
    kw["vocab"] = draw(st.integers(4, 10**6))
    kw["samples"] = draw(st.integers(10, 10**6))
    kw["seed"] = draw(st.integers(0, 2**63))
    kw["eta"] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    kw["forget"] = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    kw["bidirectional"] = draw(st.booleans())
    kw["data"] = draw(st.one_of(st.sampled_from([f"synth:{k}" for k in SYNTH_KINDS]),
                                st.text(min_size=1).map("tsv:".__add__)))
    kw["out"] = draw(st.text(min_size=1))
    cfg = ExperimentConfig(**kw)
    try:
        cfg.validate()
    except ValueError:
        assume(False)
    return cfg


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(valid_configs())
def test_every_valid_config_round_trips_through_its_text(cfg):
    text = config_to_text(cfg)
    assert ExperimentConfig(**parse_config_text(text)) == cfg
    assert config_to_text(ExperimentConfig(**parse_config_text(text))) == text


@st.composite
def small_models(draw):
    loss = draw(st.sampled_from(LOSSES))
    cfg = ExperimentConfig(variant=draw(st.sampled_from(VARIANTS)),
                           activation=draw(st.sampled_from(ACTIVATIONS)),
                           hidden=draw(st.integers(1, 5)), embed=draw(st.integers(1, 4)),
                           vocab=draw(st.integers(4, 9)),
                           forget=draw(st.floats(-0.99, 0.99)),
                           bidirectional=draw(st.booleans()), loss=loss,
                           seed=draw(st.integers(0, 2**32)))
    model = build_model(cfg, 2 if loss == "bce" else draw(st.integers(2, 4)))
    model.emb.trainable = draw(st.booleans())
    tokens = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), draw(st.integers(1, 5))),
                             elements=st.integers(0, cfg.vocab - 1)))
    return cfg, model, tokens


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(small_models())
def test_every_model_round_trips_through_a_checkpoint(case):
    cfg, model, tokens = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, model, cfg)
        loaded, meta = load_checkpoint(path)
    assert meta["loss"] == cfg.loss
    assert loaded.emb.trainable == model.emb.trainable
    assert loaded.bidirectional == model.bidirectional
    saved = model.param_arrays(include_frozen=True)
    back = loaded.param_arrays(include_frozen=True)
    assert list(back) == list(saved)
    for name, arr in saved.items():
        assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes(), name
    xs = embed_lookup(model.emb, tokens.T)
    for got, want in zip(loaded.forward(embed_lookup(loaded.emb, tokens.T)),
                         model.forward(xs)):
        assert got.tobytes() == want.tobytes()
