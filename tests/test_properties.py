"""Property checks under hypothesis. Each test is derandomized with a fixed
example count, so every run draws the same examples."""

import os
import random
import tempfile

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from slimrnn.cells import VARIANTS
from slimrnn.data import SYNTH_KINDS, SequenceBatch, embed_lookup
from slimrnn.harness import (CHOICES, ExperimentConfig, build_model, config_to_text,
                             load_checkpoint, load_config_file, parse_config_text,
                             save_checkpoint)
from slimrnn.numerics import ACTIVATIONS
from slimrnn.training import (LOSSES, finite_difference_model, gradient_rel_error,
                              loss_eval, model_gradients)


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


def python_or_numpy(draw, strategy, *kinds):
    """A value drawn from strategy, converted by one of kinds: a Python type
    or a numpy scalar type."""
    return draw(st.sampled_from(kinds))(draw(strategy))


def drawn_float(draw, **bounds):
    """A float within bounds, as a Python float, np.float64 or np.float32."""
    kind = draw(st.sampled_from((float, np.float64, np.float32)))
    return kind(draw(st.floats(width=32 if kind is np.float32 else 64, **bounds)))


@st.composite
def valid_configs(draw):
    """Any ExperimentConfig that validate() accepts, its paths drawn from
    arbitrary text and its numbers and flag from Python or numpy scalars."""
    kw = {name: draw(st.sampled_from(allowed)) for name, allowed in CHOICES.items()}
    for name in ("hidden", "embed", "seq_len", "epochs", "batch"):
        kw[name] = python_or_numpy(draw, st.integers(1, 10**6), int, np.int64)
    kw["vocab"] = python_or_numpy(draw, st.integers(4, 10**6), int, np.int64)
    kw["samples"] = python_or_numpy(draw, st.integers(10, 10**6), int, np.int64)
    # np.int64 stops one short of 2**63
    kw["seed"] = python_or_numpy(draw, st.integers(0, 2**63), int, np.uint64)
    kw["eta"] = drawn_float(draw, min_value=0.0, exclude_min=True, allow_infinity=False)
    kw["forget"] = drawn_float(draw, min_value=-1.0, max_value=1.0, exclude_min=True,
                               exclude_max=True)
    kw["bidirectional"] = python_or_numpy(draw, st.booleans(), bool, np.bool_)
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
                           forget=python_or_numpy(draw, st.floats(-0.99, 0.99),
                                                  np.float64, np.float32),
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


# Bytes that keep a key = value line parseable, drawn as often as any byte.
SYNTAX_BYTES = b"\n #=-.:_0123456789eE"


def mutate(seed: int, blob: bytes) -> bytes:
    """blob after one to three byte edits, each replacing, inserting or
    deleting one byte at a position drawn uniformly. The edits come from
    a Random seeded with a drawn seed: hypothesis's own integer draws
    favour small values, and so the first line, the magic or the variant."""
    rng = random.Random(seed)
    blob = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("replace", "insert", "delete"))
        if not blob and op != "insert":
            continue
        at = rng.randrange(len(blob) + (op == "insert"))
        byte = rng.choice(SYNTAX_BYTES) if rng.random() < 0.5 else rng.randrange(256)
        blob[at:at + (op != "insert")] = b"" if op == "delete" else bytes([byte])
    return bytes(blob)


SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def mutated_configs(draw):
    return mutate(draw(SEEDS), config_to_text(draw(valid_configs())).encode("utf-8"))


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(mutated_configs())
def test_a_mutated_config_loads_to_a_round_tripping_config_or_names_its_path(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            values = load_config_file(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
    cfg = ExperimentConfig(**values)
    cfg.validate()
    assert ExperimentConfig(**parse_config_text(config_to_text(cfg))) == cfg


@st.composite
def mutated_checkpoints(draw):
    """A small model's checkpoint with its header mutated, payload intact."""
    cfg, model, _ = draw(small_models())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, model, cfg)
        with open(path, "rb") as fh:
            blob = fh.read()
    end = blob.index(b"\nend\n") + len(b"\nend\n")
    return mutate(draw(SEEDS), blob[:end]) + blob[end:]


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(mutated_checkpoints())
def test_a_mutated_checkpoint_header_loads_to_a_model_that_resaves_or_names_its_path(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path, again, twice = (os.path.join(tmp, name) for name in ("a", "b", "c"))
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            model, meta = load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
        cfg = ExperimentConfig(loss=meta["loss"])
        save_checkpoint(again, model, cfg)
        save_checkpoint(twice, load_checkpoint(again)[0], cfg)
        with open(again, "rb") as a, open(twice, "rb") as b:
            assert a.read() == b.read()


@st.composite
def gradient_cases(draw):
    """A small model, uni- or bidirectional, with a bce or 3-class cce
    readout and a trainable or frozen embedding, and a batch for it."""
    loss = draw(st.sampled_from(LOSSES))
    cfg = ExperimentConfig(variant=draw(st.sampled_from(VARIANTS)),
                           activation=draw(st.sampled_from(ACTIVATIONS)),
                           hidden=draw(st.integers(1, 3)), embed=draw(st.integers(1, 3)),
                           vocab=draw(st.integers(4, 6)),
                           forget=draw(st.floats(-0.99, 0.99)),
                           bidirectional=draw(st.booleans()), loss=loss,
                           seed=draw(st.integers(0, 2**32)))
    model = build_model(cfg, 3)
    model.emb.trainable = draw(st.booleans())
    B, T = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tokens = draw(hnp.arrays(np.int64, (B, T), elements=st.integers(0, cfg.vocab - 1)))
    labels = draw(hnp.arrays(np.int64, B, elements=st.integers(0, 1 if loss == "bce" else 2)))
    return model, SequenceBatch(tokens=tokens, labels=labels, n_classes=3), loss


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(gradient_cases())
def test_bptt_agrees_with_the_oracle_within_1e_6(case):
    """gradcheck's rule at drawn shapes: every tensor within 1e-6, relu
    nets included, padding tokens on the kink and all."""
    model, batch, loss = case
    _, analytic = model_gradients(model, batch, loss)
    oracle = finite_difference_model(model, batch, loss)
    assert list(analytic) == list(oracle)
    for name, a in analytic.items():
        err = gradient_rel_error(a, oracle[name])
        assert err <= 1e-6, f"{name}: rel err {err}"
