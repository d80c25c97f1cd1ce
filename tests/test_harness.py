"""Harness checks: config round trips, dataset/model assembly, training
runs and their artifacts, checkpoint fidelity, sweeps (sequential and
parallel), the gradient-check command, and the CLI surface."""

import argparse
import os
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from dataclasses import fields, replace

from slimrnn import harness, training
from slimrnn.cells import (VARIANTS, init_cell, init_output, lstm6_step, lstm_step,
                           srnn_step)
from slimrnn.cli import build_parser, main
from slimrnn.data import EmbeddingTable, SequenceBatch, init_embedding, load_tsv_corpus
from slimrnn.harness import (
    CHECKPOINT_MAGIC,
    CHOICES,
    METRICS_HEADER,
    SWEEP_HEADER,
    ExperimentConfig,
    SweepSpec,
    build_dataset,
    build_model,
    cmd_gradcheck,
    cmd_params,
    cmd_sweep,
    cmd_train,
    config_to_text,
    format_metrics_row,
    load_checkpoint,
    load_config_file,
    parse_config_text,
    _relu_kink_margin,
    save_checkpoint,
)
from slimrnn.numerics import make_rng
from slimrnn.training import MetricsRecord, SequenceClassifier, evaluate

from conftest import helper_walks, operands

README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_config(tmp_path, **overrides):
    base = ExperimentConfig(variant="lstm6", activation="tanh", hidden=4,
                            embed=3, seq_len=6, vocab=8, eta=2e-3, epochs=2,
                            batch=4, samples=12, seed=777,
                            out=str(tmp_path / "run"))
    return replace(base, **overrides)


def read_csv_without_seconds(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


# --------------------------------------------------------------------------
# Config serialization.
# --------------------------------------------------------------------------

def test_config_round_trip_is_byte_identical():
    cfg = ExperimentConfig(variant="lstm_c6", eta=2e-3, forget=0.96,
                           bidirectional=True, out="elsewhere")
    text = config_to_text(cfg)
    parsed = ExperimentConfig(**parse_config_text(text))
    assert parsed == cfg
    assert config_to_text(parsed) == text


def test_config_text_format_and_comments():
    text = config_to_text(ExperimentConfig())
    assert "variant = lstm" in text
    assert "eta = 0.001" in text
    assert "seq-len = 500" in text          # keys use dashes
    assert "bidirectional = false" in text  # booleans are true/false
    parsed = parse_config_text("# a comment\n\neta = 0.5 # trailing\nhidden = 9\n")
    assert parsed == {"eta": 0.5, "hidden": 9}


def test_config_parse_rejects_bad_lines():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("learning-rate = 0.1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError, match="true or false"):
        parse_config_text("bidirectional = yes\n")


@pytest.mark.parametrize("text, reason", [
    ("epochs = ten\n", "line 1: epochs must be an int, got 'ten'"),
    ("eta = 0.1\nbogus = 3\n", "line 2: unknown config key 'bogus'"),
    ("# lr\n\neta = fast\n", "line 3: eta must be a float, got 'fast'"),
    ("hidden = 4.5\n", "line 1: hidden must be an int, got '4.5'"),
    ("variant = lstm6\njust some words\n",
     "line 2: expected key = value, got 'just some words'"),
    ("bidirectional = yes\n", "line 1: bidirectional must be true or false, got 'yes'"),
    ("variant = lstm6\neta = -1\n", "line 2: eta must be positive, got -1.0"),
    ("forget = 1\n", "line 1: forget must satisfy -1 < f < 1, got 1.0"),
    ("# grid\nvariant = lsmt6\n", "line 2: unknown variant 'lsmt6'"),
    ("hidden = 0\n", "line 1: hidden must be >= 1, got 0"),
    ("seed = -1\n", "line 1: seed must be >= 0, got -1"),
    ("out =\n", "line 1: out must name a directory, got ''"),
    ("hidden = 5\nhidden = 7\n", "line 2: hidden already set on line 1"),
    ("seq-len = 5\n# again\nseq_len = 6\n", "line 3: seq_len already set on line 1"),
])
def test_config_file_errors_name_the_path_the_line_and_the_reason(tmp_path, text,
                                                                  reason):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config_file(path)
    assert str(err.value) == f"{path}: {reason}"


@pytest.mark.parametrize("field, value", [
    ("data", "tsv:#"), ("data", "tsv:corpus.tsv "), ("out", "runs#1"), ("out", " run"),
    ("out", "a\nb"), ("out", "a\u2028b")])
def test_a_path_the_config_file_cannot_hold_is_rejected(field, value):
    # each would read back from config.txt as another path, or fail to parse
    cfg = replace(ExperimentConfig(), **{field: value})
    with pytest.raises(ValueError) as err:
        cfg.validate()
    assert str(err.value) == (f"{field} cannot hold '#', a line break or surrounding "
                              f"blanks, got {value!r}")


def test_a_non_utf8_out_exits_2_naming_it_and_leaves_no_directory(tmp_path, capsys):
    # an argv byte that is not UTF-8 reaches Python as a lone surrogate
    with pytest.raises(SystemExit) as exc:
        main(cli_train_args(tmp_path, out="ab\udcff"))
    assert exc.value.code == 2
    assert "error: out must be UTF-8 text, got " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_byte_order_mark_leaves_a_config_and_a_corpus_unchanged(tmp_path):
    config = "hidden = 9\nbidirectional = true\n"
    corpus = "1\tgreat movie\n0\tdull plot\n"
    read = []
    for bom in ("", "\ufeff"):
        cfg_path, tsv_path = tmp_path / f"run{len(bom)}.cfg", tmp_path / f"c{len(bom)}.tsv"
        cfg_path.write_text(bom + config, encoding="utf-8")
        tsv_path.write_text(bom + corpus, encoding="utf-8")
        read.append((load_config_file(cfg_path), load_tsv_corpus(tsv_path)))
    assert read[1] == read[0] == ({"hidden": 9, "bidirectional": True},
                                  [(1, ["great", "movie"]), (0, ["dull", "plot"])])


def test_cli_config_file_error_exits_2_with_the_message(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = ten\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: line 1: epochs must be an int, got 'ten'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_config_file_range_error_exits_2_with_the_path_and_line(tmp_path, capsys,
                                                                     command):
    path = tmp_path / "neg.cfg"
    path.write_text("variant = lstm6\neta = -1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: line 2: eta must be positive, got -1.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_config_validation_rejects_unusable_values(tmp_path):
    bad = [dict(variant="gru"), dict(activation="softmax"),
           dict(optimizer="adagrad"), dict(loss="hinge"), dict(hidden=0),
           dict(epochs=0), dict(eta=0.0), dict(eta=-1e-3), dict(forget=1.0),
           dict(vocab=3), dict(samples=5), dict(data="csv:foo"),
           dict(data="synth:mystery"), dict(data="tsv:"), dict(out="")]
    for kw in bad:
        with pytest.raises(ValueError):
            tiny_config(tmp_path, **kw).validate()
    tiny_config(tmp_path).validate()  # the baseline itself is fine


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf"])
def test_a_non_finite_eta_is_rejected_with_its_own_reason(tmp_path, capsys, eta):
    # nan <= 0 is false: a positivity check alone let a nan eta train a step
    reason = f"eta must be finite, got {float(eta)}"
    with pytest.raises(ValueError, match=f"^{reason}$"):
        tiny_config(tmp_path, eta=float(eta)).validate()
    args = cli_train_args(tmp_path)
    at = args.index("--eta")
    args[at:at + 2] = [f"--eta={eta}"]  # "--eta -inf" would read -inf as a flag
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: {reason}" in capsys.readouterr().err
    path = tmp_path / "eta.cfg"
    path.write_text(f"variant = lstm6\neta = {eta}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config_file(path)
    assert str(err.value) == f"{path}: line 2: {reason}"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: line 2: {reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cli_run").exists() and not (tmp_path / "run").exists()


def test_invalid_config_fails_before_any_files_are_written(tmp_path):
    cfg = tiny_config(tmp_path, eta=-1.0)
    with pytest.raises(ValueError):
        cmd_train(cfg)
    assert not (tmp_path / "run").exists()


# --------------------------------------------------------------------------
# Dataset and model assembly.
# --------------------------------------------------------------------------

def test_build_dataset_synth_shapes():
    cfg = ExperimentConfig(seq_len=6, vocab=8, samples=20, seed=3,
                           data="synth:keyword_count")
    train, test = build_dataset(cfg)
    assert train.T == test.T == 6
    assert len(train) + len(test) == 20
    assert train.n_classes == 2
    assert train.tokens.max() < 8


def test_build_dataset_tsv_end_to_end(tmp_path):
    lines = []
    for i in range(12):
        word = "good great fine" if i % 2 else "bad awful poor"
        lines.append(f"{i % 2}\t{word} filler{i}")
    f = tmp_path / "corpus.tsv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = ExperimentConfig(seq_len=5, vocab=10, seed=4, data=f"tsv:{f}")
    train, test = build_dataset(cfg)
    assert len(train) + len(test) == 12
    assert train.T == 5
    assert train.n_classes == 2


def test_build_dataset_tsv_rejects_labels_outside_binary_loss(tmp_path):
    f = tmp_path / "corpus.tsv"
    f.write_text("\n".join(f"{i % 3}\tword stuff" for i in range(12)) + "\n",
                 encoding="utf-8")
    cfg = ExperimentConfig(loss="bce", data=f"tsv:{f}")
    with pytest.raises(ValueError):
        build_dataset(cfg)


def test_build_dataset_tsv_rejects_a_negative_label_by_path(tmp_path):
    f = tmp_path / "corpus.tsv"
    f.write_text("\n".join(f"{i % 2 - 1}\tword stuff" for i in range(12)) + "\n",
                 encoding="utf-8")
    cfg = ExperimentConfig(loss="cce", data=f"tsv:{f}")
    with pytest.raises(ValueError) as info:
        build_dataset(cfg)
    assert str(info.value) == f"{f}: labels must be >= 0, got -1"


def test_build_model_dimensions():
    cfg = ExperimentConfig(variant="lstm6", hidden=5, embed=3, vocab=9)
    model = build_model(cfg, n_classes=2)
    assert model.cell.n == 5 and model.cell.m == 3
    assert model.emb.vocab_size == 9
    assert model.out.W_hy.shape == (1, 5)  # bce reads a single raw score
    multi = build_model(replace(cfg, loss="cce"), n_classes=4)
    assert multi.out.W_hy.shape == (4, 5)
    bidi = build_model(replace(cfg, bidirectional=True), n_classes=2)
    assert bidi.cell_bwd is not None
    assert bidi.out.W_hy.shape == (1, 10)  # reads the 2n concatenation


# --------------------------------------------------------------------------
# Training runs and artifacts.
# --------------------------------------------------------------------------

def test_cmd_train_writes_config_metrics_and_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path)
    result = cmd_train(cfg)
    run = tmp_path / "run"
    assert (run / "config.txt").read_text(encoding="utf-8") == config_to_text(cfg)
    lines = (run / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + cfg.epochs
    assert len(result["records"]) == cfg.epochs
    model, meta = load_checkpoint(result["checkpoint"])
    assert meta["variant"] == "lstm6"


def test_a_diverging_run_exits_and_keeps_the_last_finite_model(tmp_path, monkeypatch):
    real_gradients, real_epoch = training.model_gradients, harness.train_epoch
    current = {}

    def poisoned(model, batch, loss_kind):  # epoch 2 meets a nan gradient
        loss, grads = real_gradients(model, batch, loss_kind)
        if current["epoch"] == 2:
            grads["fwd.U_c"][0, 0] = np.nan
        return loss, grads

    def tracked(*args):
        current["epoch"] = args[-1]
        return real_epoch(*args)

    monkeypatch.setattr(training, "model_gradients", poisoned)
    monkeypatch.setattr(harness, "train_epoch", tracked)
    args = cli_train_args(tmp_path)
    args[args.index("--epochs") + 1] = "3"
    with pytest.raises(FloatingPointError, match="non-finite fwd.U_c in epoch 2"):
        main(args)
    run = tmp_path / "cli_run"
    lines = (run / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0] == METRICS_HEADER and "nan" not in lines[1]
    model, _ = load_checkpoint(run / "model.ckpt")
    assert main(cli_train_args(tmp_path, out="one_epoch")) == 0
    want, _ = load_checkpoint(tmp_path / "one_epoch" / "model.ckpt")
    for key, arr in want.param_arrays(include_frozen=True).items():
        npt.assert_array_equal(model.param_arrays(include_frozen=True)[key], arr)


def test_metrics_header_and_row_format():
    assert METRICS_HEADER == "epoch,train_loss,train_acc,test_loss,test_acc,seconds"
    rec = MetricsRecord(epoch=1, train_loss=0.5, train_acc=0.25,
                        test_loss=0.125, test_acc=1.0, seconds=2.5)
    assert format_metrics_row(rec) == "1,0.5,0.25,0.125,1.0,2.5"


def test_repeated_runs_are_identical_except_wall_clock(tmp_path):
    a = cmd_train(tiny_config(tmp_path, out=str(tmp_path / "a")))
    b = cmd_train(tiny_config(tmp_path, out=str(tmp_path / "b")))
    assert read_csv_without_seconds(a["csv"]) == read_csv_without_seconds(b["csv"])


# --------------------------------------------------------------------------
# Checkpoints.
# --------------------------------------------------------------------------

def eval_loss_on_fresh_batch(model, seed=606):
    rng = np.random.default_rng(seed)
    batch = SequenceBatch(tokens=rng.integers(0, 8, size=(4, 6)),
                          labels=rng.integers(0, 2, size=4))
    return evaluate(model, batch, "bce")[0]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_checkpoint_round_trip_preserves_the_forward_pass(tmp_path, bidirectional):
    cfg = tiny_config(tmp_path, bidirectional=bidirectional, epochs=1)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg)
    loaded, meta = load_checkpoint(path)
    assert meta["bidirectional"] == ("true" if bidirectional else "false")
    assert eval_loss_on_fresh_batch(loaded) == eval_loss_on_fresh_batch(model)
    for key, arr in model.param_arrays(include_frozen=True).items():
        npt.assert_array_equal(arr, loaded.param_arrays(include_frozen=True)[key])


def test_checkpoint_header_is_readable_text(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg)
    blob = path.read_bytes()
    header = blob[: blob.index(b"\nend\n")].decode("utf-8")
    assert header.startswith(CHECKPOINT_MAGIC)
    assert "variant lstm6" in header
    assert "emb.E 8 3" in header


def test_checkpoint_rejects_corruption(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg)
    blob = path.read_bytes()

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(truncated)

    imposter = tmp_path / "imposter.ckpt"
    imposter.write_bytes(b"some other format\nend\n" + blob[blob.index(b"\nend\n") + 5:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(imposter)


@pytest.mark.parametrize("old, new, cause", [
    ("bidirectional false", "bidirectional yes",
     "header field bidirectional must be true or false, got 'yes'"),
    ("trainable true", "trainable 1", "header field trainable must be true or false, got '1'"),
    ("tensors {k}", "tensor list", "header has no tensors line"),
    ("tensors {k}", "tensors {k1}", "header promises {k1} tensors, lists {k}"),
    # a second variant line used to win, failing the load on a missing tensor
    ("m 3", "variant srnn\nm 3", "header field variant is listed twice"),
    # int() and numpy's reshape used to give the reason without the tensor
    ("emb.E 8 3", "emb.E 8 x", "tensor emb.E shape must be an int, got 'x'"),
    ("emb.E 8 3", "emb.E -5 -2", "tensor emb.E shape has a dimension below 1: -5 -2"),
], ids=["bidirectional-flag", "trainable-flag", "no-tensors-line", "count",
        "repeated-field", "tensor-dimension-text", "tensor-dimension-below-1"])
def test_a_malformed_checkpoint_header_is_rejected_by_path(tmp_path, old, new, cause):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg)
    k = len(model.param_arrays(include_frozen=True))
    old, new, cause = (s.format(k=k, k1=k + 1) for s in (old, new, cause))
    blob = path.read_bytes()
    assert f"\n{old}\n".encode() in blob
    path.write_bytes(blob.replace(f"\n{old}\n".encode(), f"\n{new}\n".encode(), 1))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {cause}"


def test_a_numpy_forget_constant_round_trips_through_a_checkpoint(tmp_path):
    rng = make_rng(5)
    cell = init_cell("lstm6", 3, 4, "tanh", np.float64(0.5), rng)
    model = SequenceClassifier(cell, init_output(rng, 4, 1), init_embedding(rng, 8, 3))
    cfg, path, again = ExperimentConfig(), tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(path, model, cfg)
    loaded, meta = load_checkpoint(path)
    assert meta["forget"] == "0.5"
    tokens = make_rng(6).integers(0, 8, size=(6, 4))  # (T, B)
    for got, want in zip(loaded.forward(loaded.emb.E[tokens]),
                         model.forward(model.emb.E[tokens])):
        assert got.tobytes() == want.tobytes()
    save_checkpoint(again, loaded, cfg)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_keeps_a_frozen_embedding_frozen(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    model.emb.trainable = False
    path = tmp_path / "frozen.ckpt"
    save_checkpoint(path, model, cfg)
    loaded, meta = load_checkpoint(path)
    assert meta["trainable"] == "false"
    assert loaded.emb.trainable is False
    assert list(loaded.param_arrays()) == list(model.param_arrays())
    assert "emb.E" not in loaded.param_arrays()


def test_checkpoint_without_a_trainable_line_loads_trainable(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, build_model(cfg, train.n_classes), cfg)
    path.write_bytes(path.read_bytes().replace(b"trainable true\n", b"", 1))
    loaded, _ = load_checkpoint(path)
    assert loaded.emb.trainable is True


def test_checkpoint_without_an_embedding_is_rejected_by_path(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model, cfg)
    blob = path.read_bytes()
    cut = blob.index(b"\nend\n") + len(b"\nend\n")
    count = len(model.param_arrays(include_frozen=True))
    header = blob[:cut].replace(b"emb.E 8 3\n", b"", 1).replace(
        f"tensors {count}\n".encode(), f"tensors {count - 1}\n".encode(), 1)
    path.write_bytes(header + blob[cut + 8 * model.emb.E.size:])  # emb.E comes first
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: header lacks 'emb.E'"


def rewrite_tensors(path, model, extra: dict):
    """Rewrite a checkpoint's tensor list and payload: the model's tensors
    followed by the (name, array) pairs in extra."""
    tensors = [*model.param_arrays(include_frozen=True).items(), *extra.items()]
    blob = path.read_bytes()
    head = blob[:blob.index(b"\ntensors ")].decode("utf-8").splitlines()
    head += [f"tensors {len(tensors)}",
             *(f"{name} {' '.join(map(str, a.shape))}" for name, a in tensors), "end"]
    path.write_bytes(("\n".join(head) + "\n").encode("utf-8") + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in tensors))


@pytest.mark.parametrize("extra, cause", [
    ({"junk": np.ones(2)}, "tensor junk is not one of the model's"),
    ({"fwd.b_c": np.ones(4)}, "tensor fwd.b_c is listed twice"),
    ({"bwd.W_c": np.ones((4, 3)), "bwd.U_c": np.ones((4, 4)), "bwd.b_c": np.ones(4)},
     "tensor bwd.W_c is not one of the model's"),
], ids=["extra", "duplicate", "bwd-under-unidirectional"])
def test_checkpoint_tensors_must_be_exactly_the_models(tmp_path, extra, cause):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg)
    rewrite_tensors(path, model, {})
    load_checkpoint(path)  # the rewrite alone keeps a checkpoint loadable
    rewrite_tensors(path, model, extra)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {cause}"


def test_an_embedding_of_the_wrong_width_is_rejected_at_construction_and_load(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    model = build_model(cfg, train.n_classes)
    with pytest.raises(ValueError) as info:
        replace(model, emb=EmbeddingTable(E=np.zeros((8, 4))))
    assert str(info.value) == "embedding rows are 4 wide, the cells read 3"
    path = tmp_path / "narrow.ckpt"
    save_checkpoint(path, model, cfg)
    # the same 24 payload values read as a (12, 2) table: row 0 is still zero
    path.write_bytes(path.read_bytes().replace(b"emb.E 8 3\n", b"emb.E 12 2\n", 1))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: embedding rows are 2 wide, the cells read 3"


@pytest.mark.parametrize("loss, out_width, cause", [
    ("hinge", 1, "unknown loss 'hinge'"),
    ("bce", 3, "bce needs an output width of 1, checkpoint has 3"),
])
def test_checkpoint_loss_field_is_validated(tmp_path, loss, out_width, cause):
    cfg = tiny_config(tmp_path, loss="cce", data="synth:majority_vote")
    model = build_model(cfg, n_classes=out_width)
    path = tmp_path / "loss.ckpt"
    save_checkpoint(path, model, cfg)
    path.write_bytes(path.read_bytes().replace(b"loss cce\n", f"loss {loss}\n".encode(), 1))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {cause}"


def test_checkpoint_with_a_0d_bce_output_bias_is_rejected_by_path(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "0d.ckpt"
    save_checkpoint(path, build_model(cfg, n_classes=2), cfg)
    # a 0-d b_y holds one value, as (1,) does, so the payload length still matches
    path.write_bytes(path.read_bytes().replace(b"out.b_y 1\n", b"out.b_y\n", 1))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: output layer shapes disagree: W (1, 4), b ()"


def test_checkpoint_with_an_unknown_activation_is_rejected_by_path(tmp_path):
    cfg = tiny_config(tmp_path)
    train, _ = build_dataset(cfg)
    path = tmp_path / "typo.ckpt"
    save_checkpoint(path, build_model(cfg, train.n_classes), cfg)
    path.write_bytes(path.read_bytes().replace(b"activation tanh\n",
                                               b"activation tahn\n", 1))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: unknown activation 'tahn'"


def test_every_truncated_checkpoint_is_rejected_by_path(tmp_path):
    cfg = tiny_config(tmp_path, hidden=2, embed=2, vocab=4)
    train, _ = build_dataset(cfg)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, build_model(cfg, train.n_classes), cfg)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for k in range(len(blob)):
        cut.write_bytes(blob[:k])
        with pytest.raises(ValueError) as info:
            load_checkpoint(cut)
        assert str(info.value).startswith(f"{cut}: "), (k, str(info.value))
    load_checkpoint(path)


@pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                         ("directory", "Is a directory")])
def test_an_unreadable_checkpoint_path_raises_value_error_naming_it(tmp_path, kind,
                                                                    reason):
    path = tmp_path / "model.ckpt"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {reason}$") as info:
        load_checkpoint(path)
    assert isinstance(info.value.__cause__, OSError)


# --------------------------------------------------------------------------
# Sweeps.
# --------------------------------------------------------------------------

def test_sweep_single_cell_equals_plain_train(tmp_path):
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    spec = SweepSpec(base=base, variants=["lstm6"], hiddens=[4],
                     etas=[2e-3], forgets=[0.59])
    cmd_sweep(spec)
    cell_csv = tmp_path / "sweep" / "cells" / "cell000_lstm6_h4" / "metrics.csv"
    direct = cmd_train(tiny_config(tmp_path, out=str(tmp_path / "direct")))
    assert read_csv_without_seconds(cell_csv) == \
        read_csv_without_seconds(direct["csv"])


def test_sweep_summary_is_consistent_with_cell_csvs(tmp_path):
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"), epochs=3)
    spec = SweepSpec(base=base, variants=["lstm6", "lstm_c6"], hiddens=[4],
                     etas=[2e-3], forgets=[0.59])
    result = cmd_sweep(spec)
    lines = Path(result["summary"]).read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    cells_dir = tmp_path / "sweep" / "cells"
    for row, cell in zip(lines[1:], sorted(p.name for p in cells_dir.iterdir())):
        fields = row.split(",")
        csv_rows = [l.split(",") for l in
                    (cells_dir / cell / "metrics.csv").read_text(encoding="utf-8")
                    .splitlines()[1:]]
        test_accs = [float(r[4]) for r in csv_rows]
        assert float(fields[4]) == max(test_accs)
        assert int(fields[5]) == 1 + test_accs.index(max(test_accs))
        assert float(fields[6]) == float(csv_rows[-1][2])


def test_sweep_cells_use_per_cell_seeds(tmp_path):
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    spec = SweepSpec(base=base, variants=["lstm6"], hiddens=[4],
                     etas=[1e-3, 2e-3], forgets=[0.59])
    cmd_sweep(spec)
    cells = sorted((tmp_path / "sweep" / "cells").iterdir())
    seeds = []
    for cell in cells:
        text = (cell / "config.txt").read_text(encoding="utf-8")
        seeds.append(parse_config_text(text)["seed"])
    assert seeds == [777, 778]


def test_parallel_sweep_equals_sequential_sweep(tmp_path, monkeypatch):
    grid = dict(hiddens=[4], etas=[2e-3], forgets=[0.59])
    # every evaluate slice splits, by direction where bidirectional and in
    # row halves otherwise: the --workers 1 sweep forwards each second share
    # in this process's helper, and the pool workers, which start no helper,
    # forward it themselves
    monkeypatch.setattr(training, "EVAL_FORK_MIN_SAMPLE_STEPS", 0)
    # counted in this process, in the --workers 1 sweep
    walks, evals = helper_walks(monkeypatch), []
    monkeypatch.setattr(training, "evaluate", lambda *a: evals.append(a) or evaluate(*a))
    for case, variants, bidirectional in (("uni", ["lstm6", "lstm_c6"], False),
                                          ("bi", ["lstm6", "lstm_c6"], True),
                                          ("halves", ["lstm"], False)):
        runs = []
        for workers in (1, 2):
            walks.clear()
            evals.clear()
            runs.append(cmd_sweep(SweepSpec(base=tiny_config(
                tmp_path, out=str(tmp_path / f"{case}{workers}"),
                bidirectional=bidirectional), workers=workers, variants=variants,
                **grid)))
            if workers == 1:  # each split is one slice
                assert evals and len(walks) == len(evals)
                assert all(walked for *_, walked in walks) == training._can_fork()
        assert runs[0]["rows"] == runs[1]["rows"]


def test_parallel_sweep_of_split_batches_equals_sequential_sweep(tmp_path, monkeypatch):
    # 8 x 80 sample-steps per minibatch: the --workers 1 sweep walks each
    # second half in this process's helper, and the pool workers, which
    # start no helper, walk it themselves
    walks = helper_walks(monkeypatch)
    runs = []
    for workers in (1, 2):
        base = tiny_config(tmp_path, out=str(tmp_path / f"split{workers}"), batch=8,
                           seq_len=80, samples=40)
        assert base.batch * base.seq_len >= training.FORK_MIN_SAMPLE_STEPS
        runs.append(cmd_sweep(SweepSpec(base=base, workers=workers,
                                        variants=["lstm6", "lstm", "srnn"])))
        if workers == 1:
            assert walks and all(walked for *_, walked in walks) == training._can_fork()
    assert runs[0]["rows"] == runs[1]["rows"]
    for cell in sorted((tmp_path / "split1" / "cells").iterdir()):
        assert (read_csv_without_seconds(cell / "metrics.csv") == read_csv_without_seconds(
            tmp_path / "split2" / "cells" / cell.name / "metrics.csv")), cell.name


@pytest.mark.parametrize("workers, variants, pools", [
    (5000, ["lstm6", "lstm_c6"], [2]), (2, ["lstm6"], []), (1, ["lstm6", "lstm_c6"], [])])
def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch, workers,
                                                 variants, pools):
    # a process pool forks all its workers at the first submit, so the pool's
    # size must be capped by the grid; the fake pool runs cells in this process
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", FakePool)
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"), epochs=1)
    result = cmd_sweep(SweepSpec(base=base, variants=variants, hiddens=[4],
                                 workers=workers))
    assert made == pools
    assert len(result["rows"]) == len(variants)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_sweep_rejects_a_worker_count_below_one_with_exit_2(tmp_path, capsys,
                                                                 workers):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--variants", "lstm6", "--hiddens", "4", "--epochs", "1",
              "--workers", workers, "--out", str(tmp_path / "sweep")])
    assert exc.value.code == 2
    assert f"sweep needs workers >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_survives_a_failing_cell(tmp_path, capsys):
    # a regular file where the first cell's directory goes makes that cell fail
    cell = tmp_path / "sweep" / "cells" / "cell000_lstm6_h4"
    cell.parent.mkdir(parents=True)
    cell.write_text("a file where the cell directory goes", encoding="utf-8")
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    spec = SweepSpec(base=base, variants=["lstm6"], hiddens=[4],
                     etas=[1e-3, 2e-3], forgets=[0.59])
    result = cmd_sweep(spec)
    assert len(result["rows"]) == 2
    assert result["rows"][0].endswith("nan,0,nan")
    ok_fields = result["rows"][1].split(",")
    assert ok_fields[0] == "lstm6" and float(ok_fields[4]) >= 0.0


@pytest.mark.parametrize("axes, message", [
    (dict(variants=["lstm6", "lsmt6"]), "sweep axis variants: unknown variant 'lsmt6'"),
    (dict(hiddens=["4", "x"]), "sweep axis hiddens: hidden must be an int, got 'x'"),
    (dict(etas=["fast"]), "sweep axis etas: eta must be a float, got 'fast'"),
    (dict(hiddens=["0"]), "sweep axis hiddens: hidden must be >= 1, got 0"),
    (dict(etas=["-1"]), "sweep axis etas: eta must be positive, got -1.0"),
    (dict(forgets=["1.5"]),
     "sweep axis forgets: forget must satisfy -1 < f < 1, got 1.5"),
    # a value that is not text used to be cast: 4.5 trained at hidden 4
    (dict(hiddens=[4.5]), "sweep axis hiddens: hidden must be an int, got 4.5"),
    (dict(hiddens=[True]), "sweep axis hiddens: hidden must be an int, got True"),
    (dict(etas=[True]), "sweep axis etas: eta must be a float, got True"),
    (dict(forgets=["0.5", np.bool_(False)]),
     "sweep axis forgets: forget must be a float, got np.False_"),
])
def test_sweep_rejects_a_bad_axis_value_before_any_cell_trains(tmp_path, axes,
                                                               message):
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    with pytest.raises(ValueError) as err:
        cmd_sweep(SweepSpec(base=base, **axes))
    assert str(err.value) == message
    assert not (tmp_path / "sweep").exists()


def test_sweep_axis_values_of_their_kind_keep_their_value(tmp_path):
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    cells = harness._sweep_cells(SweepSpec(base=base, hiddens=[np.int64(5), 6],
                                           etas=[1, np.float32(0.5)]))
    assert [(c.hidden, c.eta) for c in cells] == [(5, 1.0), (5, 0.5), (6, 1.0), (6, 0.5)]
    assert {(type(c.hidden), type(c.eta)) for c in cells} == {(int, float)}


def test_cli_sweep_rejects_an_unknown_variant_with_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--variants", "lstm6,lsmt6", "--hiddens", "4",
              "--epochs", "1", "--out", str(tmp_path / "sweep")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sweep axis variants: unknown variant 'lsmt6'" in err
    assert not (tmp_path / "sweep").exists()


def test_failed_sweep_cell_leaves_its_traceback(tmp_path, capsys):
    missing = tmp_path / "no_such.tsv"
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"), data=f"tsv:{missing}")
    result = cmd_sweep(SweepSpec(base=base, variants=["lstm6"], hiddens=[4],
                                 etas=[2e-3], forgets=[0.59]))
    assert result["rows"] == ["lstm6,4,0.002,0.59,nan,0,nan"]
    summary = (tmp_path / "sweep" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[0] == SWEEP_HEADER
    cell = tmp_path / "sweep" / "cells" / "cell000_lstm6_h4"
    assert "sweep cell failed" in capsys.readouterr().err
    text = (cell / "error.txt").read_text(encoding="utf-8")
    assert text.startswith("Traceback (most recent call last):")
    assert "FileNotFoundError" in text and str(missing) in text
    assert "build_dataset" in text


def test_failed_sweep_cell_without_a_writable_out_dir_still_reports(tmp_path, capsys):
    cell = tmp_path / "sweep" / "cells" / "cell000_lstm6_h4"
    cell.parent.mkdir(parents=True)
    cell.write_text("a file where the cell directory goes", encoding="utf-8")
    base = tiny_config(tmp_path, out=str(tmp_path / "sweep"))
    result = cmd_sweep(SweepSpec(base=base, variants=["lstm6"], hiddens=[4],
                                 etas=[2e-3], forgets=[0.59]))
    assert result["rows"] == ["lstm6,4,0.002,0.59,nan,0,nan"]
    assert f"cannot write {cell / 'error.txt'}" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Gradient-check and params commands.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["srnn", "lstm", "lstm6", "lstm_c6"])
def test_relu_kink_margin_equals_a_per_step_recomputation(variant):
    rng = make_rng(880)
    cell = init_cell(variant, 3, 4, "relu", 0.59, rng)
    xs = rng.uniform(-1, 1, size=(5, 2, 3))  # (T, B, m)
    t = cell.tensors
    want = np.inf
    for b in range(2):
        h, c = np.zeros((1, 4)), np.zeros((1, 4))  # one sample: a batch of one
        for x in xs[:, b]:
            if variant == "srnn":
                a = t["W_hx"] @ x + t["W_hh"] @ h[0] + t["b_h"]
                h = srnn_step(cell, *operands(cell, x[None]), h)
                want = min(want, np.abs(a).min())
                continue
            recur = t["u_c"] * h[0] if variant == "lstm_c6" else t["U_c"] @ h[0]
            a = t["W_c"] @ x + recur + t["b_c"]
            step = lstm_step if variant == "lstm" else lstm6_step
            h, c, _ = step(cell, *operands(cell, x[None]), h, c)
            want = min(want, np.abs(a).min(), np.abs(c).min())
    got = _relu_kink_margin(cell, xs)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

def test_cmd_gradcheck_passes_on_healthy_gradients():
    report, ok = cmd_gradcheck(seeds=2)
    assert ok
    checked = [r for r in report if r["status"] == "pass"]
    assert {r["variant"] for r in checked} == {"srnn", "lstm", "lstm6", "lstm_c6"}
    assert all(r["max_rel_err"] <= 1e-6 for r in checked)


def test_cmd_gradcheck_detects_an_injected_error():
    report, ok = cmd_gradcheck(seeds=1, activations=("sigmoid",), corrupt="W_c")
    assert not ok
    failing = {r["group"] for r in report if r["status"] == "FAIL"}
    assert failing == {"W_c"}


# The seed-1 lstm/tanh net of these caps has a U_f entry of -5.99e-9, where
# gradient_rel_error divides by only 1.2e-8: an oracle off by 2.5e-14 there
# reads 2.1e-6 and fails the check, so the oracle must be exact to rounding.
TINY_ENTRY_ARGS = ["gradcheck", "--embed", "2", "--hidden", "2", "--seq-len", "2",
                   "--batch", "1", "--seeds", "2"]


def test_cli_gradcheck_certifies_tiny_entries_in_one_oracle_call(capsys, monkeypatch):
    nets = []
    oracle = harness.finite_difference_oracle

    def spy(model, batch, loss_kind):
        nets.append(model)
        return oracle(model, batch, loss_kind)

    monkeypatch.setattr(harness, "finite_difference_oracle", spy)
    assert main(TINY_ENTRY_ARGS) == 0
    assert "gradcheck: PASS" in capsys.readouterr().out
    drawn = harness._gradcheck_nets(2, 2, 2, 2, 1, ("sigmoid", "tanh", "relu"))
    assert len(nets) == len(set(map(id, nets))) == sum(map(len, drawn.values()))

    # a corrupted tensor fails on its own
    report, ok = cmd_gradcheck(m=2, n=2, seq_len=2, batch=1, seeds=2, corrupt="W_c")
    assert not ok and {r["group"] for r in report if r["status"] == "FAIL"} == {"W_c"}


def test_cli_gradcheck_fails_a_wrong_tiny_entry(capsys, monkeypatch):
    bptt = harness.bptt_gradients

    def off_by_a_tenth(*args, **kwargs):
        loss, grads = bptt(*args, **kwargs)
        if "fwd.U_f" in grads:
            g = grads["fwd.U_f"]
            g[np.abs(g) < 1e-7] *= 1.1
        return loss, grads

    monkeypatch.setattr(harness, "bptt_gradients", off_by_a_tenth)
    assert main(TINY_ENTRY_ARGS) == 1
    assert re.search(r"lstm +tanh +U_f +\S+ FAIL", capsys.readouterr().out)


def test_cmd_gradcheck_rejects_a_corrupt_name_no_tensor_has(monkeypatch):
    # Analytic gradients are keyed by bare names, so "fwd.W_c" matches none.
    monkeypatch.setattr(harness, "make_rng", lambda seed: pytest.fail("a net was drawn"))
    for name in ("W_typo", "fwd.W_c"):
        with pytest.raises(ValueError, match=re.escape(f"cannot corrupt {name!r}")):
            cmd_gradcheck(m=2, n=2, seq_len=2, batch=1, seeds=1, corrupt=name)


def test_cmd_gradcheck_runs_each_route_once_per_drawn_net(monkeypatch):
    # perfbench's harness.gradcheck_nets_used_ratio divides the calls of
    # harness.bptt_gradients by the calls of harness.init_cell; each used
    # net takes one oracle call
    calls = dict.fromkeys(("bptt_gradients", "init_cell"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    sets = []  # the gradient sets of each oracle call
    oracle = harness.finite_difference_oracle
    monkeypatch.setattr(harness, "finite_difference_oracle",
                        lambda *args, **kwargs: sets.append(oracle(*args, **kwargs)) or sets[-1])
    small = dict(m=3, n=3, seq_len=2, batch=1, seeds=2)
    cmd_gradcheck(**small, activations=("sigmoid", "tanh"))
    assert calls["init_cell"] == len(VARIANTS) * 2 * 2
    assert calls["bptt_gradients"] == calls["init_cell"]
    assert len(sets) == calls["init_cell"]

    calls.update(dict.fromkeys(calls, 0))
    sets.clear()
    monkeypatch.setattr(harness, "_relu_kink_margin", lambda *args: 0.0)
    report, _ = cmd_gradcheck(**small, activations=("relu",))
    assert calls["bptt_gradients"] == len(sets) == 0
    assert calls["init_cell"] == len(VARIANTS) * 2
    assert [(r["variant"], r["status"]) for r in report] == \
        [(v, "skip") for v in VARIANTS]


GRADCHECK_CAPS = dict(m=8, n=8, seq_len=5, batch=8, seeds=3)


def test_a_gradient_check_at_the_caps_starts_no_process(monkeypatch):
    # both routes run in this process: no share goes to a helper, and a
    # process that had no helper still has none
    training._stop_helper()
    walks = []
    monkeypatch.setattr(training, "_helper_walk", lambda *args: walks.append(args))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    _, ok = cmd_gradcheck(**GRADCHECK_CAPS)
    assert ok and walks == []
    assert training._helper is None


@pytest.mark.parametrize("caps", ["defaults", "caps"])
def test_cmd_gradcheck_reports_the_same_bytes_whether_or_not_a_helper_runs(monkeypatch,
                                                                           caps):
    # a helper an earlier split call started serves on untouched: the check
    # sends it nothing, and its report keeps every byte
    kwargs = GRADCHECK_CAPS if caps == "caps" else {}
    training._stop_helper()
    want = repr(cmd_gradcheck(**kwargs))
    (model, _), *_ = harness._gradcheck_nets(**GRADCHECK_CAPS,
                                             activations=("tanh",))["lstm", "tanh"]
    batch = SequenceBatch(tokens=make_rng(9100).integers(0, 7, size=(4, 3)),
                          labels=np.array([0, 1, 1, 0]))
    with monkeypatch.context() as mp:
        mp.setattr(training, "FORK_MIN_SAMPLE_STEPS", 0)
        walks = helper_walks(mp)
        training.model_gradients(model, batch, "bce")
    assert [walked for *_, walked in walks] == [training._can_fork()]
    helper = training._helper
    walks = helper_walks(monkeypatch)
    assert repr(cmd_gradcheck(**kwargs)) == want
    assert walks == [] and training._helper is helper
    training._stop_helper()


@pytest.mark.parametrize("corrupt", ["E", "W_c", "b_y"])
def test_cmd_gradcheck_fails_exactly_the_corrupted_tensor(corrupt):
    report, ok = cmd_gradcheck(m=3, n=3, seq_len=3, batch=2, seeds=2,
                               activations=("sigmoid",), corrupt=corrupt)
    assert not ok
    assert {r["group"] for r in report if r["status"] == "FAIL"} == {corrupt}
    assert all(r["status"] == "pass" for r in report if r["group"] != corrupt)


def test_cmd_gradcheck_enforces_desk_scale_caps():
    with pytest.raises(ValueError, match="capped"):
        cmd_gradcheck(m=9)
    with pytest.raises(ValueError, match="capped"):
        cmd_gradcheck(seq_len=6)
    with pytest.raises(ValueError, match="capped"):
        cmd_gradcheck(batch=9)
    for seeds in (0, -2):  # no net drawn: every row would be a skip
        with pytest.raises(ValueError, match=f"seeds >= 1, got {seeds}"):
            cmd_gradcheck(seeds=seeds)
    with pytest.raises(ValueError, match="at least one activation"):
        cmd_gradcheck(activations=())


def test_cmd_params_reports_counts():
    info = cmd_params("lstm", 32, 100)
    assert info["params"] == 53200 and info["macs"] == 52800
    assert cmd_params("lstm_c6", 128, 128, bidirectional=True)["params"] == 33280


# --------------------------------------------------------------------------
# CLI surface.
# --------------------------------------------------------------------------

def cli_train_args(tmp_path, out="cli_run"):
    return ["train", "--variant", "lstm6", "--activation", "tanh",
            "--hidden", "4", "--embed", "3", "--seq-len", "6",
            "--vocab", "8", "--eta", "0.002", "--epochs", "1",
            "--batch", "4", "--samples", "12", "--seed", "777",
            "--out", str(tmp_path / out)]


def test_cli_train_runs_and_reports_artifacts(tmp_path, capsys):
    assert main(cli_train_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out and "checkpoint:" in out
    assert (tmp_path / "cli_run" / "metrics.csv").exists()
    assert (tmp_path / "cli_run" / "model.ckpt").exists()


@pytest.mark.parametrize("content,reason", [
    ("".join(f"{i % 3}\tword stuff\n" for i in range(12)),
     "bce needs labels in {0, 1}, file has [0, 1, 2]"),
    (None, "No such file or directory"),
    ("0\tone\n1\ttwo\n0\tthree\n", "need at least 10 samples, got 3"),
    (b"0\tcaf\xe9\n" * 12, "not UTF-8 text (invalid continuation byte at byte 5)"),
], ids=["bce-label-2", "missing", "too-small", "not-utf8"])
def test_cli_train_data_error_exits_2_and_leaves_no_directory(tmp_path, capsys,
                                                              content, reason):
    path = tmp_path / "corpus.tsv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    args = cli_train_args(tmp_path) + ["--data", f"tsv:{path}"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {reason}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cli_run").exists()


@pytest.mark.parametrize("content,reason", [
    (b"variant = lstm6\nout = caf\xe9\n", "not UTF-8 text (invalid continuation byte at byte 25)"),
    (None, "No such file or directory"),
    ("directory", "Is a directory"),
], ids=["not-utf8", "missing", "directory"])
def test_cli_train_config_read_error_exits_2_naming_the_path(tmp_path, capsys,
                                                             content, reason):
    path = tmp_path / "run.cfg"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content == "directory":
        path.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(cli_train_args(tmp_path) + ["--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {reason}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cli_run").exists()


@pytest.mark.parametrize("task,n_classes", [("first_token_class", 4), ("majority_vote", 3)])
def test_cli_train_bce_on_a_multiclass_task_exits_2_and_leaves_no_directory(
        tmp_path, capsys, task, n_classes):
    with pytest.raises(SystemExit) as exc:
        main(cli_train_args(tmp_path) + ["--data", f"synth:{task}", "--loss", "bce"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: bce needs 2 classes, synth:{task} has {n_classes}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cli_run").exists()


def test_cli_explicit_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("eta = 0.01\nhidden = 7\n", encoding="utf-8")
    args = cli_train_args(tmp_path, out="override_run")
    args += ["--config", str(cfg_file)]
    assert main(args) == 0
    written = parse_config_text(
        (tmp_path / "override_run" / "config.txt").read_text(encoding="utf-8"))
    assert written["eta"] == 0.002  # explicit flag wins
    assert written["hidden"] == 4


def test_cli_config_file_overrides_defaults(tmp_path):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("hidden = 5\n", encoding="utf-8")
    args = ["train", "--config", str(cfg_file), "--variant", "lstm6",
            "--embed", "3", "--seq-len", "6", "--vocab", "8",
            "--epochs", "1", "--samples", "12",
            "--out", str(tmp_path / "cfg_run")]
    assert main(args) == 0
    written = parse_config_text(
        (tmp_path / "cfg_run" / "config.txt").read_text(encoding="utf-8"))
    assert written["hidden"] == 5
    assert written["eta"] == 1e-3  # untouched default


def test_cli_params_command(capsys):
    assert main(["params", "lstm", "32", "100"]) == 0
    out = capsys.readouterr().out
    assert "53200" in out and "52800" in out
    assert main(["params", "lstm6", "32", "100", "--json-lines"]) == 0
    out = capsys.readouterr().out
    assert '"params": 13300' in out


@pytest.mark.parametrize("argv, reason", [
    (["gradcheck", "--embed", "9"], "gradcheck dims are capped at 8, got m=9 n=4"),
    (["params", "lstm6", "0", "4"], "dims must be >= 1, got m=0 n=4"),
    (["bench", "lstm6"], "argument command: invalid choice: 'bench'"),
    (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_cli_bad_argument_exits_2_with_the_reason(tmp_path, capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path / "run")] if argv[0] == "train" else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_empty_out_exits_2_before_writing_anything(tmp_path, capsys, monkeypatch,
                                                       command):
    # Path("") is the working directory: the run would be written into it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *cli_train_args(tmp_path)[1:-2], "--out", ""])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: out must name a directory, got ''" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_out_under_a_regular_file_exits_2_with_the_reason(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    args = cli_train_args(tmp_path)[1:-2] + ["--out", str(afile / "run")]
    with pytest.raises(SystemExit) as exc:
        main([command, *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: [Errno 20] Not a directory: '{afile / 'run'}'" in err
    assert "Traceback" not in err


def test_cli_gradcheck_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["gradcheck", "--seeds", "1", "--embed", "3", "--hidden", "3",
                 "--seq-len", "2", "--batch", "1"]) == 0
    assert "gradcheck: PASS" in capsys.readouterr().out
    import slimrnn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "cmd_gradcheck", lambda **kw: ([], False))
    assert main(["gradcheck"]) == 1
    assert "gradcheck: FAIL" in capsys.readouterr().out


def test_cli_sweep_command(tmp_path, capsys):
    args = ["sweep", "--variant", "lstm6", "--activation", "tanh",
            "--hidden", "4", "--embed", "3", "--seq-len", "6",
            "--vocab", "8", "--eta", "0.002", "--epochs", "1",
            "--batch", "4", "--samples", "12", "--seed", "777",
            "--out", str(tmp_path / "cli_sweep"),
            "--variants", "lstm6,lstm_c6", "--etas", "0.001,0.002"]
    assert main(args) == 0
    assert "summary:" in capsys.readouterr().out
    lines = (tmp_path / "cli_sweep" / "summary.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5  # 2 variants x 2 etas


def test_cli_sweep_omitted_axes_keep_the_base_config(tmp_path):
    args = ["sweep", "--variant", "lstm6", "--activation", "tanh",
            "--hidden", "6", "--embed", "3", "--seq-len", "6",
            "--vocab", "8", "--eta", "0.002", "--forget", "0.3",
            "--epochs", "1", "--batch", "4", "--samples", "12",
            "--out", str(tmp_path / "base_sweep")]
    assert main(args) == 0
    lines = (tmp_path / "base_sweep" / "summary.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("lstm6,6,0.002,0.3,")
    assert (tmp_path / "base_sweep" / "cells" / "cell000_lstm6_h6").is_dir()


def test_readme_documents_every_cli_subcommand():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    [subs] = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sorted(re.findall(r"^### (\S+)$", section, re.M)) == sorted(subs.choices)
    count = re.search(r"with (\w+) subcommands", section).group(1)
    words = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight")
    assert words.index(count) == len(subs.choices)


def test_cli_config_flags_follow_the_config_schema():
    parser = build_parser()
    defaults = ExperimentConfig()
    for command in ("train", "sweep"):
        for f in fields(ExperimentConfig):
            flag = "--" + f.name.replace("_", "-")
            kind = type(getattr(defaults, f.name))
            if kind is bool:
                args = parser.parse_args([command, flag])
                assert getattr(args, f.name) is True, (command, flag)
                continue
            sample = {int: "7", float: "0.25"}.get(kind) or CHOICES.get(
                f.name, ("some-text",))[-1]
            value = getattr(parser.parse_args([command, flag, sample]), f.name)
            assert type(value) is kind and value == kind(sample), (command, flag)
        for name in CHOICES:
            flag = "--" + name.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, "bogus"])
            assert exc.value.code == 2
    for name in CHOICES:
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
            replace(defaults, **{name: "bogus"}).validate()
