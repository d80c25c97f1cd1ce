"""Experiment harness: configuration, dataset and model assembly,
checkpoints, and the four commands behind the command line.

File contracts owned here, each format's fields named once:
  metrics CSV   METRICS_HEADER: MetricsRecord's fields, one row per epoch
  sweep CSV     SWEEP_HEADER: the SWEEP_AXES fields, then SWEEP_SCORES
  config file   one "key = value" line per FIELD_TYPES name (_ spelled -);
                # starts a comment
  checkpoint    CHECKPOINT_MAGIC, one "name value" line per CHECKPOINT_FIELDS
                entry, the tensor count and name+shape list (emb.E first and
                always present), "end", then the tensors as little-endian
                float64, concatenated in header order
Every value in them is written by _format_value and read by _parse_value.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cells import (ADAPTIVE_FIELDS, VARIANTS, init_cell, init_output, param_count,
                    step_mac_count)
from .data import (SequenceBatch, SYNTH_KINDS, build_vocab, encode_tokens, init_embedding,
                   load_tsv_corpus, pad_or_truncate, synth_generate)
from .numerics import ACTIVATIONS, make_rng
from .training import (LOSSES, MetricsRecord, OPTIMIZERS, OptimizerState,
                       SequenceClassifier, _flat_views, gradient_rel_error, model_from_arrays,
                       model_spec, train_epoch)
# perfbench's tracer times cmd_gradcheck's two routes under these names.
from .training import finite_difference_model as finite_difference_oracle
from .training import model_gradients as bptt_gradients

METRICS_HEADER = ",".join(f.name for f in fields(MetricsRecord))
# SweepSpec axis -> the ExperimentConfig field it varies.
SWEEP_AXES = {"variants": "variant", "hiddens": "hidden", "etas": "eta",
              "forgets": "forget"}
SWEEP_SCORES = ("best_test_acc", "best_epoch", "final_train_acc")
SWEEP_HEADER = ",".join([*SWEEP_AXES.values(), *SWEEP_SCORES])
CHECKPOINT_MAGIC = "slimrnn-ckpt 1"
# The checkpoint header's fields and their types, in file order. A file
# written before bidirectional or trainable existed reads these defaults.
CHECKPOINT_FIELDS = {"variant": str, "m": int, "n": int, "activation": str,
                     "forget": float, "bidirectional": bool, "loss": str,
                     "trainable": bool}
CHECKPOINT_DEFAULTS = {"bidirectional": "false", "trainable": "true"}

# The closed value set of each ExperimentConfig field that has one: validate(),
# checkpoint loading and the CLI's choices all read this map.
CHOICES = {"variant": VARIANTS, "activation": ACTIVATIONS,
           "optimizer": OPTIMIZERS, "loss": LOSSES}
# The least value validate() accepts for each ExperimentConfig int field.
MINIMA = {"hidden": 1, "embed": 1, "seq_len": 1, "epochs": 1, "batch": 1,
          "vocab": 4, "samples": 10, "seed": 0}


@dataclass
class ExperimentConfig:
    """Everything one training run needs. Field names double as config
    file keys (with _ spelled -, matching the CLI flags)."""

    variant: str = "lstm"
    activation: str = "sigmoid"
    hidden: int = 100
    embed: int = 32
    seq_len: int = 500
    vocab: int = 5000
    eta: float = 1e-3
    forget: float = 0.59
    epochs: int = 100
    batch: int = 32
    optimizer: str = "adam"
    loss: str = "bce"
    seed: int = 1234
    bidirectional: bool = False
    data: str = "synth:keyword_count"
    samples: int = 2500
    out: str = "run_out"

    def validate(self):
        """Reject unusable values before any compute or file I/O."""
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name, least in MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not self.out:  # Path("") is the working directory
            raise ValueError("out must name a directory, got ''")
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not -1.0 < self.forget < 1.0:
            raise ValueError(f"forget must satisfy -1 < f < 1, got {self.forget}")
        kind, _, rest = self.data.partition(":")
        if kind == "synth":
            if rest not in SYNTH_KINDS:
                raise ValueError(f"unknown synthetic task {rest!r}")
        elif kind == "tsv":
            if not rest:
                raise ValueError("tsv data source needs a path: tsv:<path>")
        else:
            raise ValueError(f"data must be synth:<kind> or tsv:<path>, got {self.data!r}")
        # config_to_text must write back what it read: a comment, a line
        # break or surrounding blanks would be lost from the file's value,
        # and a lone surrogate (an undecodable argv byte) has no UTF-8 form
        for name in ("data", "out"):
            value = getattr(self, name)
            if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
                raise ValueError(f"{name} cannot hold '#', a line break or surrounding "
                                 f"blanks, got {value!r}")
            if any("\ud800" <= ch <= "\udfff" for ch in value):
                raise ValueError(f"{name} must be UTF-8 text, got {value!r}")


# Field name -> value type, in declaration order: the config file's keys
# and the CLI's flags both come from here.
FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str, "bool": bool}[f.type]
               for f in fields(ExperimentConfig)}


def _format_value(v) -> str:
    """A value's text in every file written here: a bool as true or false,
    a float as the shortest repr of its Python value, anything else (an
    integer, numpy's too) as str(). _parse_value reads it back exactly."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _parse_value(kind: type, text, what: str):
    """text as kind, a bool only from true or false. A value that is not
    text must be of kind already: an integer (Python or numpy) for an int,
    an integer or a float for a float, and never a bool. The ValueError
    names what."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"{what} must be true or false, got {text!r}")
        return text == "true"
    numbers = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
    if isinstance(text, str) or (isinstance(text, numbers.get(kind, ()))
                                 and not isinstance(text, bool)):
        try:
            return kind(text)
        except ValueError:
            pass
    article = "an" if kind is int else "a"
    raise ValueError(f"{what} must be {article} {kind.__name__}, got {text!r}")


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization: every field, declaration order, one
    key = value per line. Parsing this text reproduces cfg exactly."""
    lines = [f"{name.replace('_', '-')} = {_format_value(getattr(cfg, name))}"
             for name in FIELD_TYPES]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict:
    """Parse config-file text into a field -> typed value dict. Unknown
    or repeated keys, malformed lines and wrong-typed or out-of-range
    values raise, naming the line; # starts a comment."""
    out: dict = {}
    seen: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: {key} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            out[key] = _parse_value(FIELD_TYPES[key], value, key)
            replace(ExperimentConfig(), **{key: out[key]}).validate()
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


@contextmanager
def _reading(path):
    """Re-raise a failure to read path, or to decode it as UTF-8, as
    ValueError "<path>: <reason>", chained: a sweep cell's error.txt shows
    the cause."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_config_file(path) -> dict:
    """parse_config_text over a file, a leading byte-order mark skipped; its
    errors read "<path>: line N: <reason>", and one that cannot be read or
    is not UTF-8 raises as _reading says."""
    with _reading(path), open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        return parse_config_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def build_dataset(cfg: ExperimentConfig):
    """Materialize (train, test) batches for a config's data source.

    synth:<kind> draws from the task generator with the run seed; bce on
    a task of more than 2 classes raises ValueError.
    tsv:<path> loads label<TAB>text lines, shuffles with the run seed,
    splits 80/20, builds the vocabulary on the training split only,
    then encodes and pre-pads both splits to seq_len. A file that cannot
    be read or used raises ValueError "<path>: <reason>".
    """
    kind, _, rest = cfg.data.partition(":")
    if kind == "synth":
        train, test = synth_generate(rest, cfg.samples, cfg.seq_len, cfg.vocab,
                                     make_rng(cfg.seed))
        if cfg.loss == "bce" and train.n_classes != 2:
            raise ValueError(f"bce needs 2 classes, {cfg.data} has {train.n_classes}")
        return train, test
    with _reading(rest):
        corpus = load_tsv_corpus(rest)
    if len(corpus) < 10:
        raise ValueError(f"{rest}: need at least 10 samples, got {len(corpus)}")
    labels = sorted({label for label, _ in corpus})
    n_classes = max(labels) + 1
    if min(labels) < 0:
        raise ValueError(f"{rest}: labels must be >= 0, got {min(labels)}")
    if cfg.loss == "bce" and not set(labels) <= {0, 1}:
        raise ValueError(f"{rest}: bce needs labels in {{0, 1}}, file has {labels}")
    order = make_rng(cfg.seed).permutation(len(corpus))
    cut = int(round(0.8 * len(corpus)))
    train_rows = [corpus[i] for i in order[:cut]]
    test_rows = [corpus[i] for i in order[cut:]]
    vocab = build_vocab([toks for _, toks in train_rows], cfg.vocab)

    def encode_split(rows):
        toks = np.array([pad_or_truncate(encode_tokens(vocab, t), cfg.seq_len)
                         for _, t in rows], dtype=np.int64)
        labs = np.array([label for label, _ in rows], dtype=np.int64)
        return SequenceBatch(tokens=toks, labels=labs, n_classes=n_classes)

    return encode_split(train_rows), encode_split(test_rows)


def build_model(cfg: ExperimentConfig, n_classes: int) -> SequenceClassifier:
    """Fresh model for a config: embedding, cell(s), output layer, all
    drawn from one generator seeded with cfg.seed in that fixed order."""
    rng = make_rng(cfg.seed)
    emb = init_embedding(rng, cfg.vocab, cfg.embed)
    cells = [init_cell(cfg.variant, cfg.embed, cfg.hidden, cfg.activation, cfg.forget, rng)
             for _ in range(2 if cfg.bidirectional else 1)]
    out = init_output(rng, len(cells) * cfg.hidden, 1 if cfg.loss == "bce" else n_classes)
    return SequenceClassifier(cells[0], out, emb, *cells[1:])


def format_metrics_row(rec: MetricsRecord) -> str:
    return ",".join(map(_format_value, astuple(rec)))


def save_checkpoint(path, model: SequenceClassifier, cfg: ExperimentConfig):
    """Write the text header and the little-endian float64 payload."""
    tensors = model.param_arrays(include_frozen=True)
    meta = {**model_spec(model), "loss": cfg.loss}
    lines = [CHECKPOINT_MAGIC,
             *(f"{name} {_format_value(meta[name])}" for name in CHECKPOINT_FIELDS),
             f"tensors {len(tensors)}",
             *(f"{name} {' '.join(map(str, arr.shape))}" for name, arr in tensors.items()),
             "end"]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in tensors.values())
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _unique(pairs, what: str) -> dict:
    """dict(pairs), refusing a key that comes twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} {key} is listed twice")
        out[key] = value
    return out


def _parse_checkpoint(blob: bytes) -> tuple[SequenceClassifier, dict]:
    magic = CHECKPOINT_MAGIC.encode("utf-8") + b"\n"
    if not blob.startswith(magic):
        raise ValueError(f"not a checkpoint file (bad magic {blob[:len(magic)]!r})")
    head_end = blob.find(b"\nend\n", len(magic) - 1)
    if head_end < 0:
        raise ValueError("header has no end line (file truncated?)")
    lines = blob[:head_end].decode("utf-8").splitlines()[1:]
    at = next((i for i, line in enumerate(lines) if line.startswith("tensors ")), None)
    if at is None:
        raise ValueError("header has no tensors line")
    meta = _unique((line.partition(" ")[::2] for line in lines[:at]), "header field")
    texts = {**CHECKPOINT_DEFAULTS, **meta}
    header = {name: _parse_value(kind, texts[name], f"header field {name}")
              for name, kind in CHECKPOINT_FIELDS.items()}
    for key in ("variant", "loss"):
        if header[key] not in CHOICES[key]:
            raise ValueError(f"unknown {key} {header[key]!r}")
    count = _parse_value(int, lines[at].partition(" ")[2], "header field tensors")
    listed = lines[at + 1:]
    if len(listed) != count:
        raise ValueError(f"header promises {count} tensors, lists {len(listed)}")
    shapes = {}
    for name, dims in _unique((line.partition(" ")[::2] for line in listed), "tensor").items():
        shapes[name] = tuple(_parse_value(int, d, f"tensor {name} shape") for d in dims.split())
        if any(d < 1 for d in shapes[name]):
            raise ValueError(f"tensor {name} shape has a dimension below 1: {dims}")
    size = sum(map(math.prod, shapes.values()))
    payload = blob[head_end + len(b"\nend\n"):]
    if len(payload) != 8 * size:
        raise ValueError(f"payload is {len(payload)} bytes, header describes "
                         f"{8 * size} (file truncated?)")
    # every tensor is a view of one writable copy of the payload
    arrays = _flat_views(np.frombuffer(payload, dtype="<f8").copy(), shapes)
    model = model_from_arrays(header, arrays)
    if header["loss"] == "bce" and len(model.out.b_y) != 1:
        raise ValueError(f"bce needs an output width of 1, checkpoint has {len(model.out.b_y)}")
    known = model.param_arrays(include_frozen=True)
    extra = next((name for name in shapes if name not in known), None)
    if extra is not None:
        raise ValueError(f"tensor {extra} is not one of the model's")
    return model, meta


def load_checkpoint(path) -> tuple[SequenceClassifier, dict]:
    """Rebuild a model from a checkpoint. Forward passes through the
    result are bit-identical to the model that was saved. A file that
    cannot be read or is not a whole checkpoint raises ValueError
    "<path>: <reason>"; one written before the trainable field existed
    loads as trainable."""
    with _reading(path), open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_checkpoint(blob)
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc.args[0]!r}") from None
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def cmd_train(cfg: ExperimentConfig, log=None):
    """Run one training job: per-epoch metrics CSV plus a final
    checkpoint under cfg.out. Returns a result dict with the paths and
    the metric records. The config and the data are checked before cfg.out
    is created, so a bad one (ValueError) leaves no directory behind. A
    diverging epoch (see train_epoch) writes no metrics row: the model as
    it stood is checkpointed and the FloatingPointError re-raised."""
    cfg.validate()
    train, test = build_dataset(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg, train.n_classes)
    opt = OptimizerState(kind=cfg.optimizer, eta=cfg.eta)
    (out_dir / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    csv_path = out_dir / "metrics.csv"
    ckpt_path = out_dir / "model.ckpt"
    records: list[MetricsRecord] = []
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for epoch in range(1, cfg.epochs + 1):
            try:
                rec = train_epoch(model, train, test, opt, cfg.loss, cfg.batch,
                                  cfg.seed, epoch)
            except FloatingPointError:
                save_checkpoint(ckpt_path, model, cfg)
                raise
            records.append(rec)
            fh.write(format_metrics_row(rec) + "\n")
            fh.flush()
            if log is not None:
                log(f"epoch {rec.epoch}: train_acc={rec.train_acc:.4f} "
                    f"test_acc={rec.test_acc:.4f} ({rec.seconds:.2f}s)")
    save_checkpoint(ckpt_path, model, cfg)
    return {"csv": str(csv_path), "checkpoint": str(ckpt_path), "records": records}


@dataclass
class SweepSpec:
    """Grid of training runs: the cross product of the axis lists below
    over a shared base config. An empty axis holds the base config's
    value. Cell i trains with seed base.seed + i."""

    base: ExperimentConfig
    variants: list = field(default_factory=list)
    hiddens: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    forgets: list = field(default_factory=list)
    workers: int = 1


def _sweep_cells(spec: SweepSpec):
    """One config per grid cell. Every axis value is typed and validated
    as a config value here, so a typo or an out-of-range value fails before
    any cell trains; a cell that fails later still gives a nan row."""
    axes = {}
    for axis, name in SWEEP_AXES.items():
        axes[name] = []
        for value in getattr(spec, axis) or [getattr(spec.base, name)]:
            try:
                value = _parse_value(FIELD_TYPES[name], value, name)
                replace(spec.base, **{name: value}).validate()
            except ValueError as exc:
                raise ValueError(f"sweep axis {axis}: {exc}") from None
            axes[name].append(value)
    cells = []
    for idx, values in enumerate(itertools.product(*axes.values())):
        kw = dict(zip(axes, values))
        name = f"cell{idx:03d}_{kw['variant']}_h{kw['hidden']}"
        cells.append(replace(spec.base, **kw, seed=spec.base.seed + idx,
                             out=str(Path(spec.base.out) / "cells" / name)))
    return cells


def _run_sweep_cell(cfg: ExperimentConfig) -> str:
    """One grid cell -> one summary CSV row. Never raises: a failed cell
    reports nan metrics so the rest of the sweep still runs, and leaves
    its traceback in error.txt under the cell's out directory."""
    try:
        records = cmd_train(cfg)["records"]
        best = max(r.test_acc for r in records)
        best_epoch = next(r.epoch for r in records if r.test_acc == best)
        scores = (best, best_epoch, records[-1].train_acc)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        print(f"sweep cell failed ({cfg.out}): {exc}", file=sys.stderr)
        out_dir = Path(cfg.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.txt").write_text(traceback.format_exc(), encoding="utf-8")
        except OSError as err:
            print(f"cannot write {out_dir / 'error.txt'}: {err}", file=sys.stderr)
        scores = (math.nan, 0, math.nan)
    axes = (getattr(cfg, name) for name in SWEEP_AXES.values())
    return ",".join(map(_format_value, (*axes, *scores)))


def cmd_sweep(spec: SweepSpec):
    """Run every cell of the grid (optionally across processes, never more
    than there are cells) and write summary.csv under the base output
    directory. Per-cell seeds make the summary independent of worker count."""
    spec.base.validate()
    if spec.workers < 1:
        raise ValueError(f"sweep needs workers >= 1, got {spec.workers}")
    cells = _sweep_cells(spec)
    out_dir = Path(spec.base.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(spec.workers, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_cell, cells))
    else:
        rows = [_run_sweep_cell(cfg) for cfg in cells]
    summary = out_dir / "summary.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return {"summary": str(summary), "rows": rows}


def _bare_names(grads: dict) -> dict:
    """A one-cell model's gradients keyed by bare tensor names (E, W_c, ..., b_y)."""
    return {key.split(".", 1)[1]: g for key, g in grads.items()}


def _gradcheck_nets(m: int, n: int, seq_len: int, seeds: int, batch: int,
                    activations) -> dict:
    """cmd_gradcheck's nets: (variant, activation) -> the (model, batch)
    pairs its seeds draw, in draw order."""
    vocab = 7
    drawn = {}
    for variant in VARIANTS:
        for act in activations:
            nets = drawn[variant, act] = []
            for s in range(seeds):
                rng = make_rng(9000 + 131 * s)
                mm = int(rng.integers(2, m + 1)) if m > 2 else m
                nn = int(rng.integers(2, n + 1)) if n > 2 else n
                tt = int(rng.integers(2, seq_len + 1)) if seq_len > 2 else seq_len
                bb = int(rng.integers(1, batch + 1))
                emb = init_embedding(rng, vocab, mm)
                cell = init_cell(variant, mm, nn, act, 0.59, rng)
                out = init_output(rng, nn, 1)
                tokens = rng.integers(0, vocab, size=(bb, tt))
                labels = rng.integers(0, 2, size=bb)
                nets.append((SequenceClassifier(cell, out, emb),
                             SequenceBatch(tokens=tokens, labels=labels)))
    return drawn


def cmd_gradcheck(m: int = 4, n: int = 4, seq_len: int = 3, seeds: int = 3,
                  batch: int = 2, activations=("sigmoid", "tanh", "relu"),
                  corrupt: str | None = None):
    """Certify the analytic gradients against the complex-step oracle.

    m, n, seq_len cap desk-scale nets (m, n <= 8, seq_len <= 5 enforced);
    each seed draws dims at or below the caps, builds a fresh net with a
    trainable embedding, and compares every tensor's gradient; a tensor
    passes at a worst relative error of at most 1e-6. Every net is drawn
    first; then each takes one bptt_gradients call and one oracle call
    (finite_difference_model), both in this process. No net is skipped:
    the complex step moves only imaginary parts, so both routes see every
    relu argument on the same side of the kink, and both take relu's
    derivative as 0 at exactly 0. The corrupt argument injects an error
    into one named tensor's analytic gradient so the failure path itself
    stays testable; it takes a bare name (E, W_hy, b_y or a cell tensor
    such as W_c), and any other raises ValueError.

    Returns (report_rows, ok). Each row carries variant, activation,
    tensor group (the bare name, as corrupt takes it), worst relative
    error, and a pass or FAIL status.
    """
    if not 1 <= m <= 8 or not 1 <= n <= 8:
        raise ValueError(f"gradcheck dims are capped at 8, got m={m} n={n}")
    if not 1 <= seq_len <= 5:
        raise ValueError(f"gradcheck sequence length is capped at 5, got {seq_len}")
    if not 1 <= batch <= 8:
        raise ValueError(f"gradcheck batch is capped at 8, got {batch}")
    if seeds < 1:
        raise ValueError(f"gradcheck needs seeds >= 1, got {seeds}")
    if not activations:
        raise ValueError("gradcheck needs at least one activation")
    tensors = {"E", "W_hy", "b_y"}.union(*ADAPTIVE_FIELDS.values())
    if corrupt is not None and corrupt not in tensors:
        raise ValueError(f"gradcheck cannot corrupt {corrupt!r}: no tensor has that name")
    report = []
    ok = True
    for (variant, act), nets in _gradcheck_nets(m, n, seq_len, seeds, batch,
                                                activations).items():
        worst: dict[str, float] = {}
        for model, data in nets:
            analytic = _bare_names(bptt_gradients(model, data, "bce")[1])
            if corrupt is not None and corrupt in analytic:
                analytic[corrupt] = analytic[corrupt] + 1.0
            oracle = _bare_names(finite_difference_oracle(model, data, "bce"))
            for name, a in analytic.items():
                worst[name] = max(worst.get(name, 0.0), gradient_rel_error(a, oracle[name]))
        for name, err in worst.items():
            status = "pass" if err <= 1e-6 else "FAIL"
            if status == "FAIL":
                ok = False
            report.append({"variant": variant, "activation": act,
                           "group": name, "max_rel_err": err,
                           "status": status})
    return report, ok


def cmd_params(variant: str, m: int, n: int, bidirectional: bool = False) -> dict:
    """Parameter and per-step multiply-accumulate counts for one cell."""
    return {"variant": variant, "m": m, "n": n, "bidirectional": bidirectional,
            "params": param_count(variant, m, n, bidirectional),
            "macs": step_mac_count(variant, m, n)}

