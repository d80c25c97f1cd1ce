"""Print a fingerprint of every number the engine computes on the benchmark's models.

    python3 tools/bitprint.py

For each of the fifteen models of perfbench's workloads (desk, paper and
certify, five models each) it prints one `workload/model sha256` line. The
hash covers, in order: the loss and every gradient of two minibatches, the
parameters after the two Adam steps those gradients drive, evaluate's
loss and accuracy on the workload's test split, and the raw scores one
SequenceClassifier.forward call gives over that split, whose bits the
accuracy and a rounded loss can hide. Two more lines hash the
reports of `cmd_gradcheck()` at its defaults and at its caps (m = n = 8,
T = 5, B = 8, three seeds). The last three hash the files a run writes:
a tiny one- and two-direction `cmd_train` run's config.txt (its temporary
path masked), model.ckpt and metrics.csv (without the seconds column), and
a two-cell `cmd_sweep` run's summary.csv.

Run it on two trees and compare the output: identical lines mean the change
kept the bits of every loss, gradient, parameter, evaluate result and raw
score, and the bytes of every file. Only perfbench.core's workload table is
imported; no benchmark runs. BLAS is pinned to one thread, as
perfbench/run.py pins it, and the engine is imported from the src/
directory next to tools/. It takes about 3 s on a 2-vCPU machine.
"""

import os

# One BLAS thread, pinned before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import slimrnn  # noqa: E402
from perfbench.core import WORKLOADS  # noqa: E402
from slimrnn.data import embed_lookup  # noqa: E402
from slimrnn.harness import SweepSpec, cmd_sweep, cmd_train  # noqa: E402

STEPS = 2
GRADCHECK_CAPS = dict(m=8, n=8, seq_len=5, batch=8, seeds=3)
RUN = dict(variant="lstm6", activation="tanh", hidden=4, embed=3, seq_len=6, vocab=8,
           eta=2e-3, epochs=2, batch=4, samples=12, seed=777)


def _update(h, name: str, value) -> None:
    arr = np.asarray(value)
    h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def model_digest(workload, spec) -> str:
    cfg = spec.config(workload.config)
    train, test = slimrnn.build_dataset(cfg)
    model = slimrnn.build_model(cfg, train.n_classes)
    opt = slimrnn.OptimizerState(kind=cfg.optimizer, eta=cfg.eta)
    params = model.param_arrays()
    h = hashlib.sha256()
    B = cfg.batch
    for k in range(STEPS):
        loss, grads = slimrnn.model_gradients(
            model, train.subset(np.arange(k * B, (k + 1) * B)), cfg.loss)
        _update(h, f"loss {k}", loss)
        for name, g in grads.items():
            _update(h, f"grad {k} {name}", g)
        slimrnn.optimizer_step(opt, params, grads)
    for name, arr in model.param_arrays(include_frozen=True).items():
        _update(h, f"param {name}", arr)
    loss, acc = slimrnn.evaluate(model, test, cfg.loss)
    _update(h, "evaluate", [loss, acc])
    scores, _ = model.forward(embed_lookup(model.emb, test.tokens.T))
    _update(h, "scores", scores)
    return h.hexdigest()


def gradcheck_digest(**kwargs) -> str:
    report, ok = slimrnn.cmd_gradcheck(**kwargs)
    h = hashlib.sha256(repr(ok).encode())
    for row in report:
        h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def artifact_digests():
    """(name, sha256) of the files two training runs and a sweep write."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, bidirectional in (("uni", False), ("bidir", True)):
            out = Path(tmp, name)
            cmd_train(slimrnn.ExperimentConfig(**RUN, bidirectional=bidirectional,
                                               out=str(out)))
            config = (out / "config.txt").read_text(encoding="utf-8").replace(tmp, "TMP")
            metrics = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
            h = hashlib.sha256(config.encode())
            h.update((out / "model.ckpt").read_bytes())
            h.update("\n".join(line.rsplit(",", 1)[0] for line in metrics).encode())
            yield f"train/{name}", h.hexdigest()
        base = slimrnn.ExperimentConfig(**RUN, out=str(Path(tmp, "sweep")))
        summary = cmd_sweep(SweepSpec(base=base, variants=["lstm6", "lstm_c6"]))["summary"]
        yield "sweep/summary", hashlib.sha256(Path(summary).read_bytes()).hexdigest()


def main() -> int:
    for workload in WORKLOADS.values():
        for spec in workload.models:
            print(f"{workload.name}/{spec.key} {model_digest(workload, spec)}", flush=True)
    print(f"gradcheck/default {gradcheck_digest()}", flush=True)
    print(f"gradcheck/caps {gradcheck_digest(**GRADCHECK_CAPS)}", flush=True)
    for name, digest in artifact_digests():
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
