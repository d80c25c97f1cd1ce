"""Workloads, timing and output checks of the slimrnn benchmark.

A run drives one workload through the library's public calls only
(build_dataset, build_model, SequenceBatch.subset, model_gradients,
optimizer_step, evaluate and cmd_gradcheck) in a closed loop of one
caller, and times each call from outside. Work is completed samples per
second at the workload's stated input sizes; nothing here serves requests,
so there is no request rate.

Every kind of timed call runs a fixed minimum number of times and then
goes on, interleaved with the others, until the run's seconds are spent.
Each metric comes from the typical per-call time (see `typical`), because
whole-run totals on a shared machine are too noisy.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import slimrnn

from .tracer import FORWARD_LAYERS, Tracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Seed of the reference trajectories. A recorded loss exists only for fixed
# inputs and a fixed number of steps, so the check replays the timed calls on
# inputs drawn from this seed instead of on the run's --seed inputs.
REF_SEED = 4242

# Relative tolerance of the reference-loss check, measured on all fifteen
# reference trajectories at the commit that recorded them. Scaling every
# gradient entry by its own random factor within 1 +- 1e-12, far more than
# reordering a float64 reduction does, moves a checked loss by at most
# 4e-13. A skipped optimizer step moves one by at least 5e-4, adding 1.0 to
# one tensor's gradient (cmd_gradcheck's corruption) by at least 3e-5, and
# leaving the output-bias gradient at zero by at least 1.7e-6. A uniform
# rescaling of a whole gradient is invisible: Adam normalises it away.
REF_RTOL = 1e-9

# Acceptance criterion 2: worst relative error of a certified gradient.
GRAD_TOL = 1e-6

# Shares of a run's seconds; each model gets an equal part of the rest, of
# which training steps take TRAIN_SHARE and evaluate calls the remainder.
SETUP_SHARE = 0.02
TRAIN_SHARE = 0.5
MIN_SETUPS = 5
MIN_GRADCHECKS = 3

# Timings are reported at a reference machine speed. On a shared 2-vCPU
# virtual machine the speed drifted by a common factor of up to 1.5 between
# runs a few minutes apart (every metric of a run moved together), which no
# amount of work in one run averages out. So each run also times a fixed
# calibration kernel, interleaved with everything else, and scales every
# end-to-end time by CALIBRATION_REF_S over the kernel's typical time in
# that run. The kernel shares no code with slimrnn, so a change to the
# engine cannot move it. Per-layer times stay raw; the report prints the raw
# end-to-end values too.
CALIBRATION_SHARE = 0.05
CALIBRATION_REF_S = 0.75e-3


@dataclass(frozen=True)
class ModelSpec:
    key: str
    variant: str
    bidirectional: bool
    eta: float

    def config(self, base):
        return replace(base, variant=self.variant,
                       bidirectional=self.bidirectional, eta=self.eta)


@dataclass(frozen=True)
class Workload:
    """One set of inputs. `config` is the timed shape (the run's --seed
    replaces its seed); `probe` is the fixed-seed reference trajectory of
    `probe_steps` minibatches that every model replays before timing."""

    name: str
    config: slimrnn.ExperimentConfig
    probe: slimrnn.ExperimentConfig
    probe_steps: int
    models: tuple[ModelSpec, ...]
    warmup_steps: int
    min_steps: int
    min_evals: int
    gradcheck: dict
    gradcheck_share: float


def _five_models(eta_full: float, eta_slim: float) -> tuple[ModelSpec, ...]:
    return (ModelSpec("srnn", "srnn", False, eta_full),
            ModelSpec("lstm", "lstm", False, eta_full),
            ModelSpec("lstm6", "lstm6", False, eta_slim),
            ModelSpec("lstm_c6", "lstm_c6", False, eta_slim),
            ModelSpec("lstm6_bidir", "lstm6", True, eta_slim))


# Acceptance criterion 5's shape; the slim cells train at its TUNED_ETA.
_DESK = slimrnn.ExperimentConfig(
    activation="tanh", hidden=32, embed=16, seq_len=40, vocab=50,
    forget=0.59, batch=32, optimizer="adam", loss="bce",
    data="synth:keyword_count", samples=2500)
# The README recipe's shape: 128 training samples (four minibatches) and a
# held-out split of 32.
_PAPER = slimrnn.ExperimentConfig(
    activation="sigmoid", hidden=100, embed=32, seq_len=500, vocab=5000,
    eta=1e-3, forget=0.59, batch=32, optimizer="adam", loss="bce",
    data="synth:keyword_count", samples=160)
# cmd_gradcheck's caps (m = n = 8, T = 5, B = 8).
_CAPS = slimrnn.ExperimentConfig(
    activation="sigmoid", hidden=8, embed=8, seq_len=5, vocab=7, eta=1e-3,
    forget=0.59, batch=8, optimizer="adam", loss="bce",
    data="synth:keyword_count", samples=100)
_GRADCHECK_CAPS = dict(m=8, n=8, seq_len=5, batch=8)

# Why each workload exists is recorded in BENCHMARK.json. Every workload
# reports every end-to-end metric: desk and paper certify gradients with
# their own activation only, and certify trains and evaluates at the
# gradient check's caps, where per-call overhead is everything.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        config=_DESK,
        probe=replace(_DESK, samples=120, seed=REF_SEED),
        probe_steps=3,
        models=_five_models(1e-3, 2e-3),
        warmup_steps=1, min_steps=10, min_evals=5,
        gradcheck=dict(_GRADCHECK_CAPS, seeds=1, activations=("tanh",)),
        gradcheck_share=0.05),
    Workload(
        name="paper",
        config=_PAPER,
        probe=replace(_PAPER, samples=10, batch=4, seed=REF_SEED),
        probe_steps=2,
        models=_five_models(1e-3, 1e-3),
        # the probe already runs every call at this shape; a step takes
        # seconds, so no further warm-up is needed
        warmup_steps=0, min_steps=5, min_evals=4,
        gradcheck=dict(_GRADCHECK_CAPS, seeds=1, activations=("sigmoid",)),
        gradcheck_share=0.05),
    Workload(
        name="certify",
        config=_CAPS,
        probe=replace(_CAPS, samples=40, seed=REF_SEED),
        probe_steps=3,
        models=_five_models(1e-3, 1e-3),
        warmup_steps=1, min_steps=20, min_evals=10,
        gradcheck=dict(_GRADCHECK_CAPS, seeds=3),
        gradcheck_share=0.7),
)}

@dataclass(frozen=True)
class Api:
    """The public calls a run makes, resolved once when it starts. Tests
    replace single entries to inject faults."""

    build_dataset: Callable
    build_model: Callable
    model_gradients: Callable
    optimizer_step: Callable
    evaluate: Callable
    cmd_gradcheck: Callable

    @classmethod
    def resolve(cls) -> "Api":
        return cls(slimrnn.build_dataset, slimrnn.build_model,
                   slimrnn.model_gradients, slimrnn.optimizer_step,
                   slimrnn.evaluate, slimrnn.cmd_gradcheck)


@dataclass
class ModelRecord:
    """Timings of one model. steps and evals map traced -> list; a step is
    (subset_s, model_gradients_s, optimizer_step_s, total_s)."""

    spec: ModelSpec
    batch: int
    eval_samples: int
    steps: dict = field(default_factory=lambda: {False: [], True: []})
    evals: dict = field(default_factory=lambda: {False: [], True: []})
    alloc_peak_mb: float | None = None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = (f"{blas.get('name')} {blas.get('version')} "
                    f"({blas.get('openblas configuration')})")
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": openblas}


def probe_loss(api: Api, workload: Workload, spec: ModelSpec) -> float:
    """Loss over the probe's trained samples after its reference steps."""
    cfg = spec.config(workload.probe)
    train, _ = api.build_dataset(cfg)
    model = api.build_model(cfg, train.n_classes)
    opt = slimrnn.OptimizerState(kind=cfg.optimizer, eta=cfg.eta)
    params = model.param_arrays()
    B = cfg.batch
    for k in range(workload.probe_steps):
        _, grads = api.model_gradients(
            model, train.subset(np.arange(k * B, (k + 1) * B)), cfg.loss)
        api.optimizer_step(opt, params, grads)
    seen = train.subset(np.arange(workload.probe_steps * B))
    loss, _ = api.evaluate(model, seen, cfg.loss)
    return float(loss)


def record_references() -> dict:
    """Recompute every workload's reference losses, for example with
    `PYTHONPATH=src python3 -c "from perfbench import core;
    print(core.record_references())"` from the repository root. Writing them
    into reference.json re-baselines the check, so do it only at a commit
    whose gradients are certified."""
    api = Api.resolve()
    return {w.name: {s.key: probe_loss(api, w, s) for s in w.models}
            for w in WORKLOADS.values()}


@dataclass
class _Task:
    """One kind of timed call. body(traced) makes one call and returns its
    seconds, or None after counting a failure, which retires the task."""

    body: Callable
    share: float  # of the run's seconds
    min_count: int
    # a following task keeps its share of the time spent so far, for as long
    # as any other task runs, and never runs alone
    follows: bool = False
    spent: float = 0.0
    count: int = 0
    alive: bool = True


class Run:
    """One workload run: set-up, a reference check per model, then every
    timed call interleaved until the run's seconds are spent, then metrics
    and their report."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, api: Api | None = None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.api = api or Api.resolve()
        self.tracer = Tracer() if trace else None
        self.references = json.loads(REFERENCE_PATH.read_text(
            encoding="utf-8"))["losses"].get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[ModelRecord] = []
        self.setups: list[tuple[float, float]] = []  # (build_dataset_s, build_model_s)
        self.certify: dict = {False: [], True: []}
        self.cfg = replace(workload.config, seed=seed)
        self.calibration: list[float] = []
        self._kernel_inputs = _kernel_inputs()

    # -- accounting -------------------------------------------------------

    def _fail(self, what: str):
        self.failed += 1
        self.problems.append(what)

    def _attempt(self, what: str, fn: Callable):
        """One operation: fn's result, or None after counting a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a raising call is a failed operation
            self._fail(f"{what} raised\n{traceback.format_exc()}")
            return None

    def _scope(self, name: str):
        return self.tracer.scope(name) if self.tracer else nullcontext()

    def _schedule(self, tasks: list[_Task]):
        """Run every task at least its min_count times and until the run's
        seconds have passed, always picking the task furthest behind its
        share. Interleaving spreads each metric's samples over the whole run,
        so that a slow spell of a shared machine hits every metric alike. A
        traced run alternates untraced and traced calls of each task and
        splits min_count between the two halves; the difference between the
        halves is the tracing overhead."""
        kinds = 2 if self.tracer else 1
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            ready = [t for t in tasks if t.alive and (
                t.spent <= t.share * elapsed if t.follows else not (
                    elapsed >= self.seconds
                    and t.count >= kinds * max(1, t.min_count // kinds)))]
            if all(t.follows for t in ready):
                return
            task = min(ready, key=lambda t: t.spent / t.share)
            traced = self.tracer is not None and task.count % 2 == 1
            with self.tracer.installed() if traced else nullcontext():
                dt = task.body(traced)
            if dt is None:
                task.alive = False
            else:
                task.spent += dt
                task.count += 1

    # -- phases -----------------------------------------------------------

    def execute(self):
        built = self._attempt("set-up", self._build)
        if built is None:
            return self
        train, test, models = built
        if len(train) < self.cfg.batch or len(test) == 0:
            self._fail(f"set-up gave {len(train)} train and {len(test)} test "
                       f"samples for batch {self.cfg.batch}")
            return self
        tasks = [_Task(self._setup_body, SETUP_SHARE, MIN_SETUPS - 1)]
        model_share = (1.0 - SETUP_SHARE - self.w.gradcheck_share) / len(models)
        for spec, model in zip(self.w.models, models):
            self._check_reference(spec)
            tasks += self._model_tasks(spec, model, train, test, model_share)
        tasks.append(_Task(self._certify_body, self.w.gradcheck_share, MIN_GRADCHECKS))
        tasks.append(_Task(self._calibrate, CALIBRATION_SHARE, 1, follows=True))
        self._schedule(tasks)
        return self

    def _calibrate(self, traced: bool) -> float:
        t0 = time.perf_counter()
        _calibration_kernel(self._kernel_inputs)
        dt = time.perf_counter() - t0
        self.calibration.append(dt)
        return dt

    def _build(self):
        t0 = time.perf_counter()
        train, test = self.api.build_dataset(self.cfg)
        t1 = time.perf_counter()
        models = [self.api.build_model(s.config(self.cfg), train.n_classes)
                  for s in self.w.models]
        self.setups.append((t1 - t0, time.perf_counter() - t1))
        return train, test, models

    def _setup_body(self, traced: bool):
        if self._attempt("set-up", self._build) is None:
            return None
        return sum(self.setups[-1])

    def _check_reference(self, spec: ModelSpec):
        loss = self._attempt(f"{spec.key} reference trajectory",
                             lambda: probe_loss(self.api, self.w, spec))
        if loss is None:
            return
        want = self.references.get(spec.key)
        if want is None:
            self._fail(f"{spec.key}: no recorded reference loss")
        elif not abs(loss - want) <= REF_RTOL * abs(want):
            self._fail(f"{spec.key}: reference loss {loss!r} differs from the "
                       f"recorded {want!r} by more than {REF_RTOL:g} relative")

    def _model_tasks(self, spec: ModelSpec, model, train, test,
                     share: float) -> list[_Task]:
        cfg = spec.config(self.cfg)
        B = cfg.batch
        rec = ModelRecord(spec, B, len(test))
        self.records.append(rec)
        opt = slimrnn.OptimizerState(kind=cfg.optimizer, eta=cfg.eta)
        params = model.param_arrays()
        batches = self._batches(len(train), B)

        def step(traced: bool):
            idx = next(batches)

            def call():
                with self._scope(f"train:{spec.key}"):
                    t0 = time.perf_counter()
                    sub = train.subset(idx)
                    t1 = time.perf_counter()
                    loss, grads = self.api.model_gradients(model, sub, cfg.loss)
                    t2 = time.perf_counter()
                    self.api.optimizer_step(opt, params, grads)
                    t3 = time.perf_counter()
                return loss, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)

            out = self._attempt(f"{spec.key} training step", call)
            if out is None:
                return None
            loss, times = out
            if not math.isfinite(loss):
                self._fail(f"{spec.key}: training step loss is {loss!r}")
                return None
            rec.steps[traced].append(times)
            return times[3]

        def evaluate(traced: bool):
            def call():
                with self._scope(f"eval:{spec.key}"):
                    t0 = time.perf_counter()
                    loss, acc = self.api.evaluate(model, test, cfg.loss)
                    return loss, acc, time.perf_counter() - t0

            out = self._attempt(f"{spec.key} evaluate", call)
            if out is None:
                return None
            loss, acc, dt = out
            if not (math.isfinite(loss) and 0.0 <= acc <= 1.0):
                self._fail(f"{spec.key}: evaluate gave loss {loss!r}, accuracy {acc!r}")
                return None
            rec.evals[traced].append(dt)
            return dt

        if self.tracer:
            first = train.subset(np.arange(B))
            rec.alloc_peak_mb = self._attempt(
                f"{spec.key} allocation probe",
                lambda: _alloc_peak_mb(self.api, model, first, cfg.loss))
        for _ in range(self.w.warmup_steps):
            if step(False) is None:
                return []
            rec.steps[False].pop()
        return [_Task(step, TRAIN_SHARE * share, self.w.min_steps),
                _Task(evaluate, (1.0 - TRAIN_SHARE) * share, self.w.min_evals)]

    def _batches(self, n: int, B: int):
        """Full minibatches, reshuffled from the run's seed every epoch."""
        for epoch in itertools.count():
            order = np.random.default_rng([self.seed, epoch]).permutation(n)
            for j in range(n // B):
                yield order[j * B:(j + 1) * B]

    def _certify_body(self, traced: bool):
        try:
            with self._scope("certify"):
                t0 = time.perf_counter()
                report, ok = self.api.cmd_gradcheck(**self.w.gradcheck)
                dt = time.perf_counter() - t0
        except Exception:  # a raising pass is one failed operation
            self.attempted += 1
            self._fail(f"cmd_gradcheck raised\n{traceback.format_exc()}")
            return None
        # each certified (variant, activation, tensor) row is an operation
        rows = [r for r in report if r["status"] != "skip"]
        self.attempted += max(len(rows), 1)
        bad = [r for r in rows
               if r["status"] != "pass" or not r["max_rel_err"] <= GRAD_TOL]
        for r in bad:
            self._fail(f"gradcheck {r['variant']}/{r['activation']} "
                       f"{r['group']}: {r['status']} at {r['max_rel_err']!r}")
        if not rows:
            self._fail("cmd_gradcheck certified no tensor")
        elif not ok and not bad:
            self._fail("cmd_gradcheck returned ok=False without a FAIL row")
        self.certify[traced].append(dt)
        return None if bad or not rows else dt

    # -- results ----------------------------------------------------------

    def speed(self) -> float | None:
        """This run's machine speed relative to the reference one."""
        return (CALIBRATION_REF_S / typical(self.calibration)
                if self.calibration else None)

    def end_to_end(self) -> dict:
        """name -> (value, unit, raw value, samples) of every end-to-end
        metric measured. value is raw value at the reference speed."""
        out = {}
        speed = self.speed()
        if speed is not None:
            for rec in self.records:
                steps = [s[3] for s in rec.steps[False]]
                if steps:
                    sps = rec.batch / typical(steps)
                    out[f"train_sps.{rec.spec.key}"] = (sps / speed, "samples/s", sps, steps)
                if rec.evals[False]:
                    sps = rec.eval_samples / typical(rec.evals[False])
                    out[f"eval_sps.{rec.spec.key}"] = (sps / speed, "samples/s", sps,
                                                      rec.evals[False])
            if self.certify[False]:
                t = typical(self.certify[False])
                out["certify_s"] = (t * speed, "s", t, self.certify[False])
            if self.setups:
                totals = [a + b for a, b in self.setups]
                out["setup_s"] = (typical(totals) * speed, "s", typical(totals), totals)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = (rss, "MB", rss, [rss])
        return out

    def per_layer(self) -> tuple[dict, list[str]]:
        """name -> (value, unit) of every per-layer metric the traced half
        of the run gives, and the names of those it cannot give."""
        tracer = self.tracer
        found: dict = {}
        absent = [f"boundary {name}" for name in tracer.absent]

        def add(name, unit, needs, value):
            if not set(needs) <= tracer.layers or value is None:
                absent.append(name)
            else:
                found[name] = (value, unit)

        T = self.cfg.seq_len
        for rec in self.records:
            key = rec.spec.key
            steps, evals = rec.steps[True], rec.evals[True]
            if not steps or not evals:
                absent.append(f"every per-layer metric of {key}")
                continue
            dirs = 2 if rec.spec.bidirectional else 1
            # a sample-step is one cell step on one sample, per direction
            train_ss = len(steps) * rec.batch * T * dirs
            both_ss = train_ss + len(evals) * rec.eval_samples * T * dirs
            tr, ev = tracer.stats[f"train:{key}"], tracer.stats[f"eval:{key}"]

            def per_call_us(layer):
                return _ratio(1e6 * (tr[layer][1] + ev[layer][1]),
                              tr[layer][0] + ev[layer][0])

            grads_s = sum(s[1] for s in steps)
            add(f"data.subset_us_per_step.{key}", "us", (),
                1e6 * statistics.fmean(s[0] for s in steps))
            add(f"data.embed_lookup_us_per_sample.{key}", "us", ("embed_lookup",),
                per_call_us("embed_lookup"))
            add(f"cells.run_cell_us_per_sample_step.{key}", "us", ("run_cell",),
                _ratio(1e6 * (tr["run_cell"][1] + ev["run_cell"][1]), both_ss))
            add(f"cells.step_calls_per_sample_step.{key}", "count", ("step",),
                _ratio(tr["step"][0], train_ss))
            add(f"cells.output_layer_apply_us_per_sample.{key}", "us",
                ("output_layer_apply",), per_call_us("output_layer_apply"))
            for layer in ("activate", "activate_grad", "matvec"):
                add(f"numerics.{layer}_calls_per_sample_step.{key}", "count",
                    (layer,), _ratio(tr[layer][0], train_ss))
            add(f"training.loss_eval_us_per_sample.{key}", "us", ("loss_eval",),
                per_call_us("loss_eval"))
            add(f"training.model_gradients_us_per_sample.{key}", "us", (),
                1e6 * grads_s / (len(steps) * rec.batch))
            add(f"training.bptt_self_us_per_sample_step.{key}", "us", FORWARD_LAYERS,
                _ratio(1e6 * (grads_s - sum(tr[x][1] for x in FORWARD_LAYERS)),
                       train_ss))
            add(f"training.optimizer_step_ms.{key}", "ms", (),
                1e3 * statistics.fmean(s[2] for s in steps))
            add(f"training.evaluate_us_per_sample.{key}", "us", (),
                1e6 * sum(evals) / (len(evals) * rec.eval_samples))
            add(f"training.model_gradients_alloc_peak_mb.{key}", "MB", (),
                rec.alloc_peak_mb)
            # tracing overhead: traced over untraced typical call time
            add(f"trace.train_overhead_ratio.{key}", "ratio", (),
                _typical_ratio([s[3] for s in steps], [s[3] for s in rec.steps[False]]))
            add(f"trace.eval_overhead_ratio.{key}", "ratio", (),
                _typical_ratio(evals, rec.evals[False]))

        if self.setups:
            add("harness.build_dataset_s", "s", (), typical(a for a, _ in self.setups))
            add("harness.build_model_s", "s", (), typical(b for _, b in self.setups))
        passes = self.certify[True]
        if passes:
            cert = tracer.stats["certify"]
            add("harness.bptt_gradients_s", "s", ("bptt_gradients",),
                cert["bptt_gradients"][1] / len(passes))
            add("harness.finite_difference_oracle_s", "s", ("finite_difference_oracle",),
                cert["finite_difference_oracle"][1] / len(passes))
            add("harness.gradcheck_nets_used_ratio", "ratio",
                ("bptt_gradients", "init_cell"),
                _ratio(cert["bptt_gradients"][0], cert["init_cell"][0]))
            add("trace.certify_overhead_ratio", "ratio", (),
                _typical_ratio(passes, self.certify[False]))
        return found, absent

    def metrics(self) -> dict:
        """name -> (value, unit) for the mode of the run."""
        if self.tracer:
            return self.per_layer()[0]
        return {k: (v, u) for k, (v, u, _, _) in self.end_to_end().items()}

    def result(self) -> dict:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in self.metrics().items()
                   if math.isfinite(v)}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def report(self) -> list[str]:
        """Human-readable lines: environment, every metric with its spread,
        the cost-model comparison and any failure."""
        env = environment()
        lines = [f"workload {self.w.name} seed {self.seed} seconds {self.seconds:g} "
                 f"trace {int(bool(self.tracer))}: closed loop, one caller",
                 "environment " + " ".join(f"{k}={v}" for k, v in env.items())]
        speed = self.speed()
        if speed is not None:
            lines.append(f"machine speed {speed:.4f} of the reference: calibration "
                         f"kernel {typical(self.calibration) * 1e3:.4f} ms, trimmed mean "
                         f"of {len(self.calibration)}; times below are scaled by it")
        for name, (value, unit, raw, samples) in self.end_to_end().items():
            how = f"raw {raw:.6g}, trimmed mean of {len(samples)}" if len(samples) > 1 \
                else "one reading"
            if len(samples) >= 4:
                q1, q2, q3 = statistics.quantiles(samples, n=4)
                how += f"; per call median {q2:.6g} s, q1 {q1:.6g} q3 {q3:.6g}"
            lines.append(f"{name:<22} {value:12.6g} {unit:<9} ({how})")
        lines.extend(self.cost_model())
        if self.tracer:
            found, absent = self.per_layer()
            for name, (value, unit) in found.items():
                lines.append(f"{name:<56} {value:12.6g} {unit}")
            lines.extend(f"absent: {a}" for a in absent)
        lines.extend(f"FAILED: {p}" for p in self.problems)
        return lines

    def cost_model(self) -> list[str]:
        """Measured train-step time ratios next to step_mac_count's
        prediction. Reported, never gated."""
        macs = getattr(slimrnn, "step_mac_count", None)
        step = {r.spec.key: typical(s[3] for s in r.steps[False])
                for r in self.records if r.steps[False]}
        if macs is None or "lstm" not in step:
            return []
        m, n = self.cfg.embed, self.cfg.hidden
        lines = []
        for slim in ("lstm6", "lstm_c6"):
            if slim in step:
                lines.append(
                    f"cost lstm/{slim}: measured {step['lstm'] / step[slim]:.3f} "
                    f"(train step {step['lstm'] * 1e3:.3f} ms over "
                    f"{step[slim] * 1e3:.3f} ms), predicted "
                    f"{macs('lstm', m, n) / macs(slim, m, n):.3f} "
                    f"(step_mac_count at m={m}, n={n})")
        return lines


def typical(samples) -> float:
    """Typical time of a call: the mean after dropping the fastest and the
    slowest tenth. On a shared 2-vCPU virtual machine the speed switches
    between two levels every few seconds, in shares that drift from run to
    run. A median jumps between the levels as the shares cross one half, and
    a plain mean follows a single long stall. Over five 20-second runs of
    desk and of paper there, the spread (quartile distance over median) of
    this estimate was 0.07-0.21 where that of the median was 0.06-0.31."""
    x = sorted(samples)
    k = len(x) // 10
    return statistics.fmean(x[k:len(x) - k])


def _kernel_inputs() -> tuple:
    rng = np.random.default_rng(0)
    return (rng.uniform(-0.2, 0.2, (64, 32)), rng.uniform(-0.2, 0.2, (64, 64)),
            rng.uniform(-1.0, 1.0, (64, 32)))


def _calibration_kernel(inputs) -> float:
    """Fixed work shaped like a recurrent cell's forward and backward steps:
    a Python loop over small matrix-vector products, squashes and outer
    products, about a millisecond on a current x86-64 core."""
    W, U, xs = inputs
    h = np.zeros(U.shape[0])
    g = np.zeros_like(W)
    for x in xs:
        h = np.tanh(W @ x + U @ h)
        g += np.outer(1.0 - h * h, x)
    return float(g[0, 0])


def _ratio(a, b):
    return a / b if b else None


def _typical_ratio(a, b):
    return typical(a) / typical(b) if a and b else None


def _alloc_peak_mb(api: Api, model, batch, loss_kind: str) -> float:
    """tracemalloc peak inside one model_gradients call, in MiB."""
    tracemalloc.start()
    try:
        api.model_gradients(model, batch, loss_kind)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
