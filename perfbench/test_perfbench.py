"""Checks of the benchmark itself: its metric names and units, seeding,
output checks, trace wrappers, and its refusal to run without sources."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import slimrnn
from perfbench import core, tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("cells.step_calls_per_sample_step", "numerics.",
                "harness.gradcheck_nets_used_ratio")


def tiny(name: str) -> core.Workload:
    """The workload with its timed shape and gradient check shrunk; the
    reference trajectory is untouched, so the recorded losses still apply."""
    w = core.WORKLOADS[name]
    return dataclasses.replace(
        w, config=dataclasses.replace(w.config, seq_len=min(w.config.seq_len, 20),
                                      samples=50),
        min_steps=1, min_evals=1,
        gradcheck=dict(w.gradcheck, m=2, n=2, seq_len=2, batch=2, seeds=1,
                       activations=("tanh",)))


def run_tiny(name: str, trace: bool = False, api=None, seed: int = 1) -> core.Run:
    return core.Run(tiny(name), seed, 0.0, trace, api).execute()


@pytest.fixture(scope="module")
def untraced_runs():
    timed = {}
    for name in core.WORKLOADS:
        t0 = time.perf_counter()
        run = run_tiny(name)
        timed[name] = (run, time.perf_counter() - t0)
    return timed


@pytest.fixture(scope="module")
def traced_run():
    return run_tiny("certify", trace=True)


def test_tiny_workloads_run_in_seconds_and_pass_their_checks(untraced_runs):
    for name, (run, seconds) in untraced_runs.items():
        result = run.result()
        assert result["correct"], (name, run.problems)
        assert result["failed"] == 0 and result["attempted"] > 0
        assert seconds < 30.0, f"tiny {name} took {seconds:.1f}s"


def test_metric_names_and_units_match_benchmark_json(untraced_runs, traced_run):
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(core.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for run, _ in untraced_runs.values():
        metrics = run.result()["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == end_to_end
        assert all(v["value"] > 0 for v in metrics.values())
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = traced_run.result()["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer


def test_end_to_end_times_are_scaled_by_the_run_machine_speed(untraced_runs):
    run, _ = untraced_runs["desk"]
    speed = run.speed()
    assert speed > 0 and len(run.calibration) > 0
    metrics = run.end_to_end()
    value, _, raw, _ = metrics["train_sps.lstm6"]
    assert value == pytest.approx(raw / speed)
    value, _, raw, _ = metrics["certify_s"]
    assert value == pytest.approx(raw * speed)


def test_seed_changes_the_inputs_and_nothing_else():
    w = core.WORKLOADS["desk"]
    one, two, again = (core.Run(w, s, 0.0, False) for s in (1, 2, 1))
    assert one.cfg == dataclasses.replace(two.cfg, seed=1)
    assert one.cfg == dataclasses.replace(w.config, seed=1)
    (a, _), (b, _), (c, _) = (slimrnn.build_dataset(r.cfg) for r in (one, two, again))
    assert a.tokens.shape == b.tokens.shape
    assert (a.tokens != b.tokens).any()
    assert (a.tokens == c.tokens).all() and (a.labels == c.labels).all()
    first = [next(r._batches(len(a), 32)) for r in (one, two, again)]
    assert (first[0] != first[1]).any() and (first[0] == first[2]).all()


def test_certify_check_fails_on_a_corrupted_gradient():
    api = dataclasses.replace(core.Api.resolve(),
                              cmd_gradcheck=partial(slimrnn.cmd_gradcheck, corrupt="W_c"))
    result = run_tiny("certify", api=api).result()
    assert not result["correct"] and result["failed"] > 0


def test_output_check_fails_on_a_non_finite_loss():
    def nan_loss(model, batch, loss_kind):
        _, grads = slimrnn.model_gradients(model, batch, loss_kind)
        return math.nan, grads

    api = dataclasses.replace(core.Api.resolve(), model_gradients=nan_loss)
    run = run_tiny("certify", api=api)
    assert not run.result()["correct"]
    assert any("loss is nan" in p for p in run.problems)


def test_reference_check_fails_on_a_skipped_optimizer_step():
    calls = []

    def skip_second(state, params, grads):
        calls.append(1)
        if len(calls) != 2:
            slimrnn.optimizer_step(state, params, grads)

    api = dataclasses.replace(core.Api.resolve(), optimizer_step=skip_second)
    run = run_tiny("certify", api=api)
    assert any("reference loss" in p for p in run.problems)


def test_traced_exact_counts_repeat_across_runs(traced_run):
    def counts(run):
        return {k: v for k, v in run.result()["metrics"].items()
                if k.startswith(EXACT_COUNTS)}

    first = counts(traced_run)
    assert first == counts(run_tiny("certify", trace=True, seed=2))
    assert first["numerics.activate_calls_per_sample_step.lstm6"]["value"] == 2.0
    assert first["cells.step_calls_per_sample_step.lstm_c6"]["value"] == 1.0


def test_a_missing_boundary_is_reported_absent(monkeypatch):
    kept = tuple(x for x in tracer.WRAPPED if x[1] != "matvec")
    monkeypatch.setattr(tracer, "WRAPPED", kept + (("slimrnn.cells", "gone", "gone", False),))
    run = run_tiny("certify", trace=True)
    found, absent = run.per_layer()
    assert "boundary slimrnn.cells.gone" in absent
    assert "numerics.matvec_calls_per_sample_step.lstm6" in absent
    assert "numerics.activate_calls_per_sample_step.lstm6" in found
    assert run.result()["correct"]


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
