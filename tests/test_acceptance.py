"""Acceptance suite: the binding end-to-end checks for this library.

Each criterion is one test that records a single `ACCEPTANCE n (...): PASS`
or `... FAIL` line; conftest.py prints the collected block at the end of the
run so it is visible even though pytest captures passing tests' stdout.
The criteria pin exact counts, gradient fidelity, cross-variant equalities,
state boundedness, desk-scale learnability, cost ordering, the documented
offline recipe for full-size corpora, and run-to-run determinism.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from slimrnn.cells import (
    VARIANTS,
    init_cell,
    init_output,
    lstm6_step,
    lstmc6_step,
    gate_override_step,
    param_count,
    step_mac_count,
)
from slimrnn.cli import main as cli_main
from slimrnn.data import EmbeddingTable, SequenceBatch, init_embedding
from slimrnn.harness import (
    ExperimentConfig,
    build_dataset,
    build_model,
    cmd_train,
)
from slimrnn.numerics import make_rng
from slimrnn.training import (
    OptimizerState,
    SequenceClassifier,
    finite_difference_model,
    gradient_rel_error,
    model_gradients,
    train_epoch,
)

from conftest import operands

README = Path(__file__).resolve().parents[1] / "README.md"


# ===========================================================================
# 1. Parameter counts: six published values exactly, plus exhaustive
#    agreement with direct array-length enumeration for 1 <= m,n <= 16.
# ===========================================================================

def test_criterion_1_parameter_counts_exact(acceptance_report):
    t0 = time.perf_counter()

    frozen = [("lstm", 32, 100, False, 53200),
              ("lstm6", 32, 100, False, 13300),
              ("lstm_c6", 32, 100, False, 3400),
              ("lstm", 128, 128, True, 263168),
              ("lstm6", 128, 128, True, 65792),
              ("lstm_c6", 128, 128, True, 33280)]
    for variant, m, n, bidi, want in frozen:
        got = param_count(variant, m, n, bidirectional=bidi)
        assert got == want, f"param_count({variant},{m},{n},{bidi}) = {got} != {want}"

    # independent enumeration: the number of stored real values per cell
    shape_table = {
        "srnn": lambda m, n: [(n, m), (n, n), (n,)],
        "lstm": lambda m, n: [(n, m), (n, n), (n,)] * 4,
        "lstm6": lambda m, n: [(n, m), (n, n), (n,)],
        "lstm_c6": lambda m, n: [(n, m), (n,), (n,)],
    }
    for variant, shapes_of in shape_table.items():
        for m in range(1, 17):
            for n in range(1, 17):
                stored = sum(int(np.prod(s)) for s in shapes_of(m, n))
                assert param_count(variant, m, n) == stored, (variant, m, n)
                assert param_count(variant, m, n, bidirectional=True) == 2 * stored

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget is 1s"
    acceptance_report(1, "parameter counts", True,
                      f"6 published values + exhaustive 1..16, {elapsed:.3f}s")


# ===========================================================================
# 2. Gradient certification: backpropagation vs central finite differences
#    for every variant and both smooth activations, 10 random nets each.
# ===========================================================================

def test_criterion_2_gradient_certification(acceptance_report):
    t0 = time.perf_counter()
    tol = 1e-6
    worst = 0.0
    worst_at = ""
    for variant in VARIANTS:
        for act in ("sigmoid", "tanh"):
            for s in range(10):
                rng = make_rng(50_000 + 977 * s)
                m = int(rng.integers(2, 7))       # dims <= 6
                n = int(rng.integers(2, 7))
                T = int(rng.integers(2, 6))       # sequence length <= 5
                B = int(rng.integers(1, 4))       # batch <= 3
                emb = init_embedding(rng, 7, m)
                cell = init_cell(variant, m, n, act, 0.59, rng)
                out = init_output(rng, n, 1)
                model = SequenceClassifier(cell=cell, out=out, emb=emb)
                batch = SequenceBatch(tokens=rng.integers(0, 7, size=(B, T)),
                                      labels=rng.integers(0, 2, size=B))
                _, analytic = model_gradients(model, batch, "bce")
                numeric = finite_difference_model(model, batch, "bce")
                for name in analytic:
                    err = gradient_rel_error(analytic[name], numeric[name])
                    if err > worst:
                        worst, worst_at = err, f"{variant}/{act}/{name}"
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 120.0
    acceptance_report(2, "gradient certification", ok,
                      f"max rel err {worst:.3e} at {worst_at}, {elapsed:.1f}s")
    assert worst <= tol, f"worst relative error {worst:.3e} at {worst_at}"
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s, budget is 120s"


# ===========================================================================
# 3. Variant-equivalence oracles, 20 seeds, 1e-15 per element.
# ===========================================================================

def test_criterion_3_variant_equivalence_oracles(acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = make_rng(60_000 + seed)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        f = float(rng.uniform(-0.9, 0.9))
        x = rng.uniform(-1, 1, (1, m))
        h_prev = rng.uniform(-1, 1, (1, n))
        c_prev = rng.uniform(-1, 1, (1, n))

        # gate-free cell vs the full cell with gates pinned open
        slim = init_cell("lstm6", m, n, "sigmoid", f, make_rng(61_000 + seed))
        full = init_cell("lstm", m, n, "sigmoid", f, make_rng(62_000 + seed))
        full.tensors["W_c"] = slim.tensors["W_c"].copy()
        full.tensors["U_c"] = slim.tensors["U_c"].copy()
        full.tensors["b_c"] = slim.tensors["b_c"].copy()
        h_a, c_a, _ = lstm6_step(slim, *operands(slim, x), h_prev, c_prev)
        h_b, c_b, _ = gate_override_step(full, {"i": 1.0, "f": f, "o": 1.0},
                                         *operands(full, x), h_prev, c_prev)
        worst = max(worst, float(np.max(np.abs(h_a - h_b))),
                    float(np.max(np.abs(c_a - c_b))))

        # element-wise recurrence vs a diagonal recurrent matrix
        vec = init_cell("lstm_c6", m, n, "sigmoid", f, make_rng(63_000 + seed))
        mat = init_cell("lstm6", m, n, "sigmoid", f, make_rng(64_000 + seed))
        mat.tensors["W_c"] = vec.tensors["W_c"].copy()
        mat.tensors["U_c"] = np.diag(vec.tensors["u_c"])
        mat.tensors["b_c"] = vec.tensors["b_c"].copy()
        h_a, c_a, _ = lstmc6_step(vec, *operands(vec, x), h_prev, c_prev)
        h_b, c_b, _ = lstm6_step(mat, *operands(mat, x), h_prev, c_prev)
        worst = max(worst, float(np.max(np.abs(h_a - h_b))),
                    float(np.max(np.abs(c_a - c_b))))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-15 and elapsed < 5.0
    acceptance_report(3, "variant equivalences", ok,
                      f"max |diff| {worst:.1e} over 20 seeds, {elapsed:.2f}s")
    assert worst <= 1e-15, f"max per-element difference {worst:.3e}"
    assert elapsed < 5.0


# ===========================================================================
# 4. BIBO stability of the gate-free state over 10,000 random steps.
# ===========================================================================

def test_criterion_4_bibo_stability(acceptance_report):
    t0 = time.perf_counter()
    steps = 10_000
    for variant, step in (("lstm6", lstm6_step), ("lstm_c6", lstmc6_step)):
        for f in (0.59, 0.96):
            for c0_scale in (0.0, 5.0):
                rng = make_rng(70_000 + int(f * 100))
                p = init_cell(variant, 4, 5, "sigmoid", f, rng)
                p.tensors["W_c"] *= 3.0  # saturate the candidate to stress the bound
                h = np.zeros((1, 5))
                c = np.full((1, 5), c0_scale)
                decay = 1.0
                for t in range(1, steps + 1):
                    x = rng.uniform(-4.0, 4.0, (1, 4))
                    h, c, _ = step(p, *operands(p, x), h, c)
                    decay *= abs(f)
                    bound = decay * c0_scale + (1.0 - decay) / (1.0 - abs(f))
                    assert np.all(np.abs(c) <= bound + 1e-9), (
                        f"{variant} f={f} |c_0|={c0_scale} step {t}: "
                        f"|c| {np.max(np.abs(c)):.6f} > bound {bound:.6f}")
                if f == 0.96 and c0_scale == 0.0:
                    # geometric series limit: never reaches 1/(1-f) = 25
                    assert np.all(np.abs(c) <= 25.0 + 1e-9)
    elapsed = time.perf_counter() - t0
    acceptance_report(4, "BIBO stability", True,
                      f"f in {{0.59, 0.96}}, {steps} steps, asymptote 25 held, "
                      f"{elapsed:.1f}s")
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s, budget is 10s"


# ===========================================================================
# 5. Desk-scale learnability: >= 95% test accuracy within 30 epochs on the
#    keyword-counting task at a per-variant learning rate from the grid.
# ===========================================================================

ETA_GRID = (1e-4, 1e-3, 2e-3)
TUNED_ETA = {"lstm": 1e-3, "lstm6": 2e-3, "lstm_c6": 2e-3}


def test_criterion_5_desk_scale_learnability(acceptance_report):
    t0 = time.perf_counter()
    base = ExperimentConfig(activation="tanh", hidden=32, embed=16, seq_len=40,
                            vocab=50, forget=0.59, epochs=30, batch=32,
                            optimizer="adam", loss="bce", seed=2024,
                            data="synth:keyword_count", samples=2500)
    results = {}
    for variant, eta in TUNED_ETA.items():
        assert eta in ETA_GRID
        cfg = replace(base, variant=variant, eta=eta)
        train, test = build_dataset(cfg)
        assert len(train) == 2000 and len(test) == 500
        assert train.T == 40
        model = build_model(cfg, train.n_classes)
        opt = OptimizerState(kind=cfg.optimizer, eta=cfg.eta)
        reached = None
        for epoch in range(1, cfg.epochs + 1):
            rec = train_epoch(model, train, test, opt, cfg.loss, cfg.batch,
                              cfg.seed, epoch)
            if rec.test_acc >= 0.95:
                reached = (epoch, rec.test_acc)
                break
        results[variant] = reached
    elapsed = time.perf_counter() - t0
    ok = all(v is not None for v in results.values()) and elapsed < 600.0
    detail = ", ".join(
        f"{v} eta={TUNED_ETA[v]}: "
        + (f"{r[1]:.1%} at epoch {r[0]}" if r else "never reached 95%")
        for v, r in results.items())
    acceptance_report(5, "desk-scale learnability", ok, f"{detail}, {elapsed:.0f}s")
    for variant, reached in results.items():
        assert reached is not None, f"{variant} never reached 95% in 30 epochs"
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.0f}s, budget is 600s"


# ===========================================================================
# 6. Cost ordering: per-step MAC counts strictly decrease across
#    lstm -> lstm6 -> lstm_c6 for every m,n in 1..64; measured per-step
#    time obeys lstm > lstm6 >= lstm_c6; the lstm/lstm6 ratio is exactly 4.
# ===========================================================================

def per_step_seconds(variant, m, n, seq_len, reps):
    """Median wall-clock of one model_gradients call on one sequence,
    divided by its length. make_rng(7) draws the cell, then the readout,
    then the rows of a frozen table of uniform draws in [-1, 1) under a
    zero pad row; step t reads row t + 1 (tokens 1..T), so no gradient is
    scattered. BLAS runs with the process's thread count."""
    rng = make_rng(7)
    cell = init_cell(variant, m, n, "sigmoid", 0.59, rng)
    out = init_output(rng, n, 1)
    E = np.concatenate([np.zeros((1, m)), rng.uniform(-1.0, 1.0, size=(seq_len, m))])
    model = SequenceClassifier(cell=cell, out=out, emb=EmbeddingTable(E, trainable=False))
    batch = SequenceBatch(tokens=np.arange(1, seq_len + 1)[None], labels=np.array([1]))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        model_gradients(model, batch, "bce")
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / seq_len


def test_criterion_6_cost_ordering(acceptance_report):
    violations = []
    for m in range(1, 65):
        for n in range(1, 65):
            full = step_mac_count("lstm", m, n)
            slim = step_mac_count("lstm6", m, n)
            diag = step_mac_count("lstm_c6", m, n)
            if not full > slim > diag:
                violations.append((m, n, full, slim, diag))
            assert full / slim == 4.0, f"lstm/lstm6 ratio at ({m},{n})"

    t_full, t_slim, t_diag = (per_step_seconds(v, m=32, n=100, seq_len=500, reps=5)
                              for v in ("lstm", "lstm6", "lstm_c6"))
    timing_ok = t_full > t_slim >= t_diag
    if not timing_ok:
        violations.append(("timing", t_full, t_slim, t_diag))

    ok = not violations
    detail = (f"timing per step: lstm {t_full * 1e6:.0f}us > "
              f"lstm6 {t_slim * 1e6:.0f}us >= lstm_c6 {t_diag * 1e6:.0f}us; "
              f"MAC ratio 4.0 exact")
    if not ok:
        n1 = [v for v in violations if len(v) == 5 and v[1] == 1]
        detail += (f"; {len(violations)} strict-decrease violations, "
                   f"all at n=1 ({len(n1)} of {len(violations)})")
    acceptance_report(6, "cost ordering", ok, detail)
    assert not violations, (
        "step_mac_count is not strictly decreasing at every (m, n): "
        f"{len(violations)} violations, first {violations[0]}. With one "
        "hidden unit the gate-free and element-wise recurrences cost the "
        "same (n*(m+n) == n*m+n when n == 1), so the middle inequality "
        "degenerates to equality on that line; it is strict for all n >= 2.")


# ===========================================================================
# 7. Full-size corpus results are declared out of scope; the offline
#    recipe that reproduces them must be documented and its plumbing must
#    actually run on a user-supplied TSV file.
# ===========================================================================

def test_criterion_7_offline_recipe_documented(tmp_path, capsys, acceptance_report):
    # the published full-corpus accuracies need the real datasets and long
    # runs; what this suite owns is the documented recipe and its plumbing
    assert README.exists(), "README.md missing"
    text = README.read_text(encoding="utf-8")
    assert "train --data tsv:imdb.tsv" in text, (
        "README must document the offline recipe: train --data tsv:imdb.tsv")

    # the recipe leans on the defaults, so they must stay pinned
    d = ExperimentConfig()
    assert (d.variant, d.activation, d.hidden, d.embed, d.seq_len, d.vocab,
            d.eta, d.batch, d.epochs, d.optimizer, d.loss) == \
        ("lstm", "sigmoid", 100, 32, 500, 5000, 1e-3, 32, 100, "adam", "bce")

    # smoke the exact CLI surface the recipe names, on a tiny stand-in TSV
    tsv = tmp_path / "imdb.tsv"
    rng = make_rng(777)
    words = ["great", "good", "fine", "bad", "awful", "poor", "the", "a"]
    lines = []
    for i in range(24):
        lab = i % 2
        picks = rng.integers(0 if lab else 3, 3 if lab else 6, size=5)
        lines.append(f"{lab}\t" + " ".join(words[w] for w in picks))
    tsv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli_main(["train", "--data", f"tsv:{tsv}", "--hidden", "4",
                     "--embed", "3", "--seq-len", "6", "--vocab", "10",
                     "--epochs", "1", "--batch", "4",
                     "--out", str(tmp_path / "recipe_run")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "recipe_run" / "metrics.csv").exists()
    acceptance_report(7, "offline recipe", True,
                      "full-corpus accuracies declared out of scope; recipe "
                      "documented in README and its TSV path runs end-to-end")


# ===========================================================================
# 8. Determinism: same seed and config => byte-identical metrics CSV
#    (excluding the wall-clock seconds column) across two runs.
# ===========================================================================

def test_criterion_8_metrics_determinism(tmp_path, acceptance_report):
    cfg = ExperimentConfig(variant="lstm6", activation="tanh", hidden=8,
                           embed=4, seq_len=20, vocab=30, eta=2e-3, epochs=3,
                           batch=16, samples=200, seed=4242)
    a = cmd_train(replace(cfg, out=str(tmp_path / "a")))
    b = cmd_train(replace(cfg, out=str(tmp_path / "b")))

    def strip_seconds(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines)

    text_a = strip_seconds(a["csv"])
    text_b = strip_seconds(b["csv"])
    ok = text_a.encode() == text_b.encode()
    acceptance_report(8, "determinism", ok,
                      f"{len(text_a.splitlines()) - 1} epochs byte-identical "
                      "modulo seconds")
    assert ok, "metrics CSVs differ beyond the seconds column"
