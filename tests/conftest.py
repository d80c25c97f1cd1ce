"""Shared pytest plumbing for the test suite.

Passing tests have their stdout captured, so the per-criterion result lines
would normally be invisible in a plain ``pytest -v`` run. The fixture below
records each line and the terminal-summary hook prints the whole block at the
end of the run, outside capture. operands() forms what a step function takes
in place of its input x, for tests that drive the steps by hand, and
recorded() runs a cell over a sequence recording its stacks.
check_sent_order and OraclePasses check the passes of a dealt oracle
call: the order they are sent in, and the process each runs in. Every
test ends with no model_gradients helper process running, so the next
test's helper forks with that test's module state. NumPy is not imported
here: importing slimrnn first pins one BLAS thread.
"""

import ast
import math
import os
import time

import pytest

from slimrnn import training
from slimrnn.cells import input_term, record_arrays, run_steps, stack_gates

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record one `ACCEPTANCE n (label): PASS/FAIL` line for a criterion."""

    def record(n: int, label: str, ok: bool, detail: str = "") -> None:
        tail = f" — {detail}" if detail else ""
        line = f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}{tail}"
        print(line)
        _acceptance_lines.append(line)

    return record


@pytest.fixture(autouse=True)
def no_helper_after_the_test():
    """Stop the helper a test's split model_gradients calls started: it
    keeps the module's functions and constants as they were at its fork,
    monkeypatched ones included."""
    yield
    training._stop_helper()


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


def operands(p, x):
    """(R, a) for one step of cell p on input x: its recurrent tensor and
    its input term, laid out by the engine's own helpers."""
    W, R, b = stack_gates(p, transposed=True)
    return R, input_term(W, b, x)


def recorded(p, xs):
    """(h_T, c_T, (H, C, aux)) of cell p over xs, (T, B, m): its final
    states and the stacks it records from zero states, through the
    engine's own layout, projection, arrays and step loop. c_T is None
    for srnn."""
    W, R, b = stack_gates(p, transposed=True)
    stacks = record_arrays(p, len(xs), xs.shape[1])
    return (*run_steps(p, R, input_term(W, b, xs), stacks), stacks)


def net_key(model, batch) -> tuple:
    """What tells one oracle net from another in either process: the
    model's spec, its samples and its readout weights."""
    return (tuple(training.model_spec(model).items()), batch.tokens.tobytes(),
            batch.labels.tobytes(), model.out.W_hy.tobytes())


def check_sent_order(nets, passes):
    """Assert that passes are every pass of nets, as one call over them
    places them, ordered by copy-steps, largest first, ties in net and
    tensor order."""
    joined, at = [], 0
    for j, (model, batch) in enumerate(nets):
        shapes, own, copies = training._oracle_passes(model)
        per_copy = len(batch) * batch.T * training.gate_width(model.cell)
        joined += [(c * per_copy, (j, name, lo, hi, at + place))
                   for (name, lo, hi, place), c in zip(own, copies)]
        at += sum(math.prod(shape) for shape in shapes.values())
    place = {p: (-c, i) for i, (c, p) in enumerate(joined)}
    assert passes == sorted(place, key=place.get)


class OraclePasses:
    """A log of the oracle passes each process runs, kept in the file at
    path: from the call on, _ld_batch_loss logs (net_key, name, lo, hi)
    for each pass, read off its one perturbed tensor, here and in a helper
    forked later (the helper running now is stopped)."""

    def __init__(self, monkeypatch, path):
        self.path = path
        real = training._ld_batch_loss

        def logged(model, A, batch, loss_kind):
            (name,) = (key for key, a in A.items() if len(a) > 1)
            k = len(A[name]) // 2
            lo = int((A[name][0] != A[name][k]).argmax())  # the flat entry they differ at
            line = repr((os.getpid(), net_key(model, batch), name, lo, lo + k)) + "\n"
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
            return real(model, A, batch, loss_kind)

        training._stop_helper()
        monkeypatch.setattr(training, "_ld_batch_loss", logged)

    def read(self) -> dict:
        """The passes logged so far, as {pid: [(net_key, name, lo, hi)]},
        and clear the log."""
        ran = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as f:
                for line in f:
                    pid, *done = ast.literal_eval(line)
                    ran.setdefault(pid, []).append(tuple(done))
            os.remove(self.path)
        return ran

    def wait_for_another_process(self, timeout: float = 10.0):
        """Return once a process other than this one logged a pass, at once
        where no helper can be used."""
        if not training._can_fork():
            return
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.path):
                with open(self.path, encoding="utf-8") as f:
                    if any(line.endswith("\n") and ast.literal_eval(line)[0] != os.getpid()
                           for line in f):
                        return
            time.sleep(0.001)
        raise AssertionError("no other process ran an oracle pass")

    def check_dealt(self, nets) -> dict:
        """Assert that the passes logged since the last read are every pass
        of nets, each run once in either process, this one running fewer
        than all of them where a helper can be used."""
        want = [(net_key(model, batch), name, lo, hi) for model, batch in nets
                for name, lo, hi, _ in training._oracle_passes(model)[1]]
        ran = self.read()
        assert sorted(p for done in ran.values() for p in done) == sorted(want)
        helper = training._helper
        assert set(ran) <= {os.getpid(), helper and helper.pid}
        if training._can_fork():
            assert len(ran.get(os.getpid(), [])) < len(want)
