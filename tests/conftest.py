"""Shared pytest plumbing for the test suite.

Passing tests have their stdout captured, so the per-criterion result lines
would normally be invisible in a plain ``pytest -v`` run. The fixture below
records each line and the terminal-summary hook prints the whole block at the
end of the run, outside capture. operands() forms what a step function takes
in place of its input x, for tests that drive the steps by hand, and
recorded() runs a cell over a sequence recording its stacks.
helper_walks spies on the helper's round trips. Every test ends with no
model_gradients helper process running, so the next test's helper forks
with that test's module state. NumPy is not imported here: importing
slimrnn first pins one BLAS thread.
"""

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


def helper_walks(monkeypatch) -> list:
    """Spy on _helper_walk through monkeypatch, a test's or one of its
    contexts, which then scopes the spy: a list that gathers (job, model,
    args, shares, walked) for each call that returned, shares being its
    (mine, theirs) and walked what it returned (True where the helper ran
    its share)."""
    walks = []
    real = training._helper_walk

    def spy(model, job, args, *shares):
        walked = real(model, job, args, *shares)
        walks.append((job, model, args, shares, walked))
        return walked

    monkeypatch.setattr(training, "_helper_walk", spy)
    return walks
