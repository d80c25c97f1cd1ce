"""Shared pytest plumbing for the test suite.

Passing tests have their stdout captured, so the per-criterion result lines
would normally be invisible in a plain ``pytest -v`` run. The fixture below
records each line and the terminal-summary hook prints the whole block at the
end of the run, outside capture. operands() forms what a step function takes
in place of its input x, for tests that drive the steps by hand.
"""

import pytest

from slimrnn.cells import input_term, stack_gates

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
