import numpy as np
import pytest

from mtvf import Euclidean, PiecewiseConstantCurve

# One line per acceptance criterion, printed after the run so the verdicts
# are visible without -s.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_log():
    def record(criterion: str, passed: bool, detail: str = "") -> None:
        verdict = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        ACCEPTANCE_LINES.append(f"[{verdict}] criterion {criterion}{suffix}")

    return record


@pytest.fixture
def cadence(monkeypatch):
    """``cadence(n)``: for the rest of the test, a run without requested
    snapshot times records every n-th step, not every ``_SNAPSHOT_EVERY``-th."""
    return lambda every: monkeypatch.setattr("mtvf.flows._SNAPSHOT_EVERY", every)


@pytest.fixture
def x_axis():
    """``x_axis(curve)``: a euclidean:1 step curve as the same steps on the x-axis
    of euclidean:2.  The exact solver flows euclidean:1 data in closed form, by
    ``run_scalar_tv``; on the x-axis they take its RK4 and pair steps, and the run
    there is the one those steps give the scalar data bit for bit: the same times,
    dissipation, breakpoints and first column, and a second column of zeros."""
    def embed(curve):
        values = np.column_stack([curve.values[:, 0], np.zeros(len(curve.values))])
        return PiecewiseConstantCurve(Euclidean(2), curve.breakpoints, values)

    return embed


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
