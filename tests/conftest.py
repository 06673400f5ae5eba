import pytest

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


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
