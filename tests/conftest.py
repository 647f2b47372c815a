"""Shared test plumbing: surface the acceptance lines in the run summary,
and count the verifier's reprints of derived payloads."""

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def reprints(monkeypatch):
    """The payload texts the verifier compares with a fresh print."""
    from kohnmult import multiplier_core

    calls = []
    prints_as = multiplier_core._prints_as

    def spy(texts, derived, names):
        calls.append(tuple(texts))
        return prints_as(texts, derived, names)

    monkeypatch.setattr(multiplier_core, "_prints_as", spy)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
