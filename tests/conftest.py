"""Shared test configuration.

The terminal-summary hook prints one PASS/FAIL line per acceptance
criterion (every test in test_acceptance.py) at the end of the run, and
``handed_over`` lists the arrays that ``store._frozen`` takes over.
"""

from __future__ import annotations

import pytest

from spectrune import covariance, spectral, store, subspaces


@pytest.fixture
def handed_over(monkeypatch) -> list:
    """The arrays that ``_frozen`` took over without a copy, as they came,
    in every module that freezes arrays."""
    handed = []

    def spy(arr, _frozen=store._frozen):
        out = _frozen(arr)
        if out is arr:
            handed.append(arr)
        return out

    for module in (store, covariance, spectral, subspaces):
        monkeypatch.setattr(module, "_frozen", spy)
    return handed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(report, "when", "call") == "call" or outcome == "error":
                name = nodeid.split("::")[-1]
                results[name] = "PASS" if outcome == "passed" else "FAIL"
    if results:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, outcome in results.items():
            terminalreporter.write_line(f"{outcome}: {name}")
