"""The package's size is a running gate: ``src/spectrune/*.py`` stays within
the line budget of ROADMAP.md item 5, so code that a change adds is paid for
by code it deletes."""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectrune"
LINE_BUDGET = 2851


def test_package_stays_within_its_line_budget():
    # newline bytes, as ``wc -l`` counts them
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_BUDGET, (
        f"src/spectrune/*.py has {lines} lines, over the budget of {LINE_BUDGET} "
        "(see ROADMAP.md item 5)"
    )
