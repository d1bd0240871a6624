"""The package's size and its command line are running gates.
``src/spectrune/*.py`` stays within the line budget of ROADMAP.md item 5,
so code that a change adds is paid for by code it deletes; and each
subcommand keeps the options pinned here, so a knob is added or removed
only as a reviewed edit of this file, recorded in CHANGES.md."""

from __future__ import annotations

import argparse
from pathlib import Path

from spectrune.cli import build_parser

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectrune"
LINE_BUDGET = 2851

# each subcommand's option strings, and its positionals by name
OPTIONS = {
    "synth": ["--classes", "--d", "--gap-scale", "--n", "--noise-var", "--out", "--p",
              "--queries-per-class", "--seed", "--signal-var", "--top-k"],
    "accumulate": ["--kernel", "--manifest", "--out"],
    "spectrum": ["--out", "sigmas"],
    "threshold": ["--fixed-log10", "--out", "sigmas"],
    "mscsa": ["--out", "subspace_a", "subspace_b"],
    "project": ["--basis", "--out", "input", "output"],
    "eval": ["--basis", "--out", "--pairs-img", "--pairs-txt", "--prototypes", "--queries",
             "--query-only", "--seed", "--sigma", "--top-k", "--trials"],
    "class-overlap": ["--basis", "--embeddings", "--labels", "--out"],
    "activations": ["--basis", "--embeddings", "--out", "--top"],
}


def test_package_stays_within_its_line_budget():
    # newline bytes, as ``wc -l`` counts them
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_BUDGET, (
        f"src/spectrune/*.py has {lines} lines, over the budget of {LINE_BUDGET} "
        "(see ROADMAP.md item 5)"
    )


def test_each_subcommand_keeps_its_reviewed_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for a in sub._actions if a.dest != "help" for s in a.option_strings or [a.dest])
        for name, sub in commands.choices.items()
    }
    assert options == OPTIONS, (
        "a subcommand gained or lost an option: edit OPTIONS in this file and "
        "record the option and its reason in CHANGES.md"
    )
