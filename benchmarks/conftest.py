"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures.  The
``report`` fixture prints each rendered table and writes it into
EXPERIMENTS.md, between that table's ``<!-- table:<name> -->`` and
``<!-- /table:<name> -->`` markers, so the committed document always
holds the numbers the last ``pytest benchmarks/test_*.py`` measured.
The prose around the markers is hand-written.
"""

from __future__ import annotations

from pathlib import Path

import pytest

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def write_table(name: str, text: str) -> None:
    """Replace the body of ``name``'s marked block in EXPERIMENTS.md."""
    start, end = f"<!-- table:{name} -->\n", f"<!-- /table:{name} -->"
    head, found, rest = EXPERIMENTS.read_text().partition(start)
    _, found_end, tail = rest.partition(end)
    if not (found and found_end):
        raise KeyError(f"EXPERIMENTS.md has no {start.strip()} ... {end} block")
    EXPERIMENTS.write_text(f"{head}{start}{text}\n{end}{tail}")


@pytest.fixture
def report():
    """Callable printing a rendered table and writing it into EXPERIMENTS.md."""

    def _report(name: str, text: str) -> None:
        print(f"\n{text}\n")
        write_table(name, text)

    return _report
