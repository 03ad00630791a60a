"""The one command line behind every ``python -m repro.experiments.<name>``.

An experiment module exposes ``study(smoke: bool, ...) -> Study`` and
ends with ``raise SystemExit(cli(study))``.  The study only measures;
this module owns everything around it, once:

- ``--smoke`` (small sizes for CI, same gates) and ``--outdir``
  (default ``benchmarks/results``), plus any module-specific flag passed
  to :func:`cli` as ``name=argparse-kwargs`` and forwarded to the study
  as a keyword;
- printing :attr:`Study.report`, writing each table as ``<name>.txt``
  and the BENCH document as ``BENCH_<bench>.json``, one ``wrote`` line
  per file;
- printing each gate and its outcome, and exit status 1 when any gate
  fails.

It also owns :func:`table`, the one renderer every experiment's
``format_*`` printer builds its output with.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    notes: Sequence[str] = (),
) -> str:
    """``rows`` under ``header`` as a GitHub-flavoured Markdown table.

    ``title`` is a paragraph above the table and each note a paragraph
    below it; cells are rendered with ``str``, so a caller formats its
    numbers before passing them in.
    """
    lines = [f"| {' | '.join(header)} |", "|" + "---|" * len(header)]
    lines += [f"| {' | '.join(map(str, row))} |" for row in rows]
    return "\n\n".join([title, "\n".join(lines), *notes])


@dataclass
class Study:
    """What one experiment run produced."""

    #: printed to stdout
    report: str
    #: the BENCH JSON body, written as ``BENCH_<bench>.json``; ``None``
    #: writes no file
    doc: dict | None = None
    bench: str = ""
    #: name -> text, each written as ``<name>.txt``
    tables: dict[str, str] = field(default_factory=dict)
    #: gate name -> passed; any failure makes the command exit 1
    gates: dict[str, bool] = field(default_factory=dict)


def cli(
    study: Callable[..., Study], argv: list[str] | None = None, **options: dict
) -> int:
    """Parse ``argv``, run ``study``, write its outputs, return the exit code."""
    module = sys.modules[study.__module__]
    parser = argparse.ArgumentParser(
        prog=module.__spec__ and f"python -m {module.__spec__.name}",
        description=(module.__doc__ or "").partition("\n")[0],
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI, same gates"
    )
    parser.add_argument(
        "--outdir",
        type=Path,
        default=RESULTS_DIR,
        help=f"where BENCH JSON and tables land (default {RESULTS_DIR})",
    )
    for name, kwargs in options.items():
        parser.add_argument(f"--{name}", **kwargs)
    args = vars(parser.parse_args(argv))
    outdir = args.pop("outdir")

    result = study(**args)
    print(result.report)
    files = {f"{name}.txt": text + "\n" for name, text in result.tables.items()}
    if result.doc is not None:
        files[f"BENCH_{result.bench}.json"] = json.dumps(result.doc, indent=1) + "\n"
    if files:
        outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
        print(f"wrote {outdir / name}")
    for name, ok in result.gates.items():
        print(f"gate {name}: ok" if ok else f"FAILED gate: {name}")
    return 0 if all(result.gates.values()) else 1
