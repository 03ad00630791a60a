"""The paper's own numbers are pinned: Table I, Figures 3, 5, 6, 7, ABL1-6.

Each experiment runs at a reduced size; every field of its result rows
(floats at full precision, not as the tables round them) is hashed and
compared with ``tests/data/paper_digests.json``.  A change that moves a
paper number fails here, in tier-1, before anyone regenerates
EXPERIMENTS.md.  The sparse-matrix experiments (Figure 5, ABL1, ABL5,
ABL6) are also run under two ``PYTHONHASHSEED`` values: their matrices
must not depend on the per-process salt of ``hash(str)``.

Regenerate the golden file only when a change is meant to move a paper
number, and regenerate EXPERIMENTS.md's tables in the same change
(``pytest benchmarks/test_*.py``)::

    PYTHONPATH=src:tests/integration python -c \
        "import test_paper_golden as m; m.write_golden()"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ablations, fig3, fig5, fig6, fig7, table1

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "paper_digests.json"
SRC = Path(__file__).resolve().parents[2] / "src"

#: the libsolve row is left out: its ODE solver costs seconds at any
#: size, and Figure 7 pins the same solver
FIG6_APPS = tuple(app for app in fig6.APP_ORDER if app != "libsolve")

SCENARIOS = {
    "table1": table1.run,
    "fig3": lambda: fig3.run(n=1000),
    "fig5": lambda: fig5.run(scale=0.02),
    "fig6_c2050": lambda: fig6.run("c2050", apps=FIG6_APPS, size_scale=0.02),
    "fig6_c1060": lambda: fig6.run("c1060", apps=FIG6_APPS, size_scale=0.02),
    "fig7": lambda: fig7.run(sizes=(250, 500), steps=10),
    "abl1_schedulers": lambda: ablations.scheduler_study(scale=0.02),
    "abl2_containers": lambda: ablations.container_study(nrows=5000, calls=4),
    "abl3_narrowing": lambda: ablations.narrowing_study(size=128, calls=4),
    "abl4_energy": lambda: ablations.energy_study(calls=8, n=256),
    "abl5_multigpu": lambda: ablations.multigpu_study(scale=0.02),
    "abl6_multistage": lambda: ablations.multistage_study(
        calls=10, nnz=5000, nrows=1000
    ),
}

#: the experiments built on generated sparse matrices
SPARSE = ("fig5", "abl1_schedulers", "abl5_multigpu", "abl6_multistage")


def _plain(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot hash a {type(obj).__name__}")


def digest(result) -> str:
    rows = json.dumps(result, sort_keys=True, default=_plain)
    return hashlib.sha256(rows.encode()).hexdigest()


def compute_all(names=tuple(SCENARIOS)) -> dict[str, str]:
    return {name: digest(SCENARIOS[name]()) for name in names}


def write_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN_PATH.write_text(json.dumps(compute_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; regenerate it (see module docstring)"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def digests() -> dict:
    return compute_all()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_paper_numbers_match_golden(name: str, digests: dict, golden: dict):
    assert digests[name] == golden[name], (
        f"experiment {name!r} moved a paper number; if that is intended, "
        "rewrite the golden file and EXPERIMENTS.md (see module docstring)"
    )


def test_sparse_experiments_ignore_the_str_hash_seed(golden: dict):
    code = (
        "import json, test_paper_golden as m; "
        "print(json.dumps(m.compute_all(m.SPARSE)))"
    )
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    runs = [json.loads(proc.communicate(timeout=300)[0]) for proc in procs]
    expected = {name: golden[name] for name in SPARSE}
    assert runs == [expected, expected]
