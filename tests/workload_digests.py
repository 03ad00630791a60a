"""The benchmark workloads' trace digests and virtual metrics, pinned.

Each of the seven workloads of ``benchmarks/perf`` simulates a fixed
program, so its canonical trace digest and its three virtual end-to-end
metrics (``virtual_makespan_s``, ``virtual_tail_ms``,
``goodput_per_sim_s``) are a function of the seed alone.
``tests/data/workload_digests.json`` freezes them at :data:`SEEDS`: 0
and 7, the seeds the benchmark and CI run, and 13, which no change is
tuned against.  Each entry comes from one rep at full scale, called
through the workload's own ``prepare``/``rep``/``digest`` (not
``run.py``), with the metrics reduced by the harness's own row builder.

Not part of tier-1 (about ten seconds per seed).  Check::

    PYTHONPATH=src python tests/workload_digests.py

A change that moves an entry regenerates the file from a known-good
build and lists old -> new in CHANGES.md, as the golden digests do::

    PYTHONPATH=src:tests python -c \
        "import workload_digests as m; m.write_workload_digests()"
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERF_DIR = ROOT / "benchmarks" / "perf"
DIGESTS_PATH = ROOT / "tests" / "data" / "workload_digests.json"

#: the benchmark's default seed, the seed CI's cluster run adds, and one
#: held out from tuning
SEEDS = (0, 7, 13)
VIRTUAL_METRICS = ("virtual_makespan_s", "virtual_tail_ms", "goodput_per_sim_s")


def _harness():
    for path in (ROOT / "src", PERF_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    import workloads

    return run, workloads


def workload_entry(name: str, seed: int) -> dict:
    """One full-scale rep of ``name`` at ``seed``: its digest and metrics."""
    run, workloads = _harness()
    wl = workloads.WORKLOADS[name]
    inp = wl.prepare(seed, 1.0)
    rep = wl.rep(inp)
    row = run._rep_row(wl, inp, rep)
    if row["errors"]:
        raise AssertionError(f"{name} seed {seed}: {row['errors']}")
    entry = {"trace_sha256": wl.digest(rep)}
    entry.update((m, row[m]) for m in VIRTUAL_METRICS)
    return entry


def compute_all() -> dict[str, dict[str, dict]]:
    run, _ = _harness()
    return {
        name: {str(seed): workload_entry(name, seed) for seed in SEEDS}
        for name in run.WORKLOAD_NAMES
    }


def write_workload_digests() -> None:  # pragma: no cover - maintenance helper
    DIGESTS_PATH.write_text(json.dumps(compute_all(), indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")


def main() -> int:
    pinned = json.loads(DIGESTS_PATH.read_text())
    run, _ = _harness()
    moved = []
    for name in run.WORKLOAD_NAMES:
        for seed in SEEDS:
            got = workload_entry(name, seed)
            want = pinned[name][str(seed)]
            status = "ok" if got == want else "MOVED"
            print(f"{name} seed {seed}: {status}", flush=True)
            if got != want:
                moved += [
                    f"{name} seed {seed} {key}: {want.get(key)!r} -> {got[key]!r}"
                    for key in got
                    if got[key] != want.get(key)
                ]
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
