"""Compare two all-workload summaries of ``run.py``, metric by metric.

    python benchmarks/perf/compare.py A.json B.json

For each workload it prints one row per metric of the summary (the
end-to-end metrics and the host times ``wall_s`` and ``ops_per_s``):
each side's value, the median and quartiles of its reps, the metric's
bound, and a verdict for B against A:

- simulated metrics and the trace digest must match exactly: ``same`` or
  ``differs``;
- host metrics are ``unresolved`` when either side's run-to-run spread
  (interquartile range over median of its reps) is wider than the bound,
  unless every rep of B reads better than every rep of A; otherwise
  ``worse`` when B's median is worse than A's by more than the bound,
  and ``within`` when not.

The exit status is 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(a: dict, b: dict) -> str:
    if a["method"] == "exact":
        # every rep of a run simulates the same schedule
        return "same" if set(a["values"]) == set(b["values"]) else "differs"
    higher = a["better"] == "higher"
    b_wins = (
        min(b["values"]) > max(a["values"])
        if higher
        else max(b["values"]) < min(a["values"])
    )
    if max(spread(a), spread(b)) > a["bound"] and not b_wins:
        return "unresolved"
    worse_by = (a["median"] - b["median"]) if higher else (b["median"] - a["median"])
    return "worse" if worse_by > a["bound"] * abs(a["median"]) else "within"


def _side(m: dict) -> str:
    return f"{m['value']:.5g} (median {m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}])"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines = []
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        same_trace = wa["trace_sha256"] == wb["trace_sha256"]
        ok &= same_trace and wb["correct"]
        lines.append(
            f"{name}: trace_sha256 {'same' if same_trace else 'differs'}, "
            f"B {'correct' if wb['correct'] else 'FAILED'}"
        )
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"][metric]
            v = verdict(ma, mb)
            ok &= v not in ("worse", "differs")
            lines.append(
                f"  {metric:<18s} A {_side(ma):<46s} B {_side(mb):<46s} "
                f"bound {ma['bound']:.0%}  {v}"
            )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, ok = compare(a, b)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
