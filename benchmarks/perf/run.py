"""One benchmark for the whole stack: seven workloads, host and simulated
end-to-end metrics, and a traced per-layer breakdown.

Run every workload (2 round-robin rounds, each workload in its own
child interpreter, one at a time)::

    python benchmarks/perf/run.py --seed 0            # end-to-end metrics
    python benchmarks/perf/run.py --seed 0 --trace    # per-layer metrics
    python benchmarks/perf/run.py --seed 0 --record   # ...and append history

Run one workload in this process (the form ``BENCHMARK.json`` names)::

    python benchmarks/perf/run.py --workload ode --seed 0 --seconds 8 --trace 0

A workload run prepares its inputs (untimed), runs one untimed warm-up
rep, then timed reps until ``--seconds`` have passed (at least three),
with ``gc.collect()`` before each and the collector paused during it.
Every rep's outputs are checked against the references outside the
timed region.  The process's peak memory is read next, and only then
does the last rep get the full verification (trace invariants, cluster
checks) and the canonical trace digest.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric, or with ``--trace 1`` every
per-layer metric).  The exit status is non-zero when any check fails.

Details of each run go to ``benchmarks/results/perf/`` (gitignored):
``<workload>.json`` / ``<workload>.trace.json`` with every rep, spans of
the last traced rep in ``spans_<workload>.json``, and the all-workload
summary in ``results.json`` (``results_trace.json`` with ``--trace``).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (benchmark-local; imports nothing from repro)

RESULTS_DIR = ROOT / "benchmarks" / "results" / "perf"
HISTORY = Path(__file__).with_name("history.jsonl")

WORKLOAD_NAMES = (
    "ode",
    "ode_lookahead",
    "dag_eager",
    "dag_dmda",
    "serve_overload",
    "cluster_chaos",
    "apps_short",
)

#: timed reps per run, whatever ``--seconds`` allows
MIN_REPS = 3
#: round-robin rounds of the all-workload mode (a traced run makes one)
ROUNDS = 2
#: the hot-layer and coverage gates of the traced run
MIN_SPAN_COVERAGE = 0.85
#: workloads that run with glibc's mmap threshold pinned (see
#: :func:`pin_mmap_threshold`)
PINNED_ALLOCATOR = ("serve_overload",)

#: end-to-end metrics: name, unit, better, bound, how a run reduces its reps.
#: Host times are wall clock; "sim" units are the simulated machine's
#: virtual time.  Each bound is three times the largest spread across
#: seeds measured for the metric, at least 10% and at most 25%; the
#: README ("Bounds") gives the measurements.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "median"),
    ("peak_rss_mb", "MiB", "lower", 0.10, "max"),
    ("virtual_makespan_s", "sim_s", "lower", 0.15, "exact"),
    ("virtual_tail_ms", "sim_ms", "lower", 0.25, "exact"),
    ("goodput_per_sim_s", "1/sim_s", "higher", 0.15, "exact"),
)

#: host time of whole reps.  An "op" is a task for task workloads and an
#: offered request for the serving workloads.  From run to run these
#: spread up to ~10% on a shared 2-core machine, so they are not gated
#: end to end: the traced run reports them per layer (from its untraced
#: reps), and the all-workload summary keeps them for compare.py.
HOST_TIMES = (
    ("wall_s", "s", "lower", 0.10, "best"),
    ("ops_per_s", "1/s", "higher", 0.10, "best"),
)

#: per-layer counters read from public state after a traced rep
#: (name, unit, better)
COUNTERS = tuple((m, u, b) for m, u, b, _, _ in HOST_TIMES) + (
    ("engine.virtual_dep_wait_s", "sim_s", "lower"),
    ("engine.virtual_sched_wait_s", "sim_s", "lower"),
    ("sched.dmda.exploration_ratio", "fraction", "lower"),
    ("lookahead.planned_window_ratio", "fraction", "higher"),
    ("lookahead.fused_edges", "count", "higher"),
    ("perfmodel.predict_hit_ratio", "fraction", "higher"),
    ("data.transfers", "count", "lower"),
    ("data.bytes_per_task", "B", "lower"),
    ("trace.rows", "count", "lower"),
    ("serve.admitted_ratio", "fraction", "higher"),
    ("serve.coalescer.mean_batch", "requests", "higher"),
    ("cluster.failovers", "count", "lower"),
    ("cluster.hedges", "count", "lower"),
    ("cluster.wasted_attempt_ratio", "fraction", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.prepare_rss_mb", "MiB", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.span_coverage", "fraction", "higher"),
    ("check.verify_s", "s", "lower"),
)

_LAYER_STATS = (
    ("calls", "count"),
    ("self_s", "s"),
    ("self_ns_per_call", "ns"),
    ("share", "fraction"),
)

PER_LAYER = tuple(
    (f"{layer}.{stat}", unit, "lower")
    for layer in tracing.LAYERS
    for stat, unit in _LAYER_STATS
) + COUNTERS

#: layers that must record calls on a workload in the traced run: the
#: workloads each layer's cost shows on
HOT = {
    "composer": ("apps_short",),
    "stubs": ("ode", "ode_lookahead", "apps_short"),
    "containers": ("ode", "apps_short"),
    "runtime": ("dag_eager",),
    "engine": ("dag_eager",),
    "sched.eager": ("dag_eager",),
    "sched.dmda": ("dag_dmda", "ode"),
    "sched.fair": ("serve_overload",),
    "lookahead": ("ode_lookahead",),
    "perfmodel": ("dag_dmda",),
    "data": ("dag_eager", "dag_dmda"),
    "trace": ("dag_eager",),
    "hw": ("ode", "ode_lookahead"),
    "serve.admission": ("serve_overload", "cluster_chaos"),
    "serve.coalescer": ("serve_overload", "cluster_chaos"),
    "serve.wfq": ("serve_overload",),
    "serve.server": ("serve_overload",),
    "cluster.router": ("cluster_chaos",),
    "cluster.ring": ("cluster_chaos",),
    "cluster.detector": ("cluster_chaos",),
    "cluster.node": ("cluster_chaos",),
}


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold after the first free of an mmapped block.
    From then on serving's per-request 256 KiB output arrays come from
    the heap, where calloc must zero them: a run takes ~25% longer and
    holds ~5x the memory, depending on allocation history alone.  Only
    the workloads in :data:`PINNED_ALLOCATOR` run pinned; the others
    measure the allocator as users get it.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: no adaptive threshold to pin
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    libc.mallopt(m_mmap_threshold, 128 * 1024)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_value(values, better: str, how: str) -> float:
    """One value of a metric from its per-rep (or per-run) values.

    "best" is the best rep, because interference only ever makes a rep
    slower; "exact" metrics are simulated and equal on every rep.
    """
    values = list(values)
    if how == "median":
        return statistics.median(values)
    if how == "best":
        return max(values) if better == "higher" else min(values)
    if how == "max":
        return max(values)
    if how == "exact":
        return values[0]
    raise ValueError(how)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def max_rss_mb() -> float:
    """This process's resident-set high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rep_row(wl, inp, r, tracer=None) -> dict:
    """Everything the run keeps of one rep, verified outside its timing."""
    import numpy as np

    import workloads

    lat = r.latencies_s
    row = {
        "setup_s": r.setup_s,
        "wall_s": r.wall_s,
        "ops_per_s": r.ops / (r.wall_s - r.setup_s),
        "virtual_makespan_s": r.makespan_s,
        "virtual_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        # the highest percentile with ten samples beyond it
        "virtual_tail_ms": float(np.sort(lat)[max(len(lat) - 11, 0)]) * 1e3,
        "goodput_per_sim_s": r.completed / r.makespan_s,
        "n_latency": int(len(lat)),
        "ops": r.ops,
        "completed": r.completed,
        "shed": r.shed,
        "failed": r.failed,
        "fingerprint": workloads.fingerprint(r),
        "errors": wl.verify(inp, r, False),
    }
    if tracer is not None:
        row["layers"] = layer_metrics(tracer, r)
    return row


def timed_reps(wl, inp, seconds: float, min_reps: int, tracer=None):
    """Timed reps until ``seconds`` pass; returns their rows and the last rep."""
    rows = []
    r = None
    deadline = time.perf_counter() + seconds
    while len(rows) < min_reps or time.perf_counter() < deadline:
        r = None  # one rep's objects alive at a time
        gc.collect()
        gc.disable()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            r = wl.rep(inp)
        finally:
            if tracer is not None:
                tracer.active = False
            gc.enable()
        rows.append(_rep_row(wl, inp, r, tracer))
    return rows, r


def layer_metrics(tracer, r) -> dict:
    """Per-layer stats of one traced rep plus the layers' public counters."""
    spans = tracer.spans()
    wall_ns = r.t_end_ns - r.t0_ns
    calls, self_ns = tracing.layer_totals(spans, len(tracer.layers))
    out: dict[str, float] = {}
    for i, layer in enumerate(tracer.layers):
        out[f"{layer}.calls"] = calls[i]
        out[f"{layer}.self_s"] = self_ns[i] / 1e9
        out[f"{layer}.self_ns_per_call"] = self_ns[i] / calls[i] if calls[i] else 0.0
        out[f"{layer}.share"] = self_ns[i] / wall_ns
    out["harness.span_coverage"] = tracing.root_ns(spans) / wall_ns
    predict = tracer.names.index("PerfModel.predict")
    n_predict = sum(1 for s in spans if s[4] == predict)
    out["perfmodel.predict_hit_ratio"] = (
        tracer.hits.get(predict, 0) / n_predict if n_predict else 0.0
    )
    out.update(public_counters(r))
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def public_counters(r) -> dict:
    """Layer counters read from the objects a rep leaves behind."""
    import numpy as np

    from repro.composer.lookahead import LookaheadScheduler

    traces = [rt.trace for rt in r.runtimes]
    col = lambda tr, f: np.asarray(tr.columns(f))  # noqa: E731
    dep_wait = sum(float(np.sum(col(t, "ready_time") - col(t, "submit_time"))) for t in traces)
    sched_wait = sum(float(np.sum(col(t, "start_time") - col(t, "ready_time"))) for t in traces)
    decisions = sum(sum(t.decisions_by_codelet.values()) for t in traces)
    planners = [rt.scheduler for rt in r.runtimes if isinstance(rt.scheduler, LookaheadScheduler)]
    n_tasks = sum(t.n_tasks for t in traces)
    rows = sum(len(getattr(t, kind)) for t in traces for kind in t.RECORD_KINDS)
    dispatched = [q for q in r.requests if not q.shed]
    ctrace = r.state["cluster"].trace if "cluster" in r.state else None
    attempts = len(ctrace.attempts) if ctrace else 0
    return {
        "engine.virtual_dep_wait_s": dep_wait,
        "engine.virtual_sched_wait_s": sched_wait,
        "sched.dmda.exploration_ratio": _ratio(
            sum(t.n_exploration_decisions for t in traces), decisions
        ),
        "lookahead.planned_window_ratio": _ratio(
            sum(p.n_planned_windows for p in planners), sum(p.n_windows for p in planners)
        ),
        "lookahead.fused_edges": sum(p.n_fused_edges for p in planners),
        "data.transfers": sum(t.n_transfers for t in traces),
        "data.bytes_per_task": _ratio(sum(t.bytes_transferred for t in traces), n_tasks),
        "trace.rows": rows,
        "serve.admitted_ratio": _ratio(r.ops - r.shed, r.ops) if r.requests else 0.0,
        # batch-weighted: dispatched requests per dispatched batch
        "serve.coalescer.mean_batch": _ratio(
            len(dispatched), sum(1.0 / q.batch_size for q in dispatched)
        ),
        "cluster.failovers": ctrace.n_failovers if ctrace else 0,
        "cluster.hedges": ctrace.n_hedges if ctrace else 0,
        "cluster.wasted_attempt_ratio": _ratio(attempts - r.completed, attempts),
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0
) -> tuple[dict, dict]:
    """Run one workload; returns (the contract's result line, details)."""
    t = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - t
    wl = workloads.WORKLOADS[name]
    inp = wl.prepare(seed, scale)
    # the process before its first rep: interpreter, imports, inputs, references
    prepare_rss_mb = max_rss_mb()

    warm_row = _rep_row(wl, inp, wl.rep(inp))

    if traced:
        untraced, _ = timed_reps(wl, inp, seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rows, last = timed_reps(wl, inp, seconds / 2, 1, tracer)
            _write_spans(name, tracer)
        finally:
            tracer.uninstall()
        all_rows = [warm_row] + untraced + rows
    else:
        rows, last = timed_reps(wl, inp, seconds, MIN_REPS)
        all_rows = [warm_row] + rows
    # the high-water mark of the reps, before the full checks below add theirs
    peak_rss_mb = max_rss_mb()

    t = time.perf_counter()
    errors = [f"last rep: {e}" for e in wl.verify(inp, last, True)]
    digest = wl.digest(last)
    verify_s = time.perf_counter() - t
    del last

    for i, row in enumerate(all_rows):
        errors += [f"rep {i}: {e}" for e in row["errors"]]
        if row["fingerprint"] != warm_row["fingerprint"]:
            errors.append(f"rep {i}: simulated schedule differs from the warm-up rep")

    if traced:
        metrics = {
            m: statistics.median(row["layers"][m] for row in rows)
            for m in rows[0]["layers"]
        }
        for m, _unit, better, _bound, how in HOST_TIMES:
            metrics[m] = run_value((row[m] for row in untraced), better, how)
        metrics["harness.import_s"] = import_s
        metrics["harness.trace_overhead"] = min(r["wall_s"] for r in rows) / min(
            r["wall_s"] for r in untraced
        )
        metrics["check.verify_s"] = verify_s
        metrics["harness.prepare_rss_mb"] = prepare_rss_mb
        errors += trace_gates(name, metrics)
        metrics = {m: metrics[m] for m, _, _ in PER_LAYER}
        units = {m: u for m, u, _ in PER_LAYER}
    else:
        metrics = {}
        for m, _unit, better, _bound, how in END_TO_END:
            if m == "peak_rss_mb":
                metrics[m] = peak_rss_mb
            else:
                metrics[m] = run_value((row[m] for row in rows), better, how)
        units = {m: u for m, u, *_ in END_TO_END}

    attempted = sum(row["ops"] for row in all_rows)
    # a rep with a failed check fails all of its ops
    failed = sum(row["ops"] if row["errors"] else row["failed"] for row in all_rows)
    if errors and failed == 0:
        failed = attempted
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "trace_sha256": digest,
        "prepare_rss_mb": prepare_rss_mb,
        "errors": errors,
        "reps": rows,
        "warmup": warm_row,
        "result": result,
    }
    if traced:
        detail["untraced_reps"] = untraced
    return result, detail


def trace_gates(name: str, metrics: dict) -> list[str]:
    errors = []
    if metrics["harness.span_coverage"] < MIN_SPAN_COVERAGE:
        errors.append(
            f"root spans cover {metrics['harness.span_coverage']:.1%} of the traced "
            f"rep, under {MIN_SPAN_COVERAGE:.0%}"
        )
    for layer, hot_on in HOT.items():
        if name in hot_on and metrics[f"{layer}.calls"] == 0:
            errors.append(f"layer {layer} is hot on {name} but recorded no calls")
    return errors


def _write_spans(name: str, tracer) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    doc = {
        "layers": tracer.layers,
        "names": tracer.names,
        "columns": {f: list(v) for f, v in tracer.columns.items()},
    }
    (RESULTS_DIR / f"spans_{name}.json").write_text(json.dumps(doc))


def _detail_path(name: str, traced: bool) -> Path:
    return RESULTS_DIR / f"{name}{'.trace' if traced else ''}.json"


# ---------------------------------------------------------------------------
# every workload, each in a child interpreter
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, traced: bool) -> tuple[dict, bool]:
    """Round-robin the workloads through child interpreters, one at a time."""
    per_wl: dict[str, list[dict]] = {w: [] for w in WORKLOAD_NAMES}
    ok = True
    rounds = 1 if traced else ROUNDS
    t0 = time.perf_counter()
    for _ in range(rounds):
        for name in WORKLOAD_NAMES:
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "1" if traced else "0",
            ]
            detail = _detail_path(name, traced)
            detail.unlink(missing_ok=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            if not detail.exists():
                raise SystemExit(f"{name}: the workload run crashed (exit {proc.returncode})")
            ok &= proc.returncode == 0
            per_wl[name].append(json.loads(detail.read_text()))
    summary = {
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "traced": traced,
        "total_s": time.perf_counter() - t0,
        "workloads": {name: summarize(runs, traced) for name, runs in per_wl.items()},
    }
    return summary, ok


def summarize(runs: list[dict], traced: bool) -> dict:
    """One workload's metrics over all rounds, with every rep kept."""
    reps = [row for run in runs for row in run["reps"]]
    results = [run["result"] for run in runs]
    out = {
        "trace_sha256": sorted({run["trace_sha256"] for run in runs}),
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "errors": [e for run in runs for e in run["errors"]],
        "n_reps": len(reps),
        "metrics": {},
    }
    defs = (
        [(m, u, b, None, "median") for m, u, b in PER_LAYER]
        if traced
        else END_TO_END + HOST_TIMES
    )
    for m, unit, better, bound, how in defs:
        if traced:
            values = [res["metrics"][m]["value"] for res in results]
        elif m == "peak_rss_mb":
            values = [res["metrics"][m]["value"] for res in results]
        else:
            values = [row[m] for row in reps]
        q1, med, q3 = quartiles(values)
        out["metrics"][m] = {
            "value": run_value(values, better, how),
            "unit": unit,
            "better": better,
            "bound": bound,
            "method": how,
            "median": med,
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    if not traced:
        # the median and the sample count behind virtual_tail_ms
        out["n_latency"] = reps[0]["n_latency"]
        out["virtual_p50_ms"] = reps[0]["virtual_p50_ms"]
        out["shed"] = reps[0]["shed"]
    return out


def format_summary(summary: dict) -> str:
    lines = []
    for name, wl in summary["workloads"].items():
        status = "ok" if wl["correct"] else "FAILED"
        lines.append(
            f"{name}  [{status}; {wl['attempted']} ops, {wl['failed']} failed, "
            f"{wl['n_reps']} reps, trace {wl['trace_sha256'][0][:12]}]"
        )
        if not summary["traced"]:
            lines.append(
                f"  latency samples {wl['n_latency']}, virtual p50 "
                f"{wl['virtual_p50_ms']:.6g} sim_ms, {wl['shed']} shed per rep"
            )
        for m, v in wl["metrics"].items():
            line = f"  {m:<36s} {v['value']:>14.6g} {v['unit']:<9s}"
            if summary["traced"]:
                if v["value"]:  # skip layers the workload never enters
                    lines.append(line)
            else:
                lines.append(
                    f"{line} (median {v['median']:.6g}, q1 {v['q1']:.6g}, q3 {v['q3']:.6g})"
                )
        for e in wl["errors"]:
            lines.append(f"  ERROR {e}")
    lines.append(f"total {summary['total_s']:.1f} s")
    return "\n".join(lines)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric_layer(metric: str) -> str:
    """The layer a metric belongs to: its name up to the last dot."""
    if "." in metric:
        return metric.rsplit(".", 1)[0]
    return "end_to_end" if metric in {m[0] for m in END_TO_END} else "host"


def history_records(summary: dict, sha: str) -> list[dict]:
    records = []
    for name, wl in summary["workloads"].items():
        for m, v in wl["metrics"].items():
            records.append(
                {
                    "workload": name,
                    "layer": metric_layer(m),
                    "metric": m,
                    "unit": v["unit"],
                    "value": v["value"],
                    "reps": wl["n_reps"],
                    "method": v["method"],
                    "seed": summary["seed"],
                    "traced": summary["traced"],
                    "git_sha": sha,
                }
            )
    return records


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0, help="timed reps per run")
    parser.add_argument(
        "--trace", nargs="?", const="1", default="0", choices=("0", "1"),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="all-workload summary file")
    parser.add_argument("--record", action="store_true", help="append to history.jsonl")
    args = parser.parse_args(argv)
    traced = args.trace == "1"

    if args.workload:
        if args.workload in PINNED_ALLOCATOR:
            pin_mmap_threshold()
        result, detail = run_workload(args.workload, args.seed, args.seconds, traced)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        _detail_path(args.workload, traced).write_text(json.dumps(detail, indent=1))
        for e in detail["errors"]:
            print(f"ERROR {e}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    summary, ok = run_all(args.seed, args.seconds, traced)
    out = args.out or RESULTS_DIR / ("results_trace.json" if traced else "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(format_summary(summary))
    print(f"wrote {out}")
    if args.record:
        with HISTORY.open("a") as f:
            for rec in history_records(summary, git_sha()):
                f.write(json.dumps(rec) + "\n")
        print(f"appended to {HISTORY}")
    ok &= all(wl["correct"] for wl in summary["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
