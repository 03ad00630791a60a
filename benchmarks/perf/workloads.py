"""The benchmark's seven workloads.

Each :class:`Workload` has four steps:

- ``prepare(seed, scale)`` builds what the reps consume but does not
  time: generated inputs (DAG streams, tenant mixes), the pre-composed
  application of ``ode``/``ode_lookahead``, and the reference results of
  the hand-written ``repro.direct`` ports;
- ``rep(inputs)`` is one timed repetition.  It builds its own runtime
  objects, runs a fixed amount of work to completion, and stamps its
  start, its set-up boundary (the first component invocation, task
  submission or request) and its end with ``time.perf_counter_ns``;
- ``verify(inputs, rep, full)`` checks the rep's outputs after the
  timed region and returns the failed checks.  ``full=True`` (the last
  rep of a run) also runs the trace invariant checker on every runtime
  session, and ``check_cluster`` on the cluster;
- ``digest(rep)`` is the rep's canonical trace digest:
  ``sha256(canonical_chrome_json(trace, machine))`` over its sessions,
  or ``ClusterTrace.digest()`` for the cluster.

``scale`` shrinks the problem for smoke tests; the benchmark runs at 1.

The app workloads (``ode``, ``ode_lookahead``, ``apps_short``) run with
the runtime's default timing jitter (``noise_sigma=0.03``) drawn from
the seed, so their simulated times depend on the seed as the other
workloads' inputs do.  Every simulated number is deterministic for a
given seed.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.apps import mains
from repro.check import differential
from repro.check.cluster import check_cluster
from repro.check.invariants import assert_trace_legal
from repro.cluster import NodeFaultModel, cluster_slo_report
from repro.direct import DIRECT_MODULES
from repro.experiments import cluster as cluster_exp
from repro.experiments import serving as serving_exp
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.trace_export import canonical_chrome_json
from repro.serve import AdmissionPolicy, CompositionServer, slo_report

#: scratch space for composed application packages (gitignored)
WORK_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "perf" / "work"

#: seeded timing jitter of the app workloads (the Runtime default)
NOISE = 0.03

ODE_N = 4096
ODE_STEPS = 588
LOOKAHEAD_STEPS = 200
LOOKAHEAD_WINDOW = 16

DAG_TASKS = 30_000
DAG_DMDA_TASKS = 5_000
DAG_HANDLES = 256
DAG_MODES = ("r", "rw", "w")
DAG_MODE_P = (0.6, 0.3, 0.1)

SERVE_TENANTS = 4
SERVE_RATE_HZ = 20_000.0
SERVE_REQUESTS = 2_400

CLUSTER_NODES = 8
CLUSTER_RATE_HZ = 12_000.0
CLUSTER_REQUESTS = 6_000

APPS_ROUNDS = 5


def now_ns() -> int:
    return time.perf_counter_ns()


@dataclass
class Rep:
    """One repetition: host stamps, work counts and simulated results."""

    t0_ns: int
    setup_end_ns: int
    t_end_ns: int
    #: operations offered: tasks submitted or requests arrived
    ops: int
    completed: int
    #: simulated seconds the rep's work spans
    makespan_s: float
    #: simulated latency of each completed op
    latencies_s: np.ndarray
    #: every Runtime session the rep ran
    runtimes: list
    #: offered requests refused by admission or brown-out
    shed: int = 0
    #: requests abandoned after exhausting retries
    failed: int = 0
    #: serving request records (empty for task workloads)
    requests: list = field(default_factory=list)
    #: the rep's outputs and objects its verifier reads
    state: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return (self.t_end_ns - self.t0_ns) / 1e9

    @property
    def setup_s(self) -> float:
        return (self.setup_end_ns - self.t0_ns) / 1e9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable
    rep: Callable
    verify: Callable
    digest: Callable


def session_digest(r: Rep) -> str:
    h = hashlib.sha256()
    for rt in r.runtimes:
        h.update(canonical_chrome_json(rt.trace, rt.machine).encode())
    return h.hexdigest()


def fingerprint(r: Rep) -> str:
    """Cheap per-rep digest of every simulated time and choice.

    Hashes the task, transfer and request columns that do not hold
    process-global ids, so two reps that simulated the same schedule
    agree.  The canonical digest costs seconds on large traces; it is
    taken once per run, on the last rep.
    """
    h = hashlib.sha256()
    for rt in r.runtimes:
        trace = rt.trace
        for f in ("submit_time", "ready_time", "start_time", "end_time"):
            h.update(trace.columns(f).tobytes())
        h.update(repr(list(trace.columns("variant"))).encode())
        h.update(repr(list(trace.columns("worker_ids"))).encode())
        for f in ("start_time", "end_time"):
            h.update(trace.columns(f, "transfers").tobytes())
        h.update(repr(list(trace.columns("dst_node", "transfers"))).encode())
    for req in r.requests:
        h.update(repr((req.tenant, req.req_id, req.completed, req.end_time)).encode())
    return h.hexdigest()


def _check_sessions(r: Rep) -> None:
    for rt in r.runtimes:
        assert_trace_legal(rt.trace, rt.machine)


def _task_latencies(runtimes) -> np.ndarray:
    parts = [
        np.asarray(rt.trace.columns("end_time")) - np.asarray(rt.trace.columns("submit_time"))
        for rt in runtimes
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def _n_tasks(runtimes) -> int:
    return sum(rt.trace.n_tasks for rt in runtimes)


def _mismatch(got, ref, app: str) -> str | None:
    """Why ``got`` differs from the reference, or None within tolerance."""
    got = np.asarray(got)
    if got.shape != ref.shape:
        return f"{app}: shape {got.shape} != reference {ref.shape}"
    rtol, atol = differential.TOLERANCES.get(app, (1e-5, 1e-6))
    if not np.allclose(got, ref, rtol=rtol, atol=atol):
        diff = float(np.max(np.abs(got.astype(np.float64) - ref.astype(np.float64))))
        return f"{app}: max |diff| {diff:.3e} over rtol={rtol} atol={atol}"
    return None


def _all_completed(r: Rep) -> list[str]:
    if r.completed != r.ops:
        return [f"{r.completed} tasks completed of {r.ops} submitted"]
    return []


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(int(round(n * scale)), floor)


# ---------------------------------------------------------------------------
# composed applications: ode, ode_lookahead, apps_short
# ---------------------------------------------------------------------------


class _SessionCapture:
    """Stands in for a composed application's ``peppher`` module.

    Forwards everything to the generated module, keeps the runtime each
    ``PEPPHER_INITIALIZE`` creates (the mains discard it), and stamps
    the first lookup of a component entry-wrapper: the end of set-up.
    """

    def __init__(self, app) -> None:
        self._pep = app.peppher
        self.runtimes: list = []
        self.first_call_ns = 0

    @property
    def peppher(self):
        return self

    def PEPPHER_INITIALIZE(self, **options):
        rt = self._pep.PEPPHER_INITIALIZE(**options)
        self.runtimes.append(rt)
        return rt

    def __getattr__(self, name):
        value = getattr(self._pep, name)
        if not self.first_call_ns and name in self._pep.CODELETS:
            self.first_call_ns = now_ns()
        return value


def _compose(app: str):
    return mains.compose_app(app, out_dir=WORK_DIR / app, scheduler="dmda")


def _ode_workload(name: str, why: str, steps: int, scheduler: str, options: dict | None):
    def prepare(seed: int, scale: float) -> dict:
        n_steps = _scaled(steps, scale)
        ref = DIRECT_MODULES["odesolver"].main(n=ODE_N, steps=n_steps, seed=seed)[0]
        return {"seed": seed, "steps": n_steps, "app": _compose("odesolver"), "ref": ref}

    def rep(inp: dict) -> Rep:
        t0 = now_ns()
        cap = _SessionCapture(inp["app"])
        kwargs = {"scheduler_options": dict(options)} if options else {}
        output, makespan, calls = mains.odesolver_main(
            app=cap,
            n=ODE_N,
            steps=inp["steps"],
            seed=inp["seed"],
            scheduler=scheduler,
            noise_sigma=NOISE,
            check=False,
            **kwargs,
        )
        t_end = now_ns()
        return Rep(
            t0_ns=t0,
            setup_end_ns=cap.first_call_ns,
            t_end_ns=t_end,
            ops=calls,
            completed=_n_tasks(cap.runtimes),
            makespan_s=makespan,
            latencies_s=_task_latencies(cap.runtimes),
            runtimes=cap.runtimes,
            state={"output": output},
        )

    def verify(inp: dict, r: Rep, full: bool) -> list[str]:
        if full:
            _check_sessions(r)
        bad = _mismatch(r.state["output"], inp["ref"], "odesolver")
        return ([bad] if bad else []) + _all_completed(r)

    return Workload(name, why, prepare, rep, verify, session_digest)


def _apps_prepare(seed: int, scale: float) -> dict:
    refs = {app: differential.reference_result(app, seed=seed) for app in mains.TOOL_MAINS}
    return {"seed": seed, "rounds": _scaled(APPS_ROUNDS, scale), "refs": refs}


def _apps_rep(inp: dict) -> Rep:
    captures, outputs = [], []
    setup_ns = 0
    t0 = now_ns()
    for _ in range(inp["rounds"]):
        for app, main in mains.TOOL_MAINS.items():
            t_app = now_ns()
            cap = _SessionCapture(_compose(app))
            kwargs = {differential.SIZE_KWARGS[app]: differential.SMALL_SIZES[app]}
            if app == "odesolver":
                kwargs["steps"] = 6
            out = main(
                app=cap,
                scheduler="dmda",
                seed=inp["seed"],
                noise_sigma=NOISE,
                check=False,
                **kwargs,
            )
            setup_ns += cap.first_call_ns - t_app
            captures.append(cap)
            outputs.append((app, differential._payload(out)))
    t_end = now_ns()
    runtimes = [rt for cap in captures for rt in cap.runtimes]
    return Rep(
        t0_ns=t0,
        setup_end_ns=t0 + setup_ns,
        t_end_ns=t_end,
        ops=sum(rt.trace.n_submitted for rt in runtimes),
        completed=_n_tasks(runtimes),
        # simulated time of one round: the ten programs run back to back
        makespan_s=sum(rt.trace.makespan for rt in runtimes) / inp["rounds"],
        latencies_s=_task_latencies(runtimes),
        runtimes=runtimes,
        state={"outputs": outputs},
    )


def _apps_verify(inp: dict, r: Rep, full: bool) -> list[str]:
    if full:
        _check_sessions(r)
    errors = [
        bad
        for app, got in r.state["outputs"]
        if (bad := _mismatch(got, inp["refs"][app], app)) is not None
    ]
    return errors + _all_completed(r)


# ---------------------------------------------------------------------------
# synthetic DAG stream: dag_eager, dag_dmda
# ---------------------------------------------------------------------------


def dag_stream(seed: int, n_tasks: int) -> dict:
    """A seeded task stream over shared handles (input generation).

    256 handles of 256 B to 64 KiB (log-uniform); each task touches 1-3
    distinct handles with modes r/rw/w at 60/30/10 percent.
    """
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(math.log(256), math.log(65536), DAG_HANDLES))
    arrays = [np.zeros(int(s) // 4, dtype=np.float32) for s in sizes]
    n_ops = rng.integers(1, 4, n_tasks)
    modes = rng.choice(len(DAG_MODES), size=(n_tasks, 3), p=DAG_MODE_P)
    tasks = []
    for i in range(n_tasks):
        picks = rng.choice(DAG_HANDLES, size=int(n_ops[i]), replace=False)
        tasks.append(tuple((int(h), DAG_MODES[modes[i, j]]) for j, h in enumerate(picks)))
    return {"arrays": arrays, "tasks": tasks}


def _dag_codelet() -> Codelet:
    def noop(ctx, *args):
        return None

    # compute-bound (a 64 KiB copy takes ~10 us): with transfer-bound
    # costs the eager/dmda race for the GPU makes the simulated metrics
    # swing 6-20% between seeds; at these costs they move 1-4%
    return Codelet(
        "dag",
        [
            ImplVariant("dag_cpu", Arch.CPU, noop, lambda ctx, dev: 2e-5),
            ImplVariant("dag_cuda", Arch.CUDA, noop, lambda ctx, dev: 4e-6),
        ],
    )


def _dag_workload(name: str, why: str, n_tasks: int, scheduler: str, need_transfers: bool):
    def prepare(seed: int, scale: float) -> dict:
        # dag_dmda takes the head of the same stream dag_eager runs
        stream = dag_stream(seed, _scaled(DAG_TASKS, scale))
        stream["tasks"] = stream["tasks"][: _scaled(n_tasks, scale)]
        stream["seed"] = seed
        return stream

    def rep(inp: dict) -> Rep:
        t0 = now_ns()
        rt = Runtime(
            platform_c2050(),
            scheduler=scheduler,
            seed=inp["seed"],
            noise_sigma=0.0,
            submit_overhead_s=1e-7,
            run_kernels=False,
            check=False,
        )
        codelet = _dag_codelet()
        handles = [rt.register(a, f"h{i}") for i, a in enumerate(inp["arrays"])]
        t_setup = now_ns()
        submit = rt.submit
        for ops in inp["tasks"]:
            submit(codelet, [(handles[h], m) for h, m in ops])
        makespan = rt.shutdown()
        t_end = now_ns()
        return Rep(
            t0_ns=t0,
            setup_end_ns=t_setup,
            t_end_ns=t_end,
            ops=len(inp["tasks"]),
            completed=rt.trace.n_tasks,
            makespan_s=makespan,
            latencies_s=_task_latencies([rt]),
            runtimes=[rt],
        )

    def verify(inp: dict, r: Rep, full: bool) -> list[str]:
        if full:
            _check_sessions(r)
        errors = _all_completed(r)
        if need_transfers and r.runtimes[0].trace.n_transfers == 0:
            errors.append("no data transfers: the stream does not exercise MSI")
        return errors

    return Workload(name, why, prepare, rep, verify, session_digest)


# ---------------------------------------------------------------------------
# serving and the cluster
# ---------------------------------------------------------------------------


def _conservation(r: Rep) -> list[str]:
    errors = []
    if r.completed + r.shed + r.failed != r.ops:
        errors.append(
            f"{r.completed} completed + {r.shed} shed + {r.failed} failed "
            f"!= {r.ops} accounted"
        )
    if r.ops != r.state["offered"]:
        errors.append(f"{r.ops} requests accounted of {r.state['offered']} offered")
    return errors


def _serve_prepare(seed: int, scale: float) -> dict:
    tenants = serving_exp.tenant_mix(
        SERVE_TENANTS, SERVE_RATE_HZ, _scaled(SERVE_REQUESTS, scale, 40), seed=seed
    )
    return {"seed": seed, "tenants": tenants}


def _serve_rep(inp: dict) -> Rep:
    tenants = inp["tenants"]
    t0 = now_ns()
    machine = platform_c2050()
    # the warm-up run a real server does before taking traffic
    perf = serving_exp.calibrate_perfmodel(machine, tenants)
    server = CompositionServer(
        machine,
        tenants=tenants,
        scheduler="fair",
        admission=AdmissionPolicy(max_queue_per_tenant=serving_exp.TENANT_QUOTA),
        batching=serving_exp.BATCH,
        max_inflight=serving_exp.MAX_INFLIGHT,
        perfmodel=perf,
        seed=inp["seed"],
        check=False,
    )
    t_setup = now_ns()
    server.run()
    server.shutdown()
    t_end = now_ns()
    report = slo_report(server.trace)
    requests = list(server.trace.requests)
    return Rep(
        t0_ns=t0,
        setup_end_ns=t_setup,
        t_end_ns=t_end,
        ops=report.total_offered,
        completed=report.total_completed,
        makespan_s=report.window_s,
        latencies_s=np.array([q.latency for q in requests if q.completed]),
        runtimes=[server.runtime],
        shed=report.total_shed,
        failed=server.trace.n_failed_requests,
        requests=requests,
        state={"offered": sum(t.n_requests for t in tenants)},
    )


def _serve_verify(inp: dict, r: Rep, full: bool) -> list[str]:
    if full:
        _check_sessions(r)
    return _conservation(r)


def _cluster_prepare(seed: int, scale: float) -> dict:
    # at least a 20 ms partition: one that heals within the ~3 ms failure
    # detection leaves a blackholed request unresolved, and the run never ends
    n = _scaled(CLUSTER_REQUESTS, scale, 1000)
    tenants = cluster_exp.chaos_tenant_mix(n, CLUSTER_RATE_HZ, seed=seed)
    # the chaos study's plan (a straggler and a partition on the
    # best-effort primaries) with its crash of the protected primary
    # turned into a partition over the same window: a crashed node's
    # engine still starts the tasks queued at the crash instant, which
    # check_cluster rejects (cluster.dead-node-execution) on ~40% of seeds
    at = 0.5 * n / CLUSTER_RATE_HZ
    window = 0.25 * n / CLUSTER_RATE_HZ
    plan = cluster_exp.targeted_chaos(CLUSTER_NODES, tenants, at=at, partition_for=window)
    (victim,) = plan.crash_at
    chaos = NodeFaultModel(
        slow_at=plan.slow_at,
        partition_at={**plan.partition_at, victim: (at, at + window)},
    )
    return {"seed": seed, "tenants": tenants, "chaos": chaos}


def _cluster_rep(inp: dict) -> Rep:
    tenants = inp["tenants"]
    t0 = now_ns()
    cluster = cluster_exp.build_cluster(
        CLUSTER_NODES, tenants, inp["seed"], inp["chaos"], False
    )
    t_setup = now_ns()
    trace = cluster.run()
    cluster.shutdown()
    t_end = now_ns()
    done = [q for q in trace.requests if q.completed]
    return Rep(
        t0_ns=t0,
        setup_end_ns=t_setup,
        t_end_ns=t_end,
        ops=len(trace.requests),
        completed=len(done),
        makespan_s=cluster_slo_report(trace).window_s,
        latencies_s=np.array([q.latency for q in done]),
        runtimes=[node.runtime for node in cluster.nodes.values()],
        shed=trace.n_shed,
        failed=trace.n_failed,
        requests=[q.as_request_record() for q in trace.requests],
        state={"cluster": cluster, "offered": sum(t.n_requests for t in tenants)},
    )


def _cluster_verify(inp: dict, r: Rep, full: bool) -> list[str]:
    errors = _conservation(r)
    if full:
        errors += [f"cluster invariant: {v}" for v in check_cluster(r.state["cluster"])]
    return errors


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _ode_workload(
            "ode",
            "the paper's RK ODE solver: ~10.6k stub invocations under dmda, "
            "per-call cost of every layer a composed call passes",
            ODE_STEPS,
            "dmda",
            None,
        ),
        _ode_workload(
            "ode_lookahead",
            "same program under the lookahead planner: the beam DP dominates, "
            "stub and runtime work per call match ode",
            LOOKAHEAD_STEPS,
            "lookahead",
            {"window_size": LOOKAHEAD_WINDOW},
        ),
        _dag_workload(
            "dag_eager",
            "seeded 30k-task DAG straight into Runtime.submit under eager: "
            "engine core, dependencies, MSI transfers, trace append",
            DAG_TASKS,
            "eager",
            need_transfers=True,
        ),
        _dag_workload(
            "dag_dmda",
            "first 5k tasks of the same DAG under dmda: perfmodel and "
            "placement cost on many footprints",
            DAG_DMDA_TASKS,
            "dmda",
            need_transfers=False,
        ),
        Workload(
            "serve_overload",
            "4 open-loop Poisson tenants at ~1.3x capacity, fair policy: "
            "admission, coalescer and WFQ on every request, shedding live; "
            "glibc mmap threshold pinned",
            _serve_prepare,
            _serve_rep,
            _serve_verify,
            session_digest,
        ),
        Workload(
            "cluster_chaos",
            "8-node cluster with two partitions and a straggler: routing, "
            "failure detection, failover, hedging, duplicates, brown-out",
            _cluster_prepare,
            _cluster_rep,
            _cluster_verify,
            lambda r: r.state["cluster"].trace.digest(),
        ),
        Workload(
            "apps_short",
            "the ten Table-I apps at small sizes, composed fresh each time: "
            "set-up dominated, catches work moved into set-up",
            _apps_prepare,
            _apps_rep,
            _apps_verify,
            session_digest,
        ),
    )
}
