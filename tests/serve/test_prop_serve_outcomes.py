"""Property-based serving under injected kernel faults.

Hypothesis draws the placement policy (dmda, fair, or lookahead with a
window of 1-4 tasks), the coalescing cap (1-8), the kernel fault rate
(0-0.5) and the recovery budget (0-2 retries).  A request's outcome is
read from its own task, so every draw must give:

- ``check_trace`` clean, in particular ``conservation.request-task``: a
  failed request's task left no row, a completed one's ran as recorded;
- balanced accounting: done + shed + failed = offered, every admission
  slot released, and the task rows exactly the completed requests';
- the same ``canonical_chrome_json`` from two runs of the same draw.

``REPRO_SERVE_PROP_EXAMPLES`` sets the number of draws (default 20,
the tier-1 bound); CI's serving entry runs a deeper pass.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.invariants import check_trace
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime.engine import RecoveryPolicy
from repro.runtime.trace_export import canonical_chrome_json
from repro.serve import BatchPolicy, CompositionServer, TenantSpec

MAX_EXAMPLES = int(os.environ.get("REPRO_SERVE_PROP_EXAMPLES", "20"))

TENANTS = [
    TenantSpec("a", workload="sgemm", size=64, rate_hz=20000.0,
               n_requests=30, seed=1),
    TenantSpec("b", workload="bfs", size=200, weight=2.0, rate_hz=8000.0,
               n_requests=12, seed=2),
]


@st.composite
def serving_plans(draw):
    scheduler = draw(st.sampled_from(["dmda", "fair", "lookahead"]))
    options = (
        {"window_size": draw(st.integers(1, 4))}
        if scheduler == "lookahead"
        else {}
    )
    return {
        "scheduler": scheduler,
        "options": options,
        "max_batch": draw(st.integers(1, 8)),
        "fault_rate": draw(st.floats(0.0, 0.5)),
        "max_retries": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 3)),
    }


def _run(plan) -> CompositionServer:
    server = CompositionServer(
        platform_c2050(),
        TENANTS,
        scheduler=plan["scheduler"],
        scheduler_options=plan["options"],
        batching=BatchPolicy(max_batch=plan["max_batch"]),
        faults=FaultModel(kernel_fault_rate=plan["fault_rate"],
                          seed=plan["seed"]),
        recovery=RecoveryPolicy(max_retries=plan["max_retries"]),
        check=False,
    )
    server.run()
    server.shutdown()
    return server


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(serving_plans())
def test_served_outcomes_follow_their_tasks(plan):
    server = _run(plan)
    trace, machine = server.trace, server.runtime.machine
    assert check_trace(trace, machine) == []
    records = trace.requests
    done = sum(1 for r in records if r.completed)
    shed = sum(1 for r in records if r.shed)
    failed = sum(1 for r in records if r.failed)
    assert len(records) == done + shed + failed == 42
    # the only tasks are the requests': a row is a completed request's
    assert {t.task_id for t in trace.tasks} == {
        r.task_id for r in records if r.completed
    }
    assert server.admission.n_admitted == done + failed
    assert server.admission.queue_depth() == 0
    assert canonical_chrome_json(
        _run(plan).trace, machine
    ) == canonical_chrome_json(trace, machine)
