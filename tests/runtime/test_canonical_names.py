"""The canonical form renumbers only the names the runtime generated.

Task and handle ids come from process-global counters, so the canonical
trace rewrites the default names that embed them (``codelet#<id>``,
``data<id>``).  A name the caller gave must survive unchanged even when
it happens to look like a default one; otherwise the canonical digest
of one run depends on how many tasks or handles the process made
before it.  Each run below happens in a fresh interpreter, once as the
process's first and once after one earlier object took id 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

#: one task named like a default, reading one handle named like a
#: default; prints the canonical names and the canonical digest
_RUN = """
import hashlib, json, sys
import numpy as np
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime, Task
from repro.runtime.data import DataHandle
from repro.runtime.trace_export import trace_to_dict

codelet = Codelet(
    "req", [ImplVariant("req_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-6)]
)
if sys.argv[1] == "task":
    Task(codelet, [])  # takes task id 0
elif sys.argv[1] == "handle":
    DataHandle(np.zeros(1), 1)  # takes handle id 0
rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
x = rt.register(np.ones(16, dtype=np.float32), NAME)
y = rt.register(np.zeros(16, dtype=np.float32), "y")
rt.submit(codelet, [(y, "w"), (x, "r")], name=TASK)
rt.wait_for_all()
rt.acquire(x, "r")
canon = rt.trace.canonicalized()
doc = trace_to_dict(canon, rt.machine)
print(json.dumps({
    "tasks": [r.name for r in canon.tasks],
    "handles": sorted({r.handle_name for r in canon.transfers}
                      | {r.handle_name for r in canon.accesses}),
    "sha": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
}))
"""


def _canonical(task_name: str, handle_name: str, earlier: str) -> dict:
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    code = _RUN.replace("NAME", repr(handle_name)).replace("TASK", repr(task_name))
    proc = subprocess.run(
        [sys.executable, "-c", code, earlier],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_given_task_name_survives_canonicalization_after_earlier_tasks():
    first = _canonical("req#1", "x", "none")
    later = _canonical("req#1", "x", "task")
    assert first["tasks"] == later["tasks"] == ["req#1"]
    assert first["sha"] == later["sha"]


def test_given_handle_name_survives_canonicalization_after_earlier_handles():
    first = _canonical("t", "data1", "none")
    later = _canonical("t", "data1", "handle")
    assert "data1" in first["handles"]
    assert first["handles"] == later["handles"]
    assert first["sha"] == later["sha"]
