"""Cold imports load only what the caller uses.

Each check runs in a fresh interpreter: in the test process, modules an
earlier test imported would hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: last line of every probe: the modules the interpreter has loaded
PRINT_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return its last output line as JSON."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_apps_import_leaves_scipy_out():
    modules = _fresh(f"import repro.apps.mains\n{PRINT_MODULES}")
    assert "repro.apps.lud" in modules
    assert not _loaded(modules, "scipy")


def test_runtime_import_loads_no_serving_checking_or_composer():
    modules = _fresh(f"import repro.runtime\n{PRINT_MODULES}")
    for package in ("serve", "cluster", "obs", "check", "composer"):
        assert not _loaded(modules, f"repro.{package}"), package


def test_runtime_import_loads_no_pools_logging_or_sockets():
    modules = _fresh(
        "import repro.runtime\n"
        "from repro.exec import make_backend\n"
        "make_backend('simulated')\n"
        f"{PRINT_MODULES}"
    )
    for package in ("multiprocessing", "concurrent", "logging", "socket"):
        assert not _loaded(modules, package), package
    # make_backend loads only the backend it was asked for
    assert "repro.exec.simulated" in modules
    assert "repro.exec.thread" not in modules
    assert "repro.exec.process" not in modules


def test_replay_policy_resolves_on_first_use():
    result = _fresh(
        """
import json, sys
from repro.runtime.schedulers import make_scheduler, policy_names
before = "repro.check.replay" in sys.modules
print(json.dumps({
    "before": before,
    "names": policy_names(),
    "made": type(make_scheduler("replay")).__module__,
}))
"""
    )
    assert not result["before"]
    assert "replay" in result["names"]
    assert result["made"] == "repro.check.replay"


def test_serving_without_async_client_leaves_asyncio_out():
    modules = _fresh(f"from repro.serve import CompositionServer\n{PRINT_MODULES}")
    assert "repro.serve.server" in modules
    assert "repro.serve.aio" not in modules
    assert not _loaded(modules, "asyncio")


def test_bare_import_loads_no_subpackage_and_lud_runs_without_scipy():
    result = _fresh(
        """
import json, sys
sys.modules["scipy"] = None  # any SciPy import now raises ImportError
import repro
bare = sorted(m for m in sys.modules if m.startswith("repro."))
import numpy as np
from repro.apps import lud
from repro.check.differential import run_differential
n = 150  # more than one 64-wide block: the panel solves run
A0 = lud.make_spd_matrix(n, seed=9)
A = A0.copy()
lud.lud_cpu(A, n)
print(json.dumps({
    "bare": bare,
    "close": bool(np.allclose(A, lud.reference(A0, n), rtol=2e-2, atol=2e-2)),
    "differential": [r.ok for r in run_differential(apps=["lud"])],
    "scipy": [m for m, mod in sys.modules.items()
              if m.partition(".")[0] == "scipy" and mod is not None],
}))
"""
    )
    assert result["bare"] == ["repro._lazy", "repro._version"]
    assert result["close"]
    assert result["differential"] and all(result["differential"])
    assert result["scipy"] == []
