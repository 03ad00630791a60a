"""The repro.Session facade: machine resolution, store wiring, lifecycle."""

import numpy as np
import pytest

import repro
from repro import Session
from repro.errors import PeppherError
from repro.hw.description import Machine
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.trace_export import canonical_chrome_json
from repro.tuning import PerfModelStore

from tests.conftest import make_axpy_codelet


def _run_axpy(session, n=4096, n_tasks=4):
    cl = make_axpy_codelet()
    y = session.register(np.zeros(n, dtype=np.float32), "y")
    x = session.register(np.ones(n, dtype=np.float32), "x")
    for _ in range(n_tasks):
        session.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": n}, scalar_args=(1.0,))
    session.wait_for_all()
    return y


def test_session_is_reexported_from_package_root():
    assert repro.Session is Session
    assert repro.PerfModelStore is PerfModelStore


def test_session_from_preset_name():
    with Session("c2050", run_kernels=True, noise_sigma=0.0) as s:
        y = _run_axpy(s, n_tasks=2)
        assert s.now > 0.0
        assert s.trace.n_tasks == 2
        assert y.array[0] == 2.0
    assert s.machine.name == platform_c2050().name


def test_session_machine_options_forwarded():
    with Session("c2050", machine_options={"n_cpu_cores": 7}) as s:
        assert len(s.machine.cpu_units) == 6  # n-1 workers + 1 GPU driver


def test_session_accepts_machine_instance_and_factory():
    machine = platform_c2050()
    with Session(machine) as s:
        assert s.machine is machine
    with Session(lambda: platform_c2050()) as s:
        assert isinstance(s.machine, Machine)


def test_session_rejects_options_with_machine_instance():
    with pytest.raises(PeppherError):
        Session(platform_c2050(), machine_options={"n_cpu_cores": 5})
    with pytest.raises(PeppherError):
        Session(42)


def test_session_restart_keeps_learned_model_without_store():
    s = Session("c2050", scheduler="dmda", run_kernels=False)
    _run_axpy(s)
    fp_samples = sum(
        st.n for st in s.perfmodel.history._table.values()
    )
    assert fp_samples > 0
    s.restart()
    assert s.now == 0.0  # fresh virtual clock...
    carried = sum(st.n for st in s.perfmodel.history._table.values())
    assert carried == fp_samples  # ...same learned model
    s.shutdown()


def test_session_store_roundtrip_warm_starts_new_session(tmp_path):
    with Session("c2050", store=tmp_path, run_kernels=False) as s:
        _run_axpy(s)
    # shutdown persisted the learned model; a brand-new session warms up
    warm = Session("c2050", store=PerfModelStore(tmp_path), run_kernels=False)
    assert warm.perfmodel.codelets() == {"axpy"}
    assert "axpy" in warm.store.load(warm.machine).codelets()
    warm.shutdown()


def test_session_scheduler_options_and_trace_export(tmp_path):
    s = Session(
        "c2050",
        scheduler="dmda",
        scheduler_options={"calibration_samples": 3},
        run_kernels=False,
        trace_dir=tmp_path,
    )
    assert s.scheduler.calibration_samples == 3
    _run_axpy(s, n_tasks=2)
    out = s.save_trace("run.json")
    assert out == tmp_path / "run.json" and out.exists()
    assert "axpy" in s.gantt() or s.gantt()  # renders something
    s.shutdown()


def test_session_partitioning_delegates():
    with Session("c2050", run_kernels=False, noise_sigma=0.0) as s:
        h = s.register(np.zeros(64, dtype=np.float32), "h")
        children = s.partition_equal(h, 4)
        assert len(children) == 4
        s.unpartition(h)
        s.acquire(h, "r")


def test_session_metrics_suite_lifecycle():
    with Session("c2050", metrics=True, noise_sigma=0.0) as s:
        assert s.metrics is not None
        _run_axpy(s, n_tasks=3)
        snap = s.metrics.snapshot()
        submitted = snap["repro_tasks_submitted_total"]["series"]
        assert sum(row["value"] for row in submitted) == 3
        # counters survive a restart (fresh engine, same suite)
        s.restart()
        _run_axpy(s, n_tasks=2)
        snap = s.metrics.snapshot()
        submitted = snap["repro_tasks_submitted_total"]["series"]
        assert sum(row["value"] for row in submitted) == 5
    text = s.metrics.to_prometheus()
    assert "repro_tasks_completed_total" in text


def test_session_metrics_disabled_by_default():
    with Session("c2050") as s:
        assert s.metrics is None
        assert s.engine.events.n_subscribers() == 0


def test_session_is_a_runtime():
    with Session("c2050", run_kernels=False) as s:
        assert isinstance(s, Runtime)


def test_session_and_runtime_runs_give_the_same_trace():
    options = dict(scheduler="dmda", seed=3, run_kernels=False)
    with Session(platform_c2050, **options) as s:
        _run_axpy(s, n_tasks=6)
    with Runtime(platform_c2050(), **options) as rt:
        _run_axpy(rt, n_tasks=6)
    assert canonical_chrome_json(s.trace, s.machine) == canonical_chrome_json(
        rt.trace, rt.machine
    )


def test_named_backend_survives_restart_and_closes_once(monkeypatch):
    s = Session("c2050", exec_backend="thread", noise_sigma=0.0)
    backend = s.exec_backend
    closes = []
    close = backend.close
    monkeypatch.setattr(backend, "close", lambda: closes.append(1) or close())
    _run_axpy(s, n_tasks=2)
    s.restart()
    assert s.exec_backend is backend and s.engine.exec_backend is backend
    assert closes == []
    y = _run_axpy(s, n_tasks=2)
    assert y.array[0] == 2.0  # kernels still run on the kept pool
    s.shutdown()
    assert closes == [1]


def test_restart_with_store_warm_loads_the_merged_model(tmp_path):
    s = Session("c2050", store=tmp_path, run_kernels=False)
    assert s.perfmodel.codelets() == set()
    _run_axpy(s)
    learned = s.perfmodel
    s.restart()
    # the close merged the learned model; the re-open loaded it back
    assert s.perfmodel is not learned
    assert s.perfmodel.codelets() == {"axpy"}
    assert "axpy" in s.store.load(s.machine).codelets()
    s.shutdown()


def test_runtime_metrics_attaches_a_suite():
    with Runtime(platform_c2050(), metrics=True, run_kernels=False) as rt:
        assert rt.metrics is not None and rt.metrics.engine is rt.engine
        _run_axpy(rt, n_tasks=2)
        submitted = rt.metrics.snapshot()["repro_tasks_submitted_total"]["series"]
        assert sum(row["value"] for row in submitted) == 2
    with Runtime(platform_c2050()) as rt:
        assert rt.metrics is None
