"""Figure 6: dynamic scheduling across applications and platforms.

For nine applications (seven Rodinia kernels, the LibSolve ODE solver
and sgemm) the paper compares three executions on two platforms (Xeon +
C2050, Xeon + C1060):

- **OpenMP**: static selection of the OpenMP variant;
- **CUDA**: static selection of the CUDA variant;
- **TGPA** (tool-generated performance-aware code): all variants
  registered, the runtime's performance-aware scheduler (dmda) picks per
  invocation.

Execution time is averaged over several problem sizes and normalised.
The expected shape: TGPA closely follows the best static choice for
every app, sometimes beats it (by picking differently per size), and the
OpenMP/CUDA ranking flips between apps and between the two platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.apps import bfs, cfd, hotspot, lud, nw, particlefilter, pathfinder, sgemm
from repro.apps import odesolver as ode
from repro.composer.glue import lower_component, make_backend_adapter
from repro.experiments.runner import table
from repro.hw.description import Machine
from repro.hw.presets import platform_c1060, platform_c2050
from repro.runtime import Runtime
from repro.runtime.codelet import Codelet
from repro.runtime.perfmodel import PerfModel
from repro.workloads import (
    gemm_inputs,
    hotspot_inputs,
    pathfinder_wall,
    random_graph,
)

#: measurement modes (paper's three bars per app)
MODES = ("openmp", "cuda", "tgpa")


@dataclass(frozen=True)
class AppScenario:
    """One Figure-6 application: sizes plus a single-run driver."""

    name: str
    sizes: tuple[int, ...]
    #: run_once(runtime, codelets, size, seed) -> None (submit + drain)
    run_once: Callable
    #: codelet factory (one codelet per component of the app)
    make_codelets: Callable[[], dict[str, Codelet]]


# ---------------------------------------------------------------------------
# per-app drivers (one component invocation per run unless noted)
# ---------------------------------------------------------------------------

def _simple_runner(module, operands_factory, scalars_of, ctx_of):
    def run_once(rt: Runtime, codelets: dict[str, Codelet], size: int, seed: int):
        operands = operands_factory(size, seed)
        handles = [(rt.register(arr, name), mode) for name, arr, mode in operands]
        rt.submit(
            codelets[module.INTERFACE.name],
            handles,
            ctx=ctx_of(size),
            scalar_args=scalars_of(size),
            name=module.INTERFACE.name,
        )
        rt.wait_for_all()

    return run_once


def _make_codelets_for(module) -> Callable[[], dict[str, Codelet]]:
    def make() -> dict[str, Codelet]:
        return {
            module.INTERFACE.name: lower_component(
                module.INTERFACE, module.IMPLEMENTATIONS
            )
        }

    return make


def _bfs_operands(size, seed):
    nodes, edges = random_graph(size, 8, seed=seed)
    costs = np.zeros(size, dtype=np.int32)
    return [("nodes", nodes, "r"), ("edges", edges, "r"), ("costs", costs, "w")]


_bfs_edges_cache: dict = {}


def _bfs_nedges(size, seed=0):
    key = (size, seed)
    if key not in _bfs_edges_cache:
        nodes, edges = random_graph(size, 8, seed=seed)
        _bfs_edges_cache[key] = len(edges)
    return _bfs_edges_cache[key]


BFS = AppScenario(
    name="bfs",
    sizes=(4_000, 40_000, 400_000),
    run_once=_simple_runner(
        bfs,
        _bfs_operands,
        scalars_of=lambda s: (s, _bfs_nedges(s), 0),
        ctx_of=lambda s: {"n_nodes": s, "n_edges": _bfs_nedges(s)},
    ),
    make_codelets=_make_codelets_for(bfs),
)

_CFD_ITERS = 8


def _cfd_operands(size, seed):
    u, nb = cfd.make_grid(size, seed=seed)
    return [("u", u, "rw"), ("nb", nb, "r")]


CFD = AppScenario(
    name="cfd",
    sizes=(2_000, 20_000, 200_000),
    run_once=_simple_runner(
        cfd,
        _cfd_operands,
        scalars_of=lambda s: (s, _CFD_ITERS),
        ctx_of=lambda s: {"ncells": s, "iters": _CFD_ITERS},
    ),
    make_codelets=_make_codelets_for(cfd),
)

_HS_ITERS = 16


def _hotspot_operands(size, seed):
    power, temp = hotspot_inputs(size, size, seed=seed)
    return [("power", power, "r"), ("temp", temp, "rw")]


HOTSPOT = AppScenario(
    name="hotspot",
    sizes=(64, 192, 512),
    run_once=_simple_runner(
        hotspot,
        _hotspot_operands,
        scalars_of=lambda s: (s, s, _HS_ITERS),
        ctx_of=lambda s: {"rows": s, "cols": s, "iters": _HS_ITERS},
    ),
    make_codelets=_make_codelets_for(hotspot),
)

LUD = AppScenario(
    name="lud",
    sizes=(128, 384, 1024),
    run_once=_simple_runner(
        lud,
        lambda s, seed: [("A", lud.make_spd_matrix(s, seed=seed), "rw")],
        scalars_of=lambda s: (s,),
        ctx_of=lambda s: {"n": s},
    ),
    make_codelets=_make_codelets_for(lud),
)


def _nw_operands(size, seed):
    s1, s2 = nw.make_sequences(size, seed=seed)
    score = np.zeros((size + 1) * (size + 1), dtype=np.int32)
    return [("seq1", s1, "r"), ("seq2", s2, "r"), ("score", score, "w")]


NW = AppScenario(
    name="nw",
    sizes=(256, 768, 2048),
    run_once=_simple_runner(
        nw,
        _nw_operands,
        scalars_of=lambda s: (s, 2),
        ctx_of=lambda s: {"n": s, "penalty": 2},
    ),
    make_codelets=_make_codelets_for(nw),
)

_PF_FRAMES, _PF_DIM = 8, 64


def _pf_operands(size, seed):
    frames, _ = particlefilter.make_video(_PF_FRAMES, _PF_DIM, seed=seed)
    track = np.zeros(_PF_FRAMES * 2, dtype=np.float32)
    return [("frames", frames, "r"), ("track", track, "w")]


PARTICLEFILTER = AppScenario(
    name="particlefilter",
    sizes=(2_000, 16_000, 128_000),
    run_once=_simple_runner(
        particlefilter,
        _pf_operands,
        scalars_of=lambda s: (_PF_FRAMES, _PF_DIM, s, 7),
        ctx_of=lambda s: {"n_frames": _PF_FRAMES, "dim": _PF_DIM, "n_particles": s},
    ),
    make_codelets=_make_codelets_for(particlefilter),
)

_PATH_ROWS = 50


def _path_operands(size, seed):
    wall = pathfinder_wall(_PATH_ROWS, size, seed=seed)
    result = np.zeros(size, dtype=np.int32)
    return [("wall", wall, "r"), ("result", result, "w")]


PATHFINDER = AppScenario(
    name="pathfinder",
    sizes=(20_000, 200_000, 2_000_000),
    run_once=_simple_runner(
        pathfinder,
        _path_operands,
        scalars_of=lambda s: (_PATH_ROWS, s),
        ctx_of=lambda s: {"rows": _PATH_ROWS, "cols": s},
    ),
    make_codelets=_make_codelets_for(pathfinder),
)


def _sgemm_operands(size, seed):
    a, b, c = gemm_inputs(size, size, size, seed=seed)
    return [("A", a, "r"), ("B", b, "r"), ("C", c, "rw")]


SGEMM = AppScenario(
    name="sgemm",
    sizes=(128, 384, 1024),
    run_once=_simple_runner(
        sgemm,
        _sgemm_operands,
        scalars_of=lambda s: (s, s, s, 1.0, 0.0),
        ctx_of=lambda s: {"m": s, "n": s, "k": s},
    ),
    make_codelets=_make_codelets_for(sgemm),
)


# libsolve: a whole (shortened) integration per run
_ODE_STEPS = 40


def _ode_run_once(rt: Runtime, codelets: dict[str, Codelet], size: int, seed: int):
    arrays = {
        "y": np.zeros(size, dtype=np.float32),
        "k": np.zeros(size, dtype=np.float32),
        "du": np.zeros(size, dtype=np.float32),
        "err": np.zeros(size, dtype=np.float32),
        "norm": np.zeros(1, dtype=np.float32),
        "sample": np.zeros(min(size, 16), dtype=np.float32),
    }
    handles = {name: rt.register(arr, name) for name, arr in arrays.items()}
    invoke = _ode_invoke_table(rt, codelets, handles)
    ode.solve(invoke, handles, size, steps=_ODE_STEPS)
    rt.wait_for_all()


def _ode_invoke_table(rt, codelets, handles):
    """Submit-functions per component with their C signatures."""
    def entry(name):
        iface = ode.INTERFACES[name]
        operand_names = [p.name for p in iface.operand_params()]
        scalar_names = [p.name for p in iface.scalar_params()]
        order = [p.name for p in iface.params]
        modes = {p.name: p.access for p in iface.params}

        def call(*args):
            by_name = dict(zip(order, args))
            operands = [(by_name[n], modes[n]) for n in operand_names]
            scalars = tuple(by_name[n] for n in scalar_names)
            ctx = {
                n: by_name[n]
                for n in scalar_names
                if isinstance(by_name[n], (int, float))
            }
            rt.submit(codelets[name], operands, ctx=ctx, scalar_args=scalars, name=name)

        return call

    return {name: entry(name) for name in ode.COMPONENT_NAMES}


def _ode_make_codelets() -> dict[str, Codelet]:
    return {
        name: lower_component(ode.INTERFACES[name], ode.IMPLEMENTATIONS[name])
        for name in ode.COMPONENT_NAMES
    }


LIBSOLVE = AppScenario(
    name="libsolve",
    sizes=(16_000, 64_000, 256_000),
    run_once=_ode_run_once,
    make_codelets=_ode_make_codelets,
)

SCENARIOS: dict[str, AppScenario] = {
    s.name: s
    for s in (
        BFS,
        CFD,
        HOTSPOT,
        LIBSOLVE,
        LUD,
        NW,
        PARTICLEFILTER,
        PATHFINDER,
        SGEMM,
    )
}

APP_ORDER = tuple(sorted(SCENARIOS))  # the paper's x-axis is alphabetical


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _restrict(codelets: dict[str, Codelet], arch_value: str) -> dict[str, Codelet]:
    out = {}
    for name, cl in codelets.items():
        keep = [v.name for v in cl.variants if v.arch.value == arch_value]
        out[name] = cl.restricted(keep)
    return out


#: calibration repetitions per size: enough for dmda's exploration to
#: sample every variant (3 variants x calibration_samples=2)
CALIBRATION_REPS = 6


def measure_app(
    scenario: AppScenario,
    machine_factory: Callable[[], Machine],
    mode: str,
    seed: int = 0,
) -> list[float]:
    """Virtual execution time per problem size for one mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    perf = PerfModel()
    if mode == "tgpa":
        # calibration sweep: dmda explores variants and builds history;
        # repeated so every variant accumulates enough samples per size
        for rep in range(CALIBRATION_REPS):
            for size in scenario.sizes:
                rt = Runtime(
                    machine_factory(), scheduler="dmda", seed=seed + 100 + rep,
                    perfmodel=perf, run_kernels=False,
                )
                scenario.run_once(rt, scenario.make_codelets(), size, seed)
                rt.shutdown()
    times: list[float] = []
    for i, size in enumerate(scenario.sizes):
        codelets = scenario.make_codelets()
        if mode == "openmp":
            codelets = _restrict(codelets, "openmp")
            rt = Runtime(machine_factory(), scheduler="eager", seed=seed + i)
        elif mode == "cuda":
            codelets = _restrict(codelets, "cuda")
            rt = Runtime(machine_factory(), scheduler="eager", seed=seed + i)
        else:
            rt = Runtime(
                machine_factory(), scheduler="dmda", seed=seed + i, perfmodel=perf
            )
        scenario.run_once(rt, codelets, size, seed)
        times.append(rt.shutdown())
    return times


@dataclass
class Fig6Result:
    """Per-platform, per-app, per-mode mean execution times (seconds)."""

    platform: str
    #: app -> mode -> mean virtual seconds over the size sweep
    means: dict[str, dict[str, float]] = field(default_factory=dict)

    def normalised(self) -> dict[str, dict[str, float]]:
        """Times normalised to TGPA = 1 per app (the figure's y-axis)."""
        out: dict[str, dict[str, float]] = {}
        for app, modes in self.means.items():
            base = modes["tgpa"]
            out[app] = {m: t / base for m, t in modes.items()}
        return out


def run(
    platform: str = "c2050",
    apps: tuple[str, ...] = APP_ORDER,
    seed: int = 0,
    size_scale: float = 1.0,
) -> Fig6Result:
    """Measure one platform (``"c2050"`` for Fig. 6a, ``"c1060"`` for 6b)."""
    factory = {"c2050": platform_c2050, "c1060": platform_c1060}[platform]
    result = Fig6Result(platform=platform)
    for app in apps:
        scenario = SCENARIOS[app]
        if size_scale != 1.0:
            scenario = AppScenario(
                name=scenario.name,
                sizes=tuple(
                    max(int(s * size_scale), 64) for s in scenario.sizes
                ),
                run_once=scenario.run_once,
                make_codelets=scenario.make_codelets,
            )
        result.means[app] = {
            mode: float(np.mean(measure_app(scenario, factory, mode, seed=seed)))
            for mode in MODES
        }
    return result


def format_result(result: Fig6Result) -> str:
    """The figure's series as a table (normalised to TGPA = 1)."""
    norm = dict(sorted(result.normalised().items()))
    adapt_wins = [
        app for app, row in norm.items() if min(row["openmp"], row["cuda"]) > 1.0
    ]
    return table(
        f"Figure 6 ({result.platform}): normalised mean execution time "
        "(TGPA = 1.0)",
        ("app", "OpenMP", "CUDA", "TGPA", "best static"),
        [
            (app, f"{row['openmp']:.3f}", f"{row['cuda']:.3f}",
             f"{row['tgpa']:.3f}",
             "OpenMP" if row["openmp"] <= row["cuda"] else "CUDA")
            for app, row in norm.items()
        ],
        [
            "TGPA beats both static builds by adapting per problem size: "
            + ", ".join(adapt_wins)
        ] if adapt_wins else (),
    )
