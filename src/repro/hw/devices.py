"""Analytical device models for the simulated heterogeneous machine.

The paper evaluates on two platforms, both with Intel Xeon E5520 CPUs, one
with an NVIDIA Tesla C2050 (Fermi, with L1/L2 caches) and one with a Tesla
C1060 (GT200, no general-purpose cache).  We model each execution unit with
a small set of published headline figures (peak single-precision
throughput, memory bandwidth, kernel launch overhead) plus *efficiency
factors* that capture how well regular vs. irregular kernels exploit the
unit.  Implementation-variant cost models (see :mod:`repro.apps`) combine
these with per-call flop and byte counts using a roofline-style estimate::

    time = launch_overhead + max(flops / effective_flops,
                                 bytes / effective_bandwidth)

where the effective rates are the peak rates scaled by the relevant
efficiency factor.  The absolute values do not need to match the authors'
testbed; what matters for reproducing the paper's figures is the *relative*
cost structure (GPUs win big regular data-parallel problems, CPUs win small
or latency-bound ones, the C1060 suffers on irregular access, and PCIe
transfers are expensive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.model import DeviceModel


class DeviceKind(Enum):
    """Execution unit category."""

    CPU = "cpu"
    GPU = "gpu"


class AccessPattern(Enum):
    """Memory access regularity of a kernel, used to pick efficiency."""

    REGULAR = "regular"  # streaming / coalesced (sgemm, stencils, axpy)
    IRREGULAR = "irregular"  # indexed gather/scatter (spmv, bfs)
    BRANCHY = "branchy"  # divergent control flow (particle filter resample)


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one execution unit.

    Attributes
    ----------
    name:
        Human-readable device name (e.g. ``"Tesla C2050"``).
    kind:
        CPU or GPU.
    peak_gflops:
        Peak single-precision throughput in GFLOP/s for this unit as a
        whole (for a CPU unit this is *one core*).
    mem_bandwidth_gbs:
        Sustainable local memory bandwidth in GB/s.
    launch_overhead_s:
        Fixed cost of starting one kernel/task on the unit, in seconds.
        GPU kernel launches cost several microseconds; CPU function calls
        are effectively free but we charge a small constant for the
        runtime's task dispatch.
    regular_efficiency / irregular_efficiency / branchy_efficiency:
        Fraction of peak achieved for each access-pattern class.
    has_cache:
        Whether the device has a general-purpose cache hierarchy (the
        C2050 does, the C1060 does not) — used by cost models to decide
        how much locality irregular kernels can recover.
    cores:
        Number of physical cores represented by this unit (informational
        for CPUs used via OpenMP-style variants).
    busy_watts:
        Power draw while executing a task, in watts — the basis of the
        energy accounting behind the ``min_energy`` optimization goal
        that PEPPHER main descriptors may declare.
    memory_bytes:
        Capacity of the device's local memory, or ``None`` for
        unlimited (host RAM).  When device memory runs short, the
        runtime evicts least-recently-used copies — re-allocating later
        costs fresh transfers, as the paper notes for Figure 3.
    model:
        Optional :class:`~repro.hw.model.DeviceModel` governing this
        device's kernel-cost arithmetic.  ``None`` (the default, and
        every pre-existing preset) means the coarse analytical tier,
        computed inline exactly as it always was — attaching an
        explicit :class:`~repro.hw.model.CoarseDeviceModel` is
        numerically identical.  A
        :class:`~repro.hw.model.DetailedDeviceModel` switches this
        device to the PPT-GPU-grade tier (SM occupancy, L1/L2 hit-rate
        knobs, instruction-class latencies); see ``docs/DEVICES.md``.
    """

    name: str
    kind: DeviceKind
    peak_gflops: float
    mem_bandwidth_gbs: float
    launch_overhead_s: float
    regular_efficiency: float = 0.75
    irregular_efficiency: float = 0.25
    branchy_efficiency: float = 0.35
    has_cache: bool = True
    cores: int = 1
    busy_watts: float = 50.0
    memory_bytes: int | None = None
    model: "DeviceModel | None" = None

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0 or self.mem_bandwidth_gbs <= 0:
            raise ValueError(f"device {self.name}: rates must be positive")
        if self.launch_overhead_s < 0:
            raise ValueError(f"device {self.name}: negative launch overhead")
        if self.busy_watts <= 0:
            raise ValueError(f"device {self.name}: busy_watts must be positive")
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise ValueError(f"device {self.name}: memory_bytes must be positive")
        for eff in (
            self.regular_efficiency,
            self.irregular_efficiency,
            self.branchy_efficiency,
        ):
            if not 0.0 < eff <= 1.0:
                raise ValueError(
                    f"device {self.name}: efficiency {eff} outside (0, 1]"
                )

    def efficiency(self, pattern: AccessPattern) -> float:
        """Fraction of peak achieved for the given access pattern."""
        if pattern is AccessPattern.REGULAR:
            return self.regular_efficiency
        if pattern is AccessPattern.IRREGULAR:
            return self.irregular_efficiency
        return self.branchy_efficiency

    def effective_gflops(self, pattern: AccessPattern) -> float:
        """Achievable GFLOP/s for a kernel with the given access pattern."""
        return self.peak_gflops * self.efficiency(pattern)

    def effective_bandwidth_gbs(self, pattern: AccessPattern) -> float:
        """Achievable GB/s for a kernel with the given access pattern."""
        return self.mem_bandwidth_gbs * self.efficiency(pattern)

    @property
    def fidelity(self) -> str:
        """Cost-model tier of this device (``"coarse"``/``"detailed"``)."""
        return "coarse" if self.model is None else self.model.fidelity

    def roofline_time(
        self,
        flops: float,
        bytes_moved: float,
        pattern: AccessPattern = AccessPattern.REGULAR,
        profile=None,
    ) -> float:
        """Modeled execution-time estimate in seconds.

        Dispatches to the attached :class:`~repro.hw.model.DeviceModel`
        when its tier is not coarse; otherwise (no model, or an explicit
        coarse one) the roofline: ``max`` of the
        compute-bound and memory-bound times, plus the fixed launch
        overhead.  Either ``flops`` or ``bytes_moved`` may be zero.
        ``profile`` optionally names the kernel's launch shape and
        instruction mix (:class:`~repro.hw.model.KernelProfile`); only
        the detailed tier consumes it.
        """
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops and bytes_moved must be non-negative")
        model = self.model
        if model is not None and model.fidelity != "coarse":
            return model.kernel_time(self, flops, bytes_moved, pattern, profile)
        # the coarse tier, model-less or an explicit CoarseDeviceModel:
        # the one place the roofline is computed
        t_compute = flops / (self.effective_gflops(pattern) * 1e9)
        t_memory = bytes_moved / (self.effective_bandwidth_gbs(pattern) * 1e9)
        return self.launch_overhead_s + max(t_compute, t_memory)


# ---------------------------------------------------------------------------
# Catalogue of the devices used in the paper's evaluation.
# ---------------------------------------------------------------------------

def xeon_e5520_core() -> DeviceSpec:
    """One core of the Intel Xeon E5520 (2.27 GHz Nehalem).

    Peak SP per core: 4 (SSE width) x 2 (mul+add) x 2.27 GHz ~= 18 GFLOP/s;
    realistic tuned-code efficiency is folded into the efficiency factors.
    Per-core sustainable bandwidth on Nehalem is roughly 6 GB/s.
    """
    return DeviceSpec(
        name="Xeon E5520 core",
        kind=DeviceKind.CPU,
        peak_gflops=18.0,
        mem_bandwidth_gbs=6.0,
        launch_overhead_s=2e-6,  # runtime task dispatch (paper: < 2 us)
        regular_efficiency=0.55,
        irregular_efficiency=0.30,  # caches help irregular access on CPUs
        branchy_efficiency=0.45,
        has_cache=True,
        cores=1,
        busy_watts=20.0,  # one Nehalem core's share of the 80 W socket
    )


def tesla_c2050() -> DeviceSpec:
    """NVIDIA Tesla C2050 (Fermi): 1.03 TFLOP/s SP, 144 GB/s, L1/L2 caches."""
    return DeviceSpec(
        name="Tesla C2050",
        kind=DeviceKind.GPU,
        peak_gflops=1030.0,
        mem_bandwidth_gbs=144.0,
        launch_overhead_s=7e-6,
        regular_efficiency=0.60,
        irregular_efficiency=0.28,  # caches recover some locality
        branchy_efficiency=0.15,
        has_cache=True,
        cores=448,
        busy_watts=238.0,  # the C2050's TDP
        memory_bytes=3 * 1024**3,  # 3 GB GDDR5
    )


def tesla_c1060() -> DeviceSpec:
    """NVIDIA Tesla C1060 (GT200): 933 GFLOP/s SP, 102 GB/s, no cache."""
    return DeviceSpec(
        name="Tesla C1060",
        kind=DeviceKind.GPU,
        peak_gflops=933.0,
        mem_bandwidth_gbs=102.0,
        launch_overhead_s=10e-6,
        regular_efficiency=0.45,
        irregular_efficiency=0.10,  # uncoalesced access is very costly
        branchy_efficiency=0.08,
        has_cache=False,
        cores=240,
        busy_watts=188.0,  # the C1060's TDP
        memory_bytes=4 * 1024**3,  # 4 GB GDDR3
    )
