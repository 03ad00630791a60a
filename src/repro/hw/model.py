"""Hierarchical device models: coarse analytical fits vs. PPT-GPU-grade detail.

The original ``repro.hw`` cost models are coarse roofline fits — a peak
rate, a bandwidth and three efficiency scalars per device.  They
reproduce the paper's *relative* cost structure but cannot distinguish
GPU generations that share headline figures, and they have no knobs for
the microarchitectural effects the PPT-GPU line of work (see PAPERS.md)
shows matter: how many thread blocks an SM can actually host, how much
of the traffic the L1/L2 hierarchy absorbs, and how instruction-class
latencies bound issue throughput.

This module makes the fidelity an explicit, swappable layer:

:class:`DeviceModel`
    One fidelity tier.  A :class:`~repro.hw.devices.DeviceSpec`
    optionally carries one; specs without a model (the default, and
    every pre-existing preset) are priced by the coarse roofline in
    :meth:`~repro.hw.devices.DeviceSpec.roofline_time`.

:class:`CoarseDeviceModel`
    The explicit spelling of that coarse tier: launch overhead plus the
    roofline max of compute and memory time under pattern efficiencies.
    ``roofline_time`` prices it with the same arithmetic as a model-less
    spec, so attaching it changes nothing numerically — it exists so
    the tier is a first-class, fingerprintable object rather than an
    absence.

:class:`DetailedDeviceModel`
    The PPT-GPU-grade tier.  Kernel time is assembled from

    - **SM occupancy** — a CUDA-occupancy-calculator style limit over
      threads, blocks, registers and shared memory per SM
      (:meth:`DetailedDeviceModel.occupancy`), which scales how well
      instruction latency is hidden;
    - **a two-level memory hierarchy** — L1/L2 hit-rate knobs blend the
      per-level bandwidths into an effective rate
      (:meth:`MemoryHierarchy.effective_bandwidth_gbs`), with an
      access-pattern coalescing factor on top;
    - **per-instruction-class latency tables** — the kernel's
      instruction mix (from its :class:`KernelProfile`) and the
      device's :class:`LatencyTable` give a mean issue latency, and a
      Little's-law argument turns (active warps, latency) into achieved
      issue rate.

Both tiers answer the same question with the same signature, so the
engine, dmda and the lookahead planner price kernels identically at
either fidelity — what changes is the ground truth their performance
models learn from.  See ``docs/DEVICES.md``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.hw.devices import AccessPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.devices import DeviceSpec

#: instruction classes the latency tables know about; profiles give a
#: mix over these (fractions summing to ~1)
INSTRUCTION_CLASSES = ("fma", "alu", "sfu", "ldst_shared", "ldst_global", "branch")


@dataclass(frozen=True)
class SMConfig:
    """Streaming-multiprocessor limits of one GPU generation.

    The four ``max_*``/``*_per_sm`` limits are exactly the inputs of
    NVIDIA's occupancy calculator; ``cores_per_sm`` and ``clock_ghz``
    set the issue-rate ceiling (one warp-FMA per ``warp_size`` cores
    per cycle).
    """

    n_sms: int
    cores_per_sm: int
    clock_ghz: float
    max_threads_per_sm: int
    max_blocks_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int
    warp_size: int = 32

    def __post_init__(self) -> None:
        for name in (
            "n_sms",
            "cores_per_sm",
            "max_threads_per_sm",
            "max_blocks_per_sm",
            "registers_per_sm",
            "shared_mem_per_sm",
            "warp_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"SMConfig.{name} must be positive")
        if self.clock_ghz <= 0:
            raise ValueError("SMConfig.clock_ghz must be positive")
        if self.max_threads_per_sm % self.warp_size:
            raise ValueError(
                "SMConfig.max_threads_per_sm must be a multiple of warp_size"
            )

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def issue_width(self) -> float:
        """Warp-instructions issued per SM per cycle at full tilt."""
        return self.cores_per_sm / self.warp_size

    def knobs(self) -> dict:
        """JSON-able knob dict (fingerprinted by the tuning store)."""
        return {
            "n_sms": self.n_sms,
            "cores_per_sm": self.cores_per_sm,
            "clock_ghz": self.clock_ghz,
            "max_threads_per_sm": self.max_threads_per_sm,
            "max_blocks_per_sm": self.max_blocks_per_sm,
            "registers_per_sm": self.registers_per_sm,
            "shared_mem_per_sm": self.shared_mem_per_sm,
            "warp_size": self.warp_size,
        }


@dataclass(frozen=True)
class MemoryHierarchy:
    """Two-level cache hierarchy feeding an effective bandwidth.

    ``l1_hit_rate`` is the fraction of accesses served by L1;
    ``l2_hit_rate`` the fraction of L1 *misses* served by L2.  The
    blended cost per byte is the hit-rate-weighted harmonic mix of the
    three level bandwidths, which is monotonically non-increasing in
    both hit rates as long as ``l1 >= l2 >= dram`` bandwidth — enforced
    here so the property holds by construction (cache-less GT200-class
    devices simply set both hit rates to zero).
    """

    l1_hit_rate: float
    l2_hit_rate: float
    l1_bandwidth_gbs: float
    l2_bandwidth_gbs: float
    dram_bandwidth_gbs: float

    def __post_init__(self) -> None:
        for name in ("l1_hit_rate", "l2_hit_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"MemoryHierarchy.{name} {v} outside [0, 1]")
        if self.dram_bandwidth_gbs <= 0:
            raise ValueError("MemoryHierarchy.dram_bandwidth_gbs must be positive")
        if not (
            self.l1_bandwidth_gbs >= self.l2_bandwidth_gbs >= self.dram_bandwidth_gbs
        ):
            raise ValueError(
                "MemoryHierarchy bandwidths must satisfy l1 >= l2 >= dram "
                f"(got {self.l1_bandwidth_gbs}/{self.l2_bandwidth_gbs}/"
                f"{self.dram_bandwidth_gbs})"
            )

    def effective_bandwidth_gbs(self) -> float:
        """Hit-rate-blended achievable bandwidth in GB/s."""
        f_l1 = self.l1_hit_rate
        f_l2 = (1.0 - self.l1_hit_rate) * self.l2_hit_rate
        f_dram = (1.0 - self.l1_hit_rate) * (1.0 - self.l2_hit_rate)
        cost_per_byte = (
            f_l1 / self.l1_bandwidth_gbs
            + f_l2 / self.l2_bandwidth_gbs
            + f_dram / self.dram_bandwidth_gbs
        )
        return 1.0 / cost_per_byte

    def knobs(self) -> dict:
        return {
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "l1_bandwidth_gbs": self.l1_bandwidth_gbs,
            "l2_bandwidth_gbs": self.l2_bandwidth_gbs,
            "dram_bandwidth_gbs": self.dram_bandwidth_gbs,
        }


@dataclass(frozen=True)
class LatencyTable:
    """Issue-to-result latency, in cycles, per instruction class.

    The PPT-GPU observation this encodes: instruction latencies depend
    only on the instruction and the GPU family, so one table per device
    generation suffices.  ``ldst_global`` is the *miss* latency —
    cache hits are already priced by the memory hierarchy's bandwidth
    blend, so the table carries the latency a warp actually stalls on.
    """

    fma: float = 18.0
    alu: float = 18.0
    sfu: float = 30.0
    ldst_shared: float = 30.0
    ldst_global: float = 400.0
    branch: float = 20.0

    def __post_init__(self) -> None:
        for name in INSTRUCTION_CLASSES:
            if getattr(self, name) <= 0:
                raise ValueError(f"LatencyTable.{name} must be positive")

    def mean_latency(self, mix: Mapping[str, float]) -> float:
        """Mix-weighted mean issue latency in cycles."""
        total = 0.0
        weight = 0.0
        for cls, frac in mix.items():
            if cls not in INSTRUCTION_CLASSES:
                raise ValueError(
                    f"unknown instruction class {cls!r}; "
                    f"known: {INSTRUCTION_CLASSES}"
                )
            total += frac * getattr(self, cls)
            weight += frac
        if weight <= 0:
            raise ValueError("instruction mix must have positive total weight")
        return total / weight

    def knobs(self) -> dict:
        return {name: getattr(self, name) for name in INSTRUCTION_CLASSES}


@dataclass(frozen=True)
class KernelProfile:
    """Per-kernel launch shape and instruction mix the detailed tier prices.

    Apps may attach one to an :class:`~repro.runtime.codelet.ImplVariant`
    (``kernel_profile=``); kernels without one are priced with the
    pattern-default profiles below, so the detailed tier works out of
    the box for every existing application.
    """

    threads_per_block: int = 256
    regs_per_thread: int = 32
    shared_mem_per_block: int = 0
    #: fraction of dynamic warp instructions per class (needn't sum to 1;
    #: mean latency is weight-normalised)
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"fma": 0.6, "alu": 0.2, "ldst_global": 0.15, "branch": 0.05}
    )

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0:
            raise ValueError("KernelProfile.threads_per_block must be positive")
        if self.regs_per_thread <= 0:
            raise ValueError("KernelProfile.regs_per_thread must be positive")
        if self.shared_mem_per_block < 0:
            raise ValueError("KernelProfile.shared_mem_per_block must be >= 0")
        for cls, frac in self.mix.items():
            if cls not in INSTRUCTION_CLASSES:
                raise ValueError(f"unknown instruction class {cls!r}")
            if frac < 0:
                raise ValueError(f"negative mix fraction for {cls!r}")
        # freeze the mix so profiles stay hashable value objects
        object.__setattr__(self, "mix", dict(self.mix))

    def __hash__(self) -> int:  # mix is a dict; hash the sorted items
        return hash(
            (
                self.threads_per_block,
                self.regs_per_thread,
                self.shared_mem_per_block,
                tuple(sorted(self.mix.items())),
            )
        )


#: pattern-default kernel profiles: what the detailed tier assumes when a
#: variant declares no profile of its own.  REGULAR kernels are
#: FMA-heavy with coalesced loads; IRREGULAR kernels are load-dominated
#: gather/scatter; BRANCHY kernels spend their issue slots on divergent
#: control flow.
DEFAULT_PROFILES: dict[AccessPattern, KernelProfile] = {
    AccessPattern.REGULAR: KernelProfile(
        threads_per_block=256,
        regs_per_thread=32,
        shared_mem_per_block=8 * 1024,
        mix={"fma": 0.62, "alu": 0.18, "ldst_global": 0.12, "ldst_shared": 0.05, "branch": 0.03},
    ),
    AccessPattern.IRREGULAR: KernelProfile(
        threads_per_block=128,
        regs_per_thread=28,
        shared_mem_per_block=0,
        mix={"fma": 0.18, "alu": 0.27, "ldst_global": 0.45, "branch": 0.10},
    ),
    AccessPattern.BRANCHY: KernelProfile(
        threads_per_block=128,
        regs_per_thread=40,
        shared_mem_per_block=4 * 1024,
        mix={"fma": 0.20, "alu": 0.30, "ldst_global": 0.15, "sfu": 0.05, "branch": 0.30},
    ),
}

#: fraction of a coalesced transaction actually used per pattern: the
#: detailed tier's analogue of the coarse efficiency scalars, applied to
#: the hierarchy's blended bandwidth
COALESCING = {
    AccessPattern.REGULAR: 1.0,
    AccessPattern.IRREGULAR: 0.25,
    AccessPattern.BRANCHY: 0.5,
}

#: warp-divergence throughput factor per pattern (serialised branch paths)
DIVERGENCE = {
    AccessPattern.REGULAR: 1.0,
    AccessPattern.IRREGULAR: 0.85,
    AccessPattern.BRANCHY: 0.55,
}


@dataclass(frozen=True)
class Occupancy:
    """Result of the occupancy calculation for one (device, profile)."""

    active_blocks: int
    active_warps: int
    max_warps: int
    limiter: str  # "threads" | "blocks" | "registers" | "shared_mem"

    @property
    def fraction(self) -> float:
        return self.active_warps / self.max_warps


class DeviceModel(ABC):
    """One fidelity tier of a device's kernel-cost arithmetic.

    Subclasses are value objects: equality and the :meth:`knobs` dict
    must describe the full parameterisation, because the tuning store
    fingerprints them — two machines whose device models differ in any
    knob must not share calibrated performance models.
    """

    #: tier name ("coarse" / "detailed"), part of the store fingerprint
    fidelity: str = "coarse"

    @abstractmethod
    def kernel_time(
        self,
        spec: "DeviceSpec",
        flops: float,
        bytes_moved: float,
        pattern: AccessPattern = AccessPattern.REGULAR,
        profile: KernelProfile | None = None,
    ) -> float:
        """Modeled seconds for one kernel on ``spec`` (incl. launch)."""

    @abstractmethod
    def knobs(self) -> dict:
        """JSON-able parameterisation, fingerprinted by the store."""

    def describe(self) -> dict:
        """Structured view used by ``MachineDescription.describe()``."""
        return {"fidelity": self.fidelity, **self.knobs()}


class CoarseDeviceModel(DeviceModel):
    """The roofline fit as an explicit, fingerprintable tier.

    Priced by :meth:`DeviceSpec.roofline_time` exactly as a spec with no
    model attached, so same-seed traces stay byte-identical whichever
    spelling a machine uses.
    """

    fidelity = "coarse"

    def kernel_time(
        self,
        spec: "DeviceSpec",
        flops: float,
        bytes_moved: float,
        pattern: AccessPattern = AccessPattern.REGULAR,
        profile: KernelProfile | None = None,
    ) -> float:
        # DeviceSpec.roofline_time computes the coarse roofline itself
        # and never dispatches here; `profile` is accepted and ignored —
        # the coarse tier has no use for launch shapes
        return spec.roofline_time(flops, bytes_moved, pattern)

    def knobs(self) -> dict:
        return {}

    def __eq__(self, other: object) -> bool:
        return type(other) is CoarseDeviceModel

    def __hash__(self) -> int:
        return hash(CoarseDeviceModel)


@dataclass(frozen=True)
class DetailedDeviceModel(DeviceModel):
    """PPT-GPU-grade kernel pricing from SM, memory and latency knobs.

    The estimate keeps the roofline's ``launch + max(compute, memory)``
    skeleton — that is what makes the two tiers comparable — but both
    legs are microarchitectural:

    compute leg
        The kernel's flops become warp-FMA instructions
        (``warp_size * 2`` flops each); its instruction mix inflates
        that count to total dynamic warp instructions and gives, with
        the latency table, the mean issue latency ``L``.  With ``W``
        active warps per SM (from occupancy), each SM sustains
        ``min(issue_width, W / L)`` instructions per cycle — Little's
        law with the issue ceiling — degraded by the pattern's
        divergence factor.

    memory leg
        Traffic moves at the L1/L2 hit-rate-blended bandwidth times the
        pattern's coalescing factor, scaled by the same latency-hiding
        ratio (a single resident warp cannot saturate DRAM either).
    """

    sm: SMConfig
    memory: MemoryHierarchy
    latency: LatencyTable = field(default_factory=LatencyTable)
    fidelity: str = field(default="detailed", init=False)

    def occupancy(self, profile: KernelProfile) -> Occupancy:
        """Occupancy-calculator limits for one launch shape.

        Raises :class:`ValueError` when the block shape cannot run at
        all (more threads, registers or shared memory per block than an
        SM owns) — schedulers treat that variant as infeasible on this
        device.
        """
        sm = self.sm
        warps_per_block = math.ceil(profile.threads_per_block / sm.warp_size)
        regs_per_block = profile.regs_per_thread * profile.threads_per_block
        limits = {
            "threads": sm.max_threads_per_sm // profile.threads_per_block,
            "blocks": sm.max_blocks_per_sm,
            "registers": sm.registers_per_sm // regs_per_block,
        }
        if profile.shared_mem_per_block:
            limits["shared_mem"] = (
                sm.shared_mem_per_sm // profile.shared_mem_per_block
            )
        limiter = min(limits, key=lambda k: (limits[k], k))
        active_blocks = limits[limiter]
        if active_blocks < 1:
            raise ValueError(
                f"kernel profile cannot launch on this device: 0 blocks fit "
                f"(limited by {limiter}: {profile.threads_per_block} threads, "
                f"{regs_per_block} regs, {profile.shared_mem_per_block} B smem "
                f"per block)"
            )
        active_warps = min(active_blocks * warps_per_block, sm.max_warps_per_sm)
        return Occupancy(
            active_blocks=active_blocks,
            active_warps=active_warps,
            max_warps=sm.max_warps_per_sm,
            limiter=limiter,
        )

    def _hiding(self, occ: Occupancy, mean_latency: float) -> float:
        """Achieved fraction of the issue ceiling (Little's law)."""
        per_cycle = occ.active_warps / mean_latency
        return min(1.0, per_cycle / self.sm.issue_width)

    def kernel_time(
        self,
        spec: "DeviceSpec",
        flops: float,
        bytes_moved: float,
        pattern: AccessPattern = AccessPattern.REGULAR,
        profile: KernelProfile | None = None,
    ) -> float:
        if profile is None:
            profile = DEFAULT_PROFILES[pattern]
        occ = self.occupancy(profile)
        mean_lat = self.latency.mean_latency(profile.mix)
        hiding = self._hiding(occ, mean_lat)
        divergence = DIVERGENCE[pattern]

        # compute leg: flops -> warp instructions -> issue-limited time
        sm = self.sm
        fma_frac = max(profile.mix.get("fma", 0.0), 1e-3)
        warp_fmas = flops / (sm.warp_size * 2.0)
        total_insts = warp_fmas / fma_frac  # inflate by the non-FMA mix
        issue_rate = (
            sm.n_sms * sm.issue_width * hiding * divergence * sm.clock_ghz * 1e9
        )
        t_compute = total_insts / issue_rate if total_insts else 0.0

        # memory leg: hierarchy-blended bandwidth under coalescing and
        # the same latency-hiding ratio
        bw = (
            self.memory.effective_bandwidth_gbs()
            * COALESCING[pattern]
            * max(hiding, 0.05)  # even one warp makes some progress
            * 1e9
        )
        t_memory = bytes_moved / bw if bytes_moved else 0.0

        return spec.launch_overhead_s + max(t_compute, t_memory)

    def feasible(self, profile: KernelProfile) -> bool:
        """Whether the launch shape fits this device at all."""
        try:
            self.occupancy(profile)
        except ValueError:
            return False
        return True

    def knobs(self) -> dict:
        return {
            "sm": self.sm.knobs(),
            "memory": self.memory.knobs(),
            "latency": self.latency.knobs(),
        }

    def with_hit_rates(
        self, l1_hit_rate: float | None = None, l2_hit_rate: float | None = None
    ) -> "DetailedDeviceModel":
        """A copy with adjusted cache hit rates (ablation knob)."""
        mem = self.memory
        return DetailedDeviceModel(
            sm=self.sm,
            memory=MemoryHierarchy(
                l1_hit_rate=mem.l1_hit_rate if l1_hit_rate is None else l1_hit_rate,
                l2_hit_rate=mem.l2_hit_rate if l2_hit_rate is None else l2_hit_rate,
                l1_bandwidth_gbs=mem.l1_bandwidth_gbs,
                l2_bandwidth_gbs=mem.l2_bandwidth_gbs,
                dram_bandwidth_gbs=mem.dram_bandwidth_gbs,
            ),
            latency=self.latency,
        )
