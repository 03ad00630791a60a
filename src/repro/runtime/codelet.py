"""Codelets: the runtime-level bundle of implementation variants.

This is the analog of a StarPU codelet: one computational functionality
with up to one entry point per backend architecture (the paper's
backend-wrappers).  The composition tool lowers each PEPPHER component
interface plus its selected implementation variants into one codelet.

A variant carries two callables:

``fn(ctx, *arrays)``
    The *real* computation, operating on NumPy arrays in place (W/RW
    operands) — results are bit-checkable against a reference.

``cost_model(ctx, device)``
    The *modeled* execution time of this variant on a given
    :class:`~repro.hw.devices.DeviceSpec`, in seconds.  This is ground
    truth for the simulation; the runtime's *performance models* (see
    :mod:`repro.runtime.perfmodel`) learn it from noisy observations, the
    way StarPU's history models learn real kernel timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import RuntimeSystemError
from repro.hw.devices import DeviceSpec
from repro.runtime.archs import Arch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.model import KernelProfile

#: signature of the real computation: fn(ctx, *operand_arrays) -> None
KernelFn = Callable[..., None]
#: signature of the modeled execution time: (ctx, device) -> seconds
CostFn = Callable[[Mapping[str, object], DeviceSpec], float]
#: optional selectability predicate: ctx -> bool
GuardFn = Callable[[Mapping[str, object]], bool]


@dataclass
class ImplVariant:
    """One implementation variant of a codelet.

    Attributes
    ----------
    name:
        Unique variant name, e.g. ``"spmv_cuda_cusp"``.
    arch:
        Backend architecture the variant targets.
    fn:
        The real computation (see module docstring).
    cost_model:
        Modeled execution time (see module docstring).
    guard:
        Optional selectability constraint evaluated on the call context;
        variants whose guard returns False are not candidates for that
        call (paper section II, "additional constraints for component
        selectability").
    tunables:
        Bound tunable-parameter values this variant was expanded with.
    min_device_memory_bytes:
        Resource requirement from the implementation descriptor: the
        variant only bids for devices with at least this much local
        memory (host workers, whose memory is unlimited, always qualify).
    min_cores:
        Minimum CPU-gang size a gang (OpenMP) variant requires.
    kernel_profile:
        Optional :class:`~repro.hw.model.KernelProfile` describing this
        variant's launch shape and instruction mix.  Consumed by
        detailed-tier device models: it refines the occupancy and
        latency arithmetic, and makes :meth:`fits_device` reject
        devices whose SMs cannot host even one block of the launch
        shape.  Coarse-tier devices ignore it.
    """

    name: str
    arch: Arch
    fn: KernelFn
    cost_model: CostFn
    guard: GuardFn | None = None
    tunables: dict[str, object] = field(default_factory=dict)
    min_device_memory_bytes: int = 0
    min_cores: int = 1
    kernel_profile: "KernelProfile | None" = None

    def fits_device(self, device: DeviceSpec) -> bool:
        """Resource check against a device (paper section II's
        "type and min./max. amount of resources required")."""
        if self.min_device_memory_bytes and device.memory_bytes is not None:
            if device.memory_bytes < self.min_device_memory_bytes:
                return False
        if self.kernel_profile is not None and device.model is not None:
            feasible = getattr(device.model, "feasible", None)
            if feasible is not None and not feasible(self.kernel_profile):
                return False
        return True

    def selectable(self, ctx: Mapping[str, object]) -> bool:
        """Evaluate the selectability guard for a call context."""
        if self.guard is None:
            return True
        return bool(self.guard(ctx))

    def predict(self, ctx: Mapping[str, object], device: DeviceSpec) -> float:
        """Ground-truth modeled time for this variant on ``device``."""
        t = float(self.cost_model(ctx, device))
        if t < 0:
            raise RuntimeSystemError(
                f"variant {self.name!r}: cost model returned negative time {t}"
            )
        return t


@dataclass
class Codelet:
    """A named functionality with one or more implementation variants.

    ``performance_aware`` mirrors the per-component ``useHistoryModels``
    flag: when False, performance-aware policies place this codelet's
    tasks greedily instead of consulting learned models (paper IV-G).
    """

    name: str
    variants: list[ImplVariant] = field(default_factory=list)
    performance_aware: bool = True

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for v in self.variants:
            if v.name in seen:
                raise RuntimeSystemError(
                    f"codelet {self.name!r}: duplicate variant {v.name!r}"
                )
            seen.add(v.name)

    def add_variant(self, variant: ImplVariant) -> None:
        if any(v.name == variant.name for v in self.variants):
            raise RuntimeSystemError(
                f"codelet {self.name!r}: duplicate variant {variant.name!r}"
            )
        self.variants.append(variant)

    def candidates(self, ctx: Mapping[str, object]) -> list[ImplVariant]:
        """Variants whose selectability guard passes for this context."""
        return [v for v in self.variants if v.selectable(ctx)]

    def archs(self) -> set[Arch]:
        return {v.arch for v in self.variants}

    def restricted(self, keep: Sequence[str]) -> "Codelet":
        """A copy containing only the named variants (static narrowing)."""
        keep_set = set(keep)
        missing = keep_set - {v.name for v in self.variants}
        if missing:
            raise RuntimeSystemError(
                f"codelet {self.name!r}: cannot keep unknown variants {sorted(missing)}"
            )
        return Codelet(
            name=self.name,
            variants=[v for v in self.variants if v.name in keep_set],
            performance_aware=self.performance_aware,
        )

    def without(self, drop: Sequence[str]) -> "Codelet":
        """A copy with the named variants disabled (``disableImpls``)."""
        drop_set = set(drop)
        kept = [v for v in self.variants if v.name not in drop_set]
        if not kept:
            raise RuntimeSystemError(
                f"codelet {self.name!r}: disabling {sorted(drop_set)} leaves no variant"
            )
        return Codelet(
            name=self.name, variants=kept, performance_aware=self.performance_aware
        )
