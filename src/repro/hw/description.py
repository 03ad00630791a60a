"""The machine description: execution units plus memory nodes.

Mirrors StarPU's machine abstraction: memory node 0 is host RAM, shared by
all CPU workers; each GPU contributes one additional memory node reached
through a PCIe link.  The runtime engine asks the machine which node a
worker computes from and what a transfer between two nodes costs.

The blessed public spellings (see ``docs/API.md``) are::

    from repro import machine            # or: from repro.hw import machine
    m = machine("volta")                 # preset registry, either tier
    m = machine("volta", fidelity="detailed")
    m.describe()                         # structured (JSON-able) view

plus :func:`make_machine` for assembling custom machines from device
specs.  :class:`MachineDescription` itself takes keyword arguments only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuntimeSystemError
from repro.hw.devices import DeviceKind, DeviceSpec
from repro.hw.interconnect import LinkSpec, pcie2_x16

HOST_NODE = 0

#: the label of each :func:`transfer_direction` code: a copy that
#: neither leaves nor enters the host, or stays on it, is "d2d"
DIRECTIONS = ("d2d", "h2d", "d2h", "d2d")
H2D, D2H = 1, 2


def transfer_direction(src, dst):
    """A copy's direction code, an index into :data:`DIRECTIONS`.

    ``H2D`` leaves the host for a device, ``D2H`` comes back to it.
    Elementwise when ``src`` and ``dst`` are NumPy node arrays.
    """
    return (src == HOST_NODE) + 2 * (dst == HOST_NODE)


def copy_route(
    src: int, dst: int, duplex: dict[int, bool]
) -> tuple[tuple[int, int, tuple[int, str]], ...]:
    """The one definition of how a copy ``src -> dst`` moves.

    Returns its hops as ``(hop_src, hop_dst, channel)``: none for a copy
    that stays put, one for a copy between the host and a device, and
    two for a device-to-device copy, which stages through the host (the
    paper's PCIe 2.0 platforms have no peer-to-peer DMA).  A hop's
    ``channel`` is the DMA queue it serializes on: ``(link_node,
    "h2d"|"d2h")`` when ``duplex[link_node]`` says the device link has
    a DMA engine per direction, else ``(link_node, "both")``, one queue
    shared by the two directions.  The engine, dmda's estimate, the
    lookahead planner, the trace checker and :meth:`transfer_time` all
    read their copies from here.
    """
    if src == dst:
        return ()
    if src != HOST_NODE and dst != HOST_NODE:
        return copy_route(src, HOST_NODE, duplex) + copy_route(
            HOST_NODE, dst, duplex
        )
    code = transfer_direction(src, dst)
    link_node = dst if code == H2D else src
    direction = DIRECTIONS[code] if duplex.get(link_node, False) else "both"
    return ((src, dst, (link_node, direction)),)


@dataclass(frozen=True)
class ProcessingUnit:
    """One schedulable execution unit (a CPU core or a whole GPU).

    Attributes
    ----------
    unit_id:
        Dense index, unique within the machine.
    device:
        The static device model.
    memory_node:
        Index of the memory node this unit computes from.
    link:
        The host link for GPU units (``None`` for CPU units, which sit on
        the host node).
    """

    unit_id: int
    device: DeviceSpec
    memory_node: int
    link: LinkSpec | None = None

    @property
    def is_gpu(self) -> bool:
        return self.device.kind is DeviceKind.GPU

    @property
    def is_cpu(self) -> bool:
        return self.device.kind is DeviceKind.CPU


@dataclass(kw_only=True)
class MachineDescription:
    """A heterogeneous node: ``n`` CPU cores + zero or more GPUs.

    Build one with :func:`repro.hw.presets.machine` (preset registry),
    :func:`make_machine` (custom assembly), or — for advanced callers —
    keyword construction (``MachineDescription(name=..., units=...,
    links=...)``; positional arguments raise :class:`TypeError`).
    """

    name: str | None = None
    units: list[ProcessingUnit] = field(default_factory=list)
    #: link used to reach each non-host memory node, indexed by node id
    links: dict[int, LinkSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name is None:
            raise TypeError("MachineDescription requires a name")

    @property
    def n_memory_nodes(self) -> int:
        return 1 + len(self.links)

    @property
    def cpu_units(self) -> list[ProcessingUnit]:
        return [u for u in self.units if u.is_cpu]

    @property
    def gpu_units(self) -> list[ProcessingUnit]:
        return [u for u in self.units if u.is_gpu]

    @property
    def fidelity(self) -> str:
        """Cost-model tier of the machine: ``"detailed"`` when any unit
        carries a detailed device model, else ``"coarse"``."""
        if any(u.device.fidelity == "detailed" for u in self.units):
            return "detailed"
        return "coarse"

    def unit(self, unit_id: int) -> ProcessingUnit:
        try:
            u = self.units[unit_id]
        except IndexError:
            raise RuntimeSystemError(
                f"machine {self.name!r} has no unit {unit_id}"
            ) from None
        if u.unit_id != unit_id:  # defensive: units must be densely indexed
            raise RuntimeSystemError(
                f"unit table corrupt: slot {unit_id} holds unit {u.unit_id}"
            )
        return u

    @property
    def duplex(self) -> dict[int, bool]:
        """Per device link node: True when it has a DMA engine per
        direction (the ``duplex`` argument of :func:`copy_route`)."""
        return {node: link.duplex for node, link in self.links.items()}

    def transfer_time(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` from ``src_node`` to ``dst_node``:
        the sum of the link legs of its :func:`copy_route`."""
        self._check_node(src_node)
        self._check_node(dst_node)
        return sum(
            (
                self.links[link_node].transfer_time(nbytes)
                for _, _, (link_node, _) in copy_route(
                    src_node, dst_node, self.duplex
                )
            ),
            0.0,
        )

    def node_capacity(self, node: int) -> int | None:
        """Memory capacity of a node in bytes (None = unlimited host RAM)."""
        self._check_node(node)
        if node == HOST_NODE:
            return None
        for unit in self.gpu_units:
            if unit.memory_node == node:
                return unit.device.memory_bytes
        return None

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_memory_nodes):
            raise RuntimeSystemError(
                f"memory node {node} out of range for machine {self.name!r} "
                f"with {self.n_memory_nodes} nodes"
            )

    def describe(self) -> dict:
        """Structured (JSON-able) view of the machine description.

        This is the blessed introspection surface: one dict covering the
        name, fidelity tier, every unit's device figures (including the
        attached device model's knobs for detailed-tier devices) and
        the link table — the same facts the tuning store fingerprints.
        Use :meth:`summary` for the human-readable text form.
        """
        return {
            "name": self.name,
            "fidelity": self.fidelity,
            "n_memory_nodes": self.n_memory_nodes,
            "units": [
                {
                    "unit_id": u.unit_id,
                    "memory_node": u.memory_node,
                    "device": {
                        "name": u.device.name,
                        "kind": u.device.kind.value,
                        "fidelity": u.device.fidelity,
                        "peak_gflops": u.device.peak_gflops,
                        "mem_bandwidth_gbs": u.device.mem_bandwidth_gbs,
                        "launch_overhead_s": u.device.launch_overhead_s,
                        "cores": u.device.cores,
                        "busy_watts": u.device.busy_watts,
                        "memory_bytes": u.device.memory_bytes,
                        **(
                            {"model": u.device.model.describe()}
                            if u.device.model is not None
                            else {}
                        ),
                    },
                }
                for u in self.units
            ],
            "links": {
                node: {
                    "bandwidth_gbs": link.bandwidth_gbs,
                    "latency_s": link.latency_s,
                    "duplex": link.duplex,
                }
                for node, link in sorted(self.links.items())
            },
        }

    def summary(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [
            f"machine {self.name!r} [{self.fidelity}]: {len(self.units)} "
            f"units, {self.n_memory_nodes} memory nodes"
        ]
        for u in self.units:
            where = f"node {u.memory_node}"
            lines.append(
                f"  unit {u.unit_id}: {u.device.name} ({u.device.kind.value}, "
                f"{where}, {u.device.peak_gflops:g} GF/s peak)"
            )
        return "\n".join(lines)


#: compatibility alias — the class was called ``Machine`` before the
#: machine-description API was blessed; internal code and annotations
#: keep working under the short name
Machine = MachineDescription


def make_machine(
    name: str,
    cpu: DeviceSpec,
    n_cpu_cores: int,
    gpus: list[DeviceSpec] | None = None,
    link: LinkSpec | None = None,
    reserve_core_per_gpu: bool = True,
) -> MachineDescription:
    """Assemble a :class:`MachineDescription`.

    Parameters
    ----------
    cpu:
        Device model for *one* CPU core; replicated ``n_cpu_cores`` times.
    gpus:
        One device model per GPU.  Each GPU gets its own memory node.
    link:
        Host link model shared by all GPUs (default PCIe 2.0 x16).
    reserve_core_per_gpu:
        StarPU dedicates one CPU core to drive each CUDA device; when
        true, one CPU worker is removed per GPU (so a 4-core + 1-GPU
        platform exposes 3 CPU workers + 1 GPU worker, and "all four
        CPUs" in the paper's hybrid plots means 3 compute cores + the
        driver core).  Set to ``False`` to expose every core.
    """
    gpus = gpus or []
    if n_cpu_cores < 1:
        raise ValueError("a machine needs at least one CPU core")
    n_workers = n_cpu_cores - (len(gpus) if reserve_core_per_gpu else 0)
    if n_workers < 0:
        raise ValueError(
            f"{len(gpus)} GPUs need {len(gpus)} driver cores but only "
            f"{n_cpu_cores} cores exist"
        )
    link = link or pcie2_x16()
    units: list[ProcessingUnit] = []
    for _ in range(n_workers):
        units.append(
            ProcessingUnit(unit_id=len(units), device=cpu, memory_node=HOST_NODE)
        )
    links: dict[int, LinkSpec] = {}
    for i, gpu in enumerate(gpus):
        node = 1 + i
        links[node] = link
        units.append(
            ProcessingUnit(
                unit_id=len(units), device=gpu, memory_node=node, link=link
            )
        )
    return MachineDescription(name=name, units=units, links=links)
