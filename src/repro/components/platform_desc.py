"""Platform descriptors.

The actual platform properties (programming model/language, target
architecture, resource name space) are defined separately in their own
XML documents [Sandrieser et al., HIPS 2011]; implementation descriptors
reference them by name.  Platform metadata is consulted by the
composition tool (to filter implementations that match the target
machine), and may also be looked up by the runtime or by component
developers (paper section II).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DescriptorError
from repro.runtime.archs import Arch


@dataclass(frozen=True)
class PlatformDescriptor:
    """One execution platform (programming model + target architecture).

    Attributes
    ----------
    name:
        Platform name referenced by implementation descriptors
        (``"cpu_serial"``, ``"openmp"``, ``"cuda"``, ``"opencl"``).
    language:
        Source language / programming model of implementations.
    arch:
        The runtime backend architecture implementations map onto.
    compiler:
        Default compiler command for this platform (deployment info).
    properties:
        Free-form platform properties (the "target platform
        description's name space" resource requirements refer to).
    """

    name: str
    language: str
    arch: Arch
    compiler: str = "cc"
    properties: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise DescriptorError("platform descriptor needs a name")


def standard_platforms() -> list[PlatformDescriptor]:
    """The platform set used throughout the paper's evaluation."""
    return [
        PlatformDescriptor(
            name="cpu_serial",
            language="C++",
            arch=Arch.CPU,
            compiler="g++",
            properties=(("execution_units", "cpu_core"),),
        ),
        PlatformDescriptor(
            name="openmp",
            language="C++/OpenMP",
            arch=Arch.OPENMP,
            compiler="g++ -fopenmp",
            properties=(("execution_units", "cpu_gang"),),
        ),
        PlatformDescriptor(
            name="cuda",
            language="CUDA C",
            arch=Arch.CUDA,
            compiler="nvcc",
            properties=(("execution_units", "nvidia_gpu"),),
        ),
        PlatformDescriptor(
            name="opencl",
            language="OpenCL C",
            arch=Arch.OPENCL,
            compiler="g++ -lOpenCL",
            properties=(("execution_units", "gpu"),),
        ),
    ]
