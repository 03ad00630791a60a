"""The PEPPHER support library that generated code links against.

In the paper, the tool links the application "together with the generated
and compiled stubs, the PEPPHER library and the PEPPHER runtime system".
This module is that PEPPHER library: the pieces of runtime-facing logic
that every generated stub needs but that are not worth regenerating per
component — the current-runtime holder behind ``PEPPHER_INITIALIZE``,
operand coercion (smart containers vs. raw arrays), the C-signature
adapter connecting backend wrappers to the runtime's task-function
calling convention, and codelet construction from descriptor files.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.components.constraints import make_guard
from repro.components.implementation import ImplementationDescriptor
from repro.components.interface import InterfaceDescriptor
from repro.components.platform_desc import PlatformDescriptor, standard_platforms
from repro.components.prediction import resolve_ref
from repro.components.tunables import expand_tunables, mangle_tunable_suffix
from repro.components.xml_io import load_descriptor, xml_paths
from repro.containers.base import SmartContainer
from repro.errors import CompositionError, RuntimeSystemError
from repro.runtime.access import AccessMode
from repro.runtime.codelet import Codelet, ImplVariant
from repro.runtime.data import DataHandle
from repro.runtime.runtime import Runtime


class RuntimeHolder:
    """Holds the session runtime created by ``PEPPHER_INITIALIZE()``."""

    def __init__(self) -> None:
        self._runtime: Runtime | None = None

    def set(self, runtime: Runtime) -> None:
        if self._runtime is not None:
            raise RuntimeSystemError(
                "PEPPHER_INITIALIZE called twice without PEPPHER_SHUTDOWN"
            )
        self._runtime = runtime

    def get(self) -> Runtime:
        if self._runtime is None:
            raise RuntimeSystemError(
                "no runtime: call PEPPHER_INITIALIZE() first"
            )
        return self._runtime

    def clear(self) -> Runtime | None:
        rt, self._runtime = self._runtime, None
        return rt


def make_backend_adapter(interface: InterfaceDescriptor, kernel):
    """Adapt a C-signature kernel to the runtime task-function convention.

    The runtime calls variants as ``fn(ctx, *operand_arrays, *scalars)``
    (the analog of ``void f(void* buffers[], void* arg)``); the actual
    component implementation keeps its original mixed parameter order.
    The backend wrapper unpacks buffers and arguments and delegates.
    """
    operand_names = [p.name for p in interface.operand_params()]
    scalar_names = [p.name for p in interface.scalar_params()]
    order = [p.name for p in interface.params]

    def backend_wrapper(ctx, *args):
        n_ops = len(operand_names)
        buffers = args[:n_ops]
        scalars = args[n_ops:]
        if len(scalars) != len(scalar_names):
            raise RuntimeSystemError(
                f"{interface.name}: expected {len(scalar_names)} scalar "
                f"arguments, got {len(scalars)}"
            )
        by_name = dict(zip(operand_names, buffers))
        by_name.update(zip(scalar_names, scalars))
        return kernel(*(by_name[n] for n in order))

    backend_wrapper.__name__ = f"{interface.name}_backend"
    return backend_wrapper


def lower_component(
    interface: InterfaceDescriptor,
    implementations: Sequence[ImplementationDescriptor],
    platforms=None,
    backend_fns: dict | None = None,
) -> Codelet:
    """Lower one component (interface + variants) to a runtime codelet.

    Component kernels keep their original C-style signature (no ``ctx``);
    the generated backend wrapper adapts them to the runtime's
    task-function convention.  Tunable-parameter expansion yields one
    variant per value combination; tunables are performance knobs, so
    they reach the *cost model* through the context, while the kernel's
    semantics stay value-identical.

    ``backend_fns`` lets generated registries supply their own
    backend-wrapper task functions (keyed by implementation name), so
    the code the tool emitted is what actually executes.
    """
    platforms = platforms or _standard_platform_map()
    codelet = Codelet(
        name=interface.name, performance_aware=interface.use_history_models
    )
    for impl in implementations:
        arch = impl.arch_for(platforms)
        if not impl.kernel_ref or not impl.cost_ref:
            raise CompositionError(
                f"implementation {impl.name!r}: kernel/cost references are "
                "required to lower to a codelet"
            )
        cost = resolve_ref(impl.cost_ref)
        guard = make_guard(list(impl.constraints))
        min_memory, min_cores = _resource_requirements(impl)
        if backend_fns is not None:
            try:
                backend = backend_fns[impl.name]
            except KeyError:
                raise CompositionError(
                    f"no generated backend-wrapper for implementation "
                    f"{impl.name!r}"
                ) from None
        else:
            backend = make_backend_adapter(interface, resolve_ref(impl.kernel_ref))
        for binding in expand_tunables(impl.tunables):
            suffix = mangle_tunable_suffix(binding)
            codelet.add_variant(
                ImplVariant(
                    name=f"{impl.name}{suffix}",
                    arch=arch,
                    fn=backend,
                    cost_model=_bind_cost_tunables(cost, binding),
                    guard=guard,
                    tunables=binding,
                    min_device_memory_bytes=min_memory,
                    min_cores=min_cores,
                )
            )
    if not codelet.variants:
        raise CompositionError(
            f"component {interface.name!r}: lowering produced no variants"
        )
    return codelet


@functools.cache
def _standard_platform_map() -> dict[str, PlatformDescriptor]:
    # shared read-only: platform descriptors are frozen
    return {p.name: p for p in standard_platforms()}


def _resource_requirements(impl: ImplementationDescriptor) -> tuple[int, int]:
    """Translate declared resource requirements into runtime checks.

    The descriptor states resources "in terms of the target platform
    description's name space" (paper section II); the two names the
    standard platforms define are ``gpu_memory_mb`` and ``cores``.
    """
    min_memory = 0
    min_cores = 1
    for req in impl.resources:
        if req.resource == "gpu_memory_mb":
            min_memory = int(req.minimum * 1024 * 1024)
        elif req.resource == "cores":
            min_cores = max(int(req.minimum), 1)
    return min_memory, min_cores


def _bind_cost_tunables(cost, binding: dict[str, object]):
    """Merge a tunable binding into the context seen by the cost model."""
    if not binding:
        return cost

    def bound_cost(ctx, device):
        merged = dict(ctx)
        merged.update(binding)
        return cost(merged, device)

    return bound_cost


def load_component_dir(component_dir: str | Path) -> tuple[
    InterfaceDescriptor, list[ImplementationDescriptor]
]:
    """Read one component directory (interface.xml + per-platform impls)."""
    top = os.fspath(component_dir)
    iface_path = os.path.join(top, "interface.xml")
    paths = xml_paths(top) if os.path.isdir(top) else []
    if iface_path not in paths:
        if os.path.isdir(iface_path):
            raise CompositionError(
                f"{iface_path}: a directory, not the interface descriptor"
            )
        raise CompositionError(f"{top}: missing interface.xml")
    interface = load_descriptor(iface_path)
    impls = []
    for path in paths:
        if path == iface_path:
            continue
        desc = load_descriptor(path)
        if isinstance(desc, ImplementationDescriptor):
            impls.append(desc)
    return interface, impls


# ---------------------------------------------------------------------------
# operand coercion in entry wrappers
# ---------------------------------------------------------------------------

def as_operand(runtime: Runtime, value, name: str = "") -> tuple[DataHandle, bool]:
    """Coerce an entry-wrapper argument to a data handle.

    Returns ``(handle, temporary)``.  Smart containers and handles pass
    through (``temporary=False``).  Raw NumPy arrays — "parameters passed
    using normal C/C++ datatypes" — are registered on the spot and
    flagged temporary: the wrapper must execute synchronously and copy
    the data back to main memory before returning, because the tool
    cannot reason about their access patterns in the application program
    (paper section IV-D).
    """
    if isinstance(value, SmartContainer):
        return value.handle, False
    if isinstance(value, DataHandle):
        return value, False
    if isinstance(value, np.ndarray):
        return runtime.register(value, name=name), True
    raise CompositionError(
        f"argument {name!r}: expected a smart container, data handle or "
        f"numpy array, got {type(value).__name__}"
    )


#: virtual host time one generated entry-wrapper spends packing
#: arguments (the small price of the generated indirection; Figure 7
#: shows it is negligible against hand-written runtime code)
WRAPPER_OVERHEAD_S = 2e-7


def invoke_entry(
    runtime: Runtime,
    codelet: Codelet,
    interface: InterfaceDescriptor,
    args: Sequence,
    sync: bool,
    priority: int = 0,
    dispatch=None,
):
    """Shared entry-wrapper core: pack arguments, create the task.

    Generated entry wrappers call this after laying out their
    positional arguments; it performs the packing/unpacking of the call
    arguments to the runtime task handler (paper section IV-C), by the
    interface's call plan (:func:`_call_plan`).

    ``dispatch`` is the statically generated dispatch function
    (``ctx -> variant name``) of fully static composition: when present,
    the call is bound to the variant it returns and the runtime merely
    executes it (section III's off-line constructed dispatch).
    """
    runtime.engine.clock.advance(WRAPPER_OVERHEAD_S)
    n_params, operand_plan, scalar_plan, ctx_plan = _call_plan(interface)
    if len(args) != n_params:
        raise CompositionError(
            f"{interface.name}: expected {n_params} arguments, got {len(args)}"
        )
    operands: list[tuple[DataHandle, AccessMode]] = []
    temporaries: list[DataHandle] = []
    for i, name, mode in operand_plan:
        handle, temp = as_operand(runtime, args[i], name)
        operands.append((handle, mode))
        if temp:
            temporaries.append(handle)
    ctx = {name: args[i] for name, i in ctx_plan if isinstance(args[i], (int, float))}
    force_sync = sync or bool(temporaries)
    if dispatch is not None:
        codelet = _restricted_to(codelet, dispatch(ctx))
    task = runtime.submit(
        codelet,
        operands,
        ctx=ctx,
        scalar_args=tuple([args[i] for i in scalar_plan]),
        sync=force_sync,
        priority=priority,
        name=interface.name,
    )
    # raw parameters: always copy back to main memory before returning
    for handle in temporaries:
        runtime.unregister(handle)
    return task


#: Entry-wrapper memos: call plans keyed by ``id(interface)`` and
#: statically restricted codelets keyed by ``(id(codelet), variant)``.
#: Each entry holds its key object, so an id is not reused while the
#: entry lives.  Plain id-keyed dicts, as the lookup runs on every call;
#: a full memo starts over.  Sharing is safe: plans are tuples, and
#: nothing mutates a codelet once it is lowered.
_plans: dict[int, tuple[InterfaceDescriptor, tuple]] = {}
_restricted: dict[tuple[int, str], tuple[Codelet, Codelet]] = {}
_MEMO_SIZE = 256


def _call_plan(interface: InterfaceDescriptor) -> tuple:
    """``(n_params, operands, scalars, context)`` of one interface.

    ``operands`` are ``(position, name, access mode)``; ``scalars`` the
    payload positions; ``context`` the ``(name, position)`` of every
    scalar in the call context.  The call context carries the *declared*
    context parameters — the interface names exactly the properties that
    may influence callee selection (paper section III); other scalars
    (offsets, time points, coefficients) are payload and stay out of it.
    An interface declaring none puts every scalar in the context.
    """
    entry = _plans.get(id(interface))
    if entry is not None:
        return entry[1]
    declared = {cp.name for cp in interface.context_params}
    operands, scalars, context = [], [], []
    for i, p in enumerate(interface.params):
        if p.is_pointer:
            operands.append((i, p.name, p.access))
        else:
            scalars.append(i)
            if not declared or p.name in declared:
                context.append((p.name, i))
    plan = (len(interface.params), tuple(operands), tuple(scalars), tuple(context))
    if len(_plans) >= _MEMO_SIZE:
        _plans.clear()
    _plans[id(interface)] = (interface, plan)
    return plan


def _restricted_to(codelet: Codelet, variant: str) -> Codelet:
    """``codelet`` narrowed to its variant ``variant``, built once."""
    key = (id(codelet), variant)
    entry = _restricted.get(key)
    if entry is None:
        if len(_restricted) >= _MEMO_SIZE:
            _restricted.clear()
        entry = _restricted[key] = (codelet, codelet.restricted([variant]))
    return entry[1]
