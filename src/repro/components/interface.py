"""PEPPHER interface descriptors.

A PEPPHER interface specifies the name, parameter types and access types
of a function to be implemented, which performance metrics prediction
functions must provide, and the context parameters considered for
composition.  Interfaces can be *generic* in static entities such as
element types; genericity is resolved statically by expansion, as with
C++ templates (paper section II).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.errors import DescriptorError
from repro.components.context import ContextParamDecl
from repro.runtime.access import AccessMode

_IDENT = re.compile(r"^[A-Za-z_]\w*$")


@dataclass(frozen=True)
class ParamDecl:
    """One formal parameter of an interface function.

    Attributes
    ----------
    name:
        Parameter name.
    ctype:
        C-style type text, e.g. ``"float*"``, ``"int"``, ``"size_t*"``,
        or a generic type such as ``"T*"`` for template interfaces.
    access:
        Declared access type (read / write / readwrite).  Only meaningful
        for operand (pointer/container) parameters; scalar value
        parameters are always read.
    """

    name: str
    ctype: str
    access: AccessMode = AccessMode.R

    def __post_init__(self) -> None:
        if not _IDENT.match(self.name):
            raise DescriptorError(f"invalid parameter name {self.name!r}")
        if not self.ctype.strip():
            raise DescriptorError(f"parameter {self.name!r}: empty type")

    @property
    def is_pointer(self) -> bool:
        return self.ctype.rstrip().endswith("*")

    @property
    def base_type(self) -> str:
        """Type without pointer/const decoration (``float*`` -> ``float``)."""
        t = self.ctype.replace("const", " ").replace("*", " ")
        return " ".join(t.split())


@dataclass(frozen=True)
class InterfaceDescriptor:
    """A PEPPHER interface (functionality declaration).

    Attributes
    ----------
    name:
        Interface name, which is also the callable function name.
    params:
        Formal parameters in declaration order.
    return_type:
        C-style return type (PEPPHER composition points return ``void``;
        results travel through write-mode parameters).
    type_params:
        Template type parameters for generic interfaces (e.g. ``("T",)``).
    performance_metrics:
        Metrics that prediction functions of implementations must
        provide, e.g. ``("avg_exec_time",)``.
    context_params:
        Declared subset of call-context properties that may influence
        callee selection, with optional ranges.
    use_history_models:
        Per-component toggle for performance-aware selection (paper
        section IV-G: the boolean flag in the XML descriptor of the
        component interface).  When False, tasks of this component are
        placed greedily even under a performance-aware policy.
    """

    name: str
    params: tuple[ParamDecl, ...]
    return_type: str = "void"
    type_params: tuple[str, ...] = ()
    performance_metrics: tuple[str, ...] = ("avg_exec_time",)
    context_params: tuple[ContextParamDecl, ...] = ()
    use_history_models: bool = True

    def __post_init__(self) -> None:
        if not _IDENT.match(self.name):
            raise DescriptorError(f"invalid interface name {self.name!r}")
        seen: set[str] = set()
        for p in self.params:
            if p.name in seen:
                raise DescriptorError(
                    f"interface {self.name!r}: duplicate parameter {p.name!r}"
                )
            seen.add(p.name)
        for tp in self.type_params:
            if not _IDENT.match(tp):
                raise DescriptorError(
                    f"interface {self.name!r}: invalid type param {tp!r}"
                )

    @property
    def is_generic(self) -> bool:
        return bool(self.type_params)

    def param(self, name: str) -> ParamDecl:
        for p in self.params:
            if p.name == name:
                return p
        raise DescriptorError(f"interface {self.name!r} has no parameter {name!r}")

    def operand_params(self) -> list[ParamDecl]:
        """Parameters that carry operand data (pointers / containers)."""
        return [p for p in self.params if p.is_pointer]

    def scalar_params(self) -> list[ParamDecl]:
        """Plain value parameters (sizes, coefficients, ...)."""
        return [p for p in self.params if not p.is_pointer]

    def signature(self) -> str:
        """C-style signature text (used in generated headers)."""
        args = ", ".join(f"{p.ctype} {p.name}" for p in self.params)
        tpl = ""
        if self.type_params:
            tpl = "template <" + ", ".join(f"typename {t}" for t in self.type_params) + "> "
        return f"{tpl}{self.return_type} {self.name}({args})"

    def expand(self, bindings: dict[str, str]) -> "InterfaceDescriptor":
        """Bind generic type parameters to concrete types.

        Returns a new, non-generic interface with a mangled name
        (``sort<float>`` becomes ``sort_float``), mirroring C++ template
        instantiation.
        """
        missing = set(self.type_params) - set(bindings)
        if missing:
            raise DescriptorError(
                f"interface {self.name!r}: unbound type params {sorted(missing)}"
            )
        if not self.type_params:
            return self

        def subst(ctype: str) -> str:
            out = ctype
            for tp in self.type_params:
                out = re.sub(rf"\b{tp}\b", bindings[tp], out)
            return out

        new_params = tuple(replace(p, ctype=subst(p.ctype)) for p in self.params)
        suffix = "_".join(
            bindings[tp].replace(" ", "").replace("*", "p") for tp in self.type_params
        )
        return replace(
            self,
            name=f"{self.name}_{suffix}",
            params=new_params,
            return_type=subst(self.return_type),
            type_params=(),
        )
