"""XML reading/writing for all PEPPHER descriptor kinds.

XML descriptors are chosen over code annotations as they are non-intrusive
to the actual source code (paper section II).  This module is the single
place that knows the schema; everything else works on the typed
descriptor dataclasses.

Root tags: ``peppherInterface``, ``peppherImplementation``,
``peppherPlatform``, ``peppherMain``.  :func:`load_descriptor` dispatches
on the root tag, which is how the repository scanner classifies files.
"""

from __future__ import annotations

import functools
import os
import xml.etree.ElementTree as ET
from operator import attrgetter
from pathlib import Path

from repro._identity import Identity
from repro.components.constraints import ExpressionConstraint, RangeConstraint
from repro.components.context import ContextParamDecl
from repro.components.implementation import (
    ImplementationDescriptor,
    ResourceRequirement,
)
from repro.components.interface import InterfaceDescriptor, ParamDecl
from repro.components.main_desc import MainDescriptor
from repro.components.platform_desc import PlatformDescriptor
from repro.components.tunables import TunableParam
from repro.errors import DescriptorError
from repro.runtime.access import AccessMode
from repro.runtime.archs import Arch

_ACCESS_TEXT = {AccessMode.R: "read", AccessMode.W: "write", AccessMode.RW: "readwrite"}


def _parse_value(text: str):
    """Best-effort typed parse of an attribute value (int, float, str)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _opt_float(elem: ET.Element, attr: str) -> float | None:
    raw = elem.get(attr)
    return None if raw is None else float(raw)


# ---------------------------------------------------------------------------
# interface descriptors
# ---------------------------------------------------------------------------

def interface_to_xml(desc: InterfaceDescriptor) -> ET.Element:
    root = ET.Element("peppherInterface", name=desc.name)
    if not desc.use_history_models:
        root.set("useHistoryModels", "false")
    fn = ET.SubElement(root, "function", returnType=desc.return_type)
    for p in desc.params:
        ET.SubElement(
            fn, "param", name=p.name, type=p.ctype, access=_ACCESS_TEXT[p.access]
        )
    if desc.type_params:
        tps = ET.SubElement(root, "typeParams")
        for tp in desc.type_params:
            ET.SubElement(tps, "typeParam", name=tp)
    metrics = ET.SubElement(root, "performanceMetrics")
    for m in desc.performance_metrics:
        ET.SubElement(metrics, "metric", name=m)
    if desc.context_params:
        cps = ET.SubElement(root, "contextParams")
        for cp in desc.context_params:
            attrs = {"name": cp.name, "kind": cp.kind}
            if cp.minimum is not None:
                attrs["min"] = repr(cp.minimum)
            if cp.maximum is not None:
                attrs["max"] = repr(cp.maximum)
            ET.SubElement(cps, "contextParam", **attrs)
    return root


def interface_from_xml(root: ET.Element) -> InterfaceDescriptor:
    if root.tag != "peppherInterface":
        raise DescriptorError(f"expected peppherInterface, got {root.tag!r}")
    name = root.get("name") or ""
    fn = root.find("function")
    if fn is None:
        raise DescriptorError(f"interface {name!r}: missing <function> element")
    params = tuple(
        ParamDecl(
            name=p.get("name") or "",
            ctype=p.get("type") or "",
            access=AccessMode.parse(p.get("access", "read")),
        )
        for p in fn.findall("param")
    )
    type_params = tuple(
        tp.get("name") or "" for tp in root.findall("typeParams/typeParam")
    )
    metrics = tuple(
        m.get("name") or "" for m in root.findall("performanceMetrics/metric")
    ) or ("avg_exec_time",)
    context_params = tuple(
        ContextParamDecl(
            name=cp.get("name") or "",
            kind=cp.get("kind", "int"),
            minimum=_opt_float(cp, "min"),
            maximum=_opt_float(cp, "max"),
        )
        for cp in root.findall("contextParams/contextParam")
    )
    return InterfaceDescriptor(
        name=name,
        params=params,
        return_type=fn.get("returnType", "void"),
        type_params=type_params,
        performance_metrics=metrics,
        context_params=context_params,
        use_history_models=(
            root.get("useHistoryModels", "true").lower() == "true"
        ),
    )


# ---------------------------------------------------------------------------
# implementation descriptors
# ---------------------------------------------------------------------------

def implementation_to_xml(desc: ImplementationDescriptor) -> ET.Element:
    root = ET.Element(
        "peppherImplementation",
        name=desc.name,
        provides=desc.provides,
        platform=desc.platform,
    )
    if desc.requires:
        req = ET.SubElement(root, "requires")
        for r in desc.requires:
            ET.SubElement(req, "interface", name=r)
    if desc.sources:
        srcs = ET.SubElement(root, "sources")
        for s in desc.sources:
            ET.SubElement(srcs, "source", file=s)
    if desc.compile_cmd:
        ET.SubElement(root, "deployment", compileCmd=desc.compile_cmd)
    if desc.kernel_ref:
        ET.SubElement(root, "kernel", ref=desc.kernel_ref)
    if desc.cost_ref:
        ET.SubElement(root, "costModel", ref=desc.cost_ref)
    if desc.prediction_ref:
        ET.SubElement(root, "prediction", ref=desc.prediction_ref)
    if desc.resources:
        res = ET.SubElement(root, "resources")
        for r in desc.resources:
            attrs = {"name": r.resource, "min": repr(r.minimum)}
            if r.maximum is not None:
                attrs["max"] = repr(r.maximum)
            ET.SubElement(res, "resource", **attrs)
    if desc.tunables:
        tuns = ET.SubElement(root, "tunables")
        for t in desc.tunables:
            attrs = {"name": t.name}
            if t.values:
                attrs["values"] = ",".join(str(v) for v in t.values)
            if t.default is not None:
                attrs["default"] = str(t.default)
            ET.SubElement(tuns, "tunable", **attrs)
    if desc.constraints:
        cons = ET.SubElement(root, "constraints")
        for c in desc.constraints:
            if isinstance(c, RangeConstraint):
                attrs = {"param": c.param}
                if c.minimum is not None:
                    attrs["min"] = repr(c.minimum)
                if c.maximum is not None:
                    attrs["max"] = repr(c.maximum)
                ET.SubElement(cons, "range", **attrs)
            else:
                expr = ET.SubElement(cons, "expr")
                expr.text = c.describe()
    return root


def implementation_from_xml(root: ET.Element) -> ImplementationDescriptor:
    if root.tag != "peppherImplementation":
        raise DescriptorError(f"expected peppherImplementation, got {root.tag!r}")

    def ref_of(tag: str) -> str:
        elem = root.find(tag)
        return (elem.get("ref") or "") if elem is not None else ""

    deployment = root.find("deployment")
    constraints: list = []
    for c in root.findall("constraints/range"):
        constraints.append(
            RangeConstraint(
                param=c.get("param") or "",
                minimum=_opt_float(c, "min"),
                maximum=_opt_float(c, "max"),
            )
        )
    for c in root.findall("constraints/expr"):
        constraints.append(ExpressionConstraint(c.text or ""))
    tunables = tuple(
        TunableParam(
            name=t.get("name") or "",
            values=tuple(
                _parse_value(v) for v in (t.get("values") or "").split(",") if v
            ),
            default=_parse_value(t.get("default")) if t.get("default") else None,
        )
        for t in root.findall("tunables/tunable")
    )
    return ImplementationDescriptor(
        name=root.get("name") or "",
        provides=root.get("provides") or "",
        platform=root.get("platform") or "",
        requires=tuple(
            r.get("name") or "" for r in root.findall("requires/interface")
        ),
        sources=tuple(s.get("file") or "" for s in root.findall("sources/source")),
        compile_cmd=(deployment.get("compileCmd") or "") if deployment is not None else "",
        kernel_ref=ref_of("kernel"),
        cost_ref=ref_of("costModel"),
        prediction_ref=ref_of("prediction"),
        resources=tuple(
            ResourceRequirement(
                resource=r.get("name") or "",
                minimum=float(r.get("min", "0")),
                maximum=_opt_float(r, "max"),
            )
            for r in root.findall("resources/resource")
        ),
        tunables=tunables,
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# platform descriptors
# ---------------------------------------------------------------------------

def platform_to_xml(desc: PlatformDescriptor) -> ET.Element:
    root = ET.Element(
        "peppherPlatform",
        name=desc.name,
        language=desc.language,
        arch=desc.arch.value,
        compiler=desc.compiler,
    )
    for key, value in desc.properties:
        ET.SubElement(root, "property", name=key, value=value)
    return root


def platform_from_xml(root: ET.Element) -> PlatformDescriptor:
    if root.tag != "peppherPlatform":
        raise DescriptorError(f"expected peppherPlatform, got {root.tag!r}")
    return PlatformDescriptor(
        name=root.get("name") or "",
        language=root.get("language") or "",
        arch=Arch.parse(root.get("arch", "cpu")),
        compiler=root.get("compiler", "cc"),
        properties=tuple(
            (p.get("name") or "", p.get("value") or "")
            for p in root.findall("property")
        ),
    )


# ---------------------------------------------------------------------------
# main-module descriptors
# ---------------------------------------------------------------------------

def main_to_xml(desc: MainDescriptor) -> ET.Element:
    root = ET.Element(
        "peppherMain",
        name=desc.name,
        targetPlatform=desc.target_platform,
        optimizationGoal=desc.optimization_goal,
        scheduler=desc.scheduler,
        useHistoryModels="true" if desc.use_history_models else "false",
        linkCmd=desc.link_cmd,
    )
    srcs = ET.SubElement(root, "sources")
    for s in desc.sources:
        ET.SubElement(srcs, "source", file=s)
    comps = ET.SubElement(root, "components")
    for c in desc.components:
        ET.SubElement(comps, "component", interface=c)
    if desc.disable_impls:
        dis = ET.SubElement(root, "disableImpls")
        for d in desc.disable_impls:
            ET.SubElement(dis, "impl", name=d)
    return root


def main_from_xml(root: ET.Element) -> MainDescriptor:
    if root.tag != "peppherMain":
        raise DescriptorError(f"expected peppherMain, got {root.tag!r}")
    return MainDescriptor(
        name=root.get("name") or "",
        sources=tuple(s.get("file") or "" for s in root.findall("sources/source"))
        or ("main.cpp",),
        target_platform=root.get("targetPlatform", "c2050"),
        optimization_goal=root.get("optimizationGoal", "min_exec_time"),
        components=tuple(
            c.get("interface") or "" for c in root.findall("components/component")
        ),
        scheduler=root.get("scheduler", "dmda"),
        use_history_models=(root.get("useHistoryModels", "true").lower() == "true"),
        disable_impls=tuple(
            d.get("name") or "" for d in root.findall("disableImpls/impl")
        ),
        link_cmd=root.get("linkCmd", MainDescriptor.__dataclass_fields__["link_cmd"].default),
    )


# ---------------------------------------------------------------------------
# file-level API
# ---------------------------------------------------------------------------

_TO_XML = {
    InterfaceDescriptor: interface_to_xml,
    ImplementationDescriptor: implementation_to_xml,
    PlatformDescriptor: platform_to_xml,
    MainDescriptor: main_to_xml,
}

_FROM_XML = {
    "peppherInterface": interface_from_xml,
    "peppherImplementation": implementation_from_xml,
    "peppherPlatform": platform_from_xml,
    "peppherMain": main_from_xml,
}


def descriptor_to_string(desc) -> str:
    """Serialise any descriptor to pretty-printed XML text.

    Rendered once per descriptor object: the apps' descriptors are
    module constants and parsed ones come from the bytes memo, so a
    recompose renders only descriptors it has not seen.
    """
    if type(desc) not in _TO_XML:
        raise DescriptorError(f"not a descriptor: {type(desc).__name__}")
    return _render(Identity(desc))


@functools.lru_cache(maxsize=1024)
def _render(key: Identity) -> str:
    # a frozen descriptor's text cannot change while the memo holds it
    root = _TO_XML[type(key.obj)](key.obj)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def save_descriptor(desc, path: str | Path) -> Path:
    """Write a descriptor as an XML file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(descriptor_to_string(desc))
    return path


def load_descriptor(path: str | Path):
    """Parse any descriptor XML file, dispatching on the root tag.

    Files are parsed by content through a per-process memo: composing
    and then importing an application reads each deployed descriptor
    back, and identical bytes yield the same (immutable) descriptor.
    """
    try:
        return _parse(_read_bytes(path))
    except DescriptorError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc


def _read_bytes(path: str | Path) -> bytes:
    # unbuffered reads: a descriptor is about a kilobyte, and a file
    # object costs more than reading it
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def xml_files(root: str | Path) -> list[Path]:
    """The ``*.xml`` files under ``root``, in ``sorted(root.rglob("*.xml"))`` order.

    One walk of the directory ``root``.  Directories named ``*.xml`` are
    skipped, so every path returned can be read.  Visiting each
    directory's entries in name order yields paths ordered by their
    parts, as ``Path`` objects compare: ``a/x.xml`` comes before
    ``a-b/x.xml`` although ``"-" < "/"``.
    """
    return [Path(p) for p in xml_paths(root)]


def xml_paths(root: str | Path) -> list[str]:
    """:func:`xml_files` as plain ``str`` paths, each ``root`` joined
    with its parts by :func:`os.path.join`."""
    found: list[str] = []
    _collect_xml(os.fspath(root), found)
    return found


def _collect_xml(top: str, found: list[str]) -> None:
    with os.scandir(top) as scan:
        entries = sorted(scan, key=attrgetter("name"))
    for entry in entries:
        if entry.is_dir():
            if not entry.is_symlink():  # as rglob: no descent into links
                _collect_xml(entry.path, found)
        elif entry.name.endswith(".xml"):
            found.append(entry.path)


def parse_descriptor_string(text: str):
    """Parse a descriptor from XML text (round-trip testing aid)."""
    return _parse(text)


@functools.lru_cache(maxsize=1024)
def _parse(data: bytes | str):
    # safe to share: descriptors are frozen dataclasses holding tuples,
    # and nothing mutates a parsed constraint
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise DescriptorError(f"malformed XML: {exc}") from exc
    try:
        from_xml = _FROM_XML[root.tag]
    except KeyError:
        raise DescriptorError(f"unknown descriptor root tag {root.tag!r}") from None
    return from_xml(root)
