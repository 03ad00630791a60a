"""Property-based tests for the component-model layer."""

import keyword

from hypothesis import given, settings, strategies as st

from repro.components.cdecl import parse_declaration
from repro.components.constraints import ExpressionConstraint, RangeConstraint
from repro.components.context import ContextParamDecl
from repro.components.interface import InterfaceDescriptor, ParamDecl
from repro._identity import Identity
from repro.components import xml_io
from repro.components.xml_io import descriptor_to_string, parse_descriptor_string
from repro.runtime.access import AccessMode

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
)
_ctype = st.sampled_from(
    ["int", "float", "double", "size_t", "float*", "const float*",
     "int*", "const size_t*", "unsigned"]
)


@st.composite
def _params(draw):
    names = draw(
        st.lists(_ident, min_size=1, max_size=6, unique=True)
    )
    return tuple(
        ParamDecl(
            name=name,
            ctype=draw(_ctype),
            access=draw(st.sampled_from(list(AccessMode))),
        )
        for name in names
    )


@given(name=_ident, params=_params())
@settings(max_examples=80, deadline=None)
def test_interface_xml_roundtrip(name, params):
    iface = InterfaceDescriptor(name=name, params=params)
    assert parse_descriptor_string(descriptor_to_string(iface)) == iface


@given(
    name=_ident,
    params=_params(),
    bounds=st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 5)), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_memoized_render_matches_fresh_render(name, params, bounds):
    """The identity-keyed render memo returns what rendering afresh
    does, for a descriptor and for an equal twin whose int bounds are
    floats (equal, yet rendered ``1`` vs ``1.0``)."""

    def iface(cast):
        return InterfaceDescriptor(
            name=name,
            params=params,
            context_params=tuple(
                ContextParamDecl(f"c{i}", minimum=cast(lo), maximum=cast(lo + width))
                for i, (lo, width) in enumerate(bounds)
            ),
        )

    ints, floats = iface(int), iface(float)
    for desc in (ints, floats, ints):
        assert descriptor_to_string(desc) == xml_io._render.__wrapped__(Identity(desc))


@given(
    name=_ident,
    params=st.lists(
        st.tuples(_ident, st.sampled_from(["int", "float", "const float*", "float*"])),
        min_size=0,
        max_size=6,
        unique_by=lambda t: t[0],
    ),
)
@settings(max_examples=80, deadline=None)
def test_cdecl_roundtrip_through_signature(name, params):
    """Rendering a declaration and re-parsing it is the identity."""
    args = ", ".join(f"{ctype} {pname}" for pname, ctype in params) or "void"
    decl_text = f"void {name}({args});"
    decl = parse_declaration(decl_text)
    assert decl.name == name
    assert [p.name for p in decl.params] == [p for p, _ in params]
    # const pointers read, mutable pointers read-write, scalars read
    for parsed, (_, ctype) in zip(decl.params, params):
        if "*" in ctype and "const" not in ctype:
            assert parsed.access is AccessMode.RW
        else:
            assert parsed.access is AccessMode.R


@given(
    minimum=st.integers(min_value=0, max_value=1000),
    width=st.integers(min_value=0, max_value=1000),
    value=st.integers(min_value=-100, max_value=2100),
)
def test_range_constraint_is_interval_membership(minimum, width, value):
    c = RangeConstraint("n", minimum=minimum, maximum=minimum + width)
    assert c.evaluate({"n": value}) == (minimum <= value <= minimum + width)


@given(
    a=st.integers(min_value=1, max_value=1000),
    b=st.integers(min_value=1, max_value=1000),
    limit=st.integers(min_value=1, max_value=100),
)
def test_expression_constraint_matches_python_eval(a, b, limit):
    c = ExpressionConstraint("x / y <= limit")
    ctx = {"x": a, "y": b, "limit": limit}
    assert c.evaluate(ctx) == (a / b <= limit)


@given(
    lo=st.integers(min_value=1, max_value=100),
    span=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=1, max_value=6),
)
def test_sample_points_stay_in_declared_range(lo, span, n):
    decl = ContextParamDecl("n", minimum=lo, maximum=lo * (1 + span))
    pts = decl.sample_points(n)
    assert all(lo <= p <= lo * (1 + span) for p in pts)
    assert pts == sorted(pts)
