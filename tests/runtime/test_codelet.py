"""Codelets and implementation variants."""

import pytest

from repro.errors import RuntimeSystemError
from repro.hw.devices import tesla_c2050
from repro.runtime.archs import Arch
from repro.runtime.codelet import Codelet, ImplVariant


def _variant(name="v", arch=Arch.CPU, cost=1e-3, guard=None):
    return ImplVariant(
        name=name, arch=arch, fn=lambda ctx, *a: None,
        cost_model=lambda ctx, dev: cost, guard=guard,
    )


def test_duplicate_variants_rejected_at_init():
    with pytest.raises(RuntimeSystemError):
        Codelet("c", [_variant("a"), _variant("a")])


def test_duplicate_variants_rejected_at_add():
    cl = Codelet("c", [_variant("a")])
    with pytest.raises(RuntimeSystemError):
        cl.add_variant(_variant("a"))


def test_variants_for_arch():
    cl = Codelet("c", [_variant("a", Arch.CPU), _variant("b", Arch.CUDA)])
    assert [v.name for v in cl.variants if v.arch is Arch.CUDA] == ["b"]


def test_archs_set():
    cl = Codelet("c", [_variant("a", Arch.CPU), _variant("b", Arch.CUDA)])
    assert cl.archs() == {Arch.CPU, Arch.CUDA}


def test_guard_filters_candidates():
    guarded = _variant("big_only", guard=lambda ctx: ctx.get("n", 0) >= 100)
    cl = Codelet("c", [_variant("always"), guarded])
    assert [v.name for v in cl.candidates({"n": 10})] == ["always"]
    assert {v.name for v in cl.candidates({"n": 1000})} == {"always", "big_only"}


def test_selectable_default_true():
    assert _variant().selectable({})


def test_predict_rejects_negative_cost():
    bad = ImplVariant(
        "bad", Arch.CPU, lambda ctx, *a: None, cost_model=lambda ctx, dev: -1.0
    )
    with pytest.raises(RuntimeSystemError):
        bad.predict({}, tesla_c2050())


def test_restricted_keeps_named():
    cl = Codelet("c", [_variant("a"), _variant("b"), _variant("c")])
    assert [v.name for v in cl.restricted(["b"]).variants] == ["b"]


def test_restricted_unknown_rejected():
    cl = Codelet("c", [_variant("a")])
    with pytest.raises(RuntimeSystemError):
        cl.restricted(["zz"])


def test_without_drops_named():
    cl = Codelet("c", [_variant("a"), _variant("b")])
    assert [v.name for v in cl.without(["a"]).variants] == ["b"]


def test_without_cannot_empty():
    cl = Codelet("c", [_variant("a")])
    with pytest.raises(RuntimeSystemError):
        cl.without(["a"])


def test_restriction_does_not_mutate_original():
    cl = Codelet("c", [_variant("a"), _variant("b")])
    cl.restricted(["a"])
    cl.without(["b"])
    assert len(cl.variants) == 2
