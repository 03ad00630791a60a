"""Consistent-hash ring: stability, preference order, minimal remap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import HashRing


def test_vnodes_validation():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


def test_membership_and_idempotent_add_remove():
    ring = HashRing([0, 1, 2])
    assert len(ring) == 3
    assert 1 in ring and 5 not in ring
    ring.add(1)  # no-op
    assert len(ring) == 3
    ring.remove(1)
    ring.remove(1)  # no-op
    assert len(ring) == 2
    assert ring.members == frozenset({0, 2})


def test_empty_ring_routes_nowhere():
    ring = HashRing()
    assert ring.preference("tenant") == []
    assert ring.primary("tenant") is None


def test_preference_is_distinct_and_covers_all_members():
    ring = HashRing(range(8))
    pref = ring.preference("tenant-a")
    assert sorted(pref) == list(range(8))
    assert len(set(pref)) == 8
    assert ring.primary("tenant-a") == pref[0]
    # the n cap truncates the same order
    assert ring.preference("tenant-a", 3) == pref[:3]


def test_routing_is_deterministic_across_instances():
    a = HashRing(range(10), vnodes=32)
    b = HashRing(range(10), vnodes=32)
    for key in ("alpha", "beta", "gamma", "tenant-17"):
        assert a.preference(key) == b.preference(key)


def test_insertion_order_does_not_matter():
    a = HashRing([0, 1, 2, 3, 4])
    b = HashRing([4, 2, 0, 3, 1])
    for key in ("alpha", "beta", "gamma"):
        assert a.preference(key) == b.preference(key)


def test_removal_only_remaps_keys_owned_by_the_removed_node():
    ring = HashRing(range(10), vnodes=64)
    keys = [f"tenant-{i}" for i in range(200)]
    before = {k: ring.primary(k) for k in keys}
    victim = ring.primary("tenant-0")
    ring.remove(victim)
    for k in keys:
        if before[k] != victim:
            assert ring.primary(k) == before[k], (
                "a key not owned by the removed node was remapped"
            )
        else:
            assert ring.primary(k) != victim


def test_removed_node_leaves_every_preference_list():
    ring = HashRing(range(6))
    ring.remove(3)
    for key in ("a", "b", "c", "d"):
        assert 3 not in ring.preference(key)


def _grown(nodes, vnodes: int) -> HashRing:
    """The ring built one ``add`` at a time, in the given order."""
    ring = HashRing(vnodes=vnodes)
    for n in nodes:
        ring.add(n)
    return ring


@given(
    nodes=st.lists(st.integers(0, 40), max_size=12),
    vnodes=st.integers(1, 16),
    other=st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_memoized_layout_is_the_incremental_one_and_never_shared(
    nodes, vnodes, other
):
    a = HashRing(nodes, vnodes=vnodes)
    b = HashRing(reversed(nodes), vnodes=vnodes)  # same member set
    grown = _grown(nodes, vnodes)
    layout = (list(grown._hashes), list(grown._owners))
    assert (a._hashes, a._owners) == (b._hashes, b._owners) == layout
    keys = [f"key-{i}" for i in range(6)]
    memo = [a.preference(k) for k in keys]
    # editing one ring leaves the other, and the next ring built, alone;
    # its memoized preferences follow the new member set
    a.add(other)
    if nodes:
        a.remove(nodes[0])
    fresh = HashRing(a.members, vnodes=vnodes)
    assert [a.preference(k) for k in keys] == [fresh.preference(k) for k in keys]
    assert [b.preference(k) for k in keys] == memo
    assert (b._hashes, b._owners) == layout
    c = HashRing(nodes, vnodes=vnodes)
    assert (c._hashes, c._owners) == layout
    assert c.members == b.members == frozenset(nodes)
