"""Consistent-hash ring: stable tenant -> node routing.

Tenants hash onto the same ring as the nodes' virtual points; a
tenant's *preference list* is the distinct-node order encountered
walking clockwise from its hash.  The first entry is the primary, the
next ``replication - 1`` are its failover replicas, and the rest is the
spillover order under correlated failures.  Consistent hashing gives
the two properties the cluster needs: removing a node only remaps the
tenants that hashed to it (placement stays re-optimizable without a
global reshuffle, per the Optimized Composition follow-up's motivation),
and the mapping is a pure function of the key and the member set — two
same-seed runs route identically.

Hashing uses BLAKE2b (stdlib, stable across processes and platforms —
``hash()`` is salted per process and would break replay).
"""

from __future__ import annotations

import bisect
import functools
import hashlib


def _h(s: str) -> int:
    """Stable 64-bit hash of a string."""
    return int.from_bytes(
        hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"
    )


@functools.lru_cache(maxsize=1024)
def _points(node: int, vnodes: int) -> tuple[int, ...]:
    """A node's virtual points: a pure function, hashed once per process."""
    return tuple(_h(f"node-{node}#{v}") for v in range(vnodes))


@functools.lru_cache(maxsize=128)
def _layout(
    members: tuple[int, ...], vnodes: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A member set's sorted ring, ``(hashes, owners)``: built once per process."""
    points = sorted((p, node) for node in members for p in _points(node, vnodes))
    return tuple(p for p, _ in points), tuple(node for _, node in points)


class HashRing:
    """Consistent-hash ring over integer node ids."""

    def __init__(self, nodes=(), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._members: set[int] = set(nodes)
        hashes, owners = _layout(tuple(sorted(self._members)), self.vnodes)
        #: sorted virtual points: parallel arrays (hash, owner), copied
        #: from the shared layout because add and remove change them
        self._hashes: list[int] = list(hashes)
        self._owners: list[int] = list(owners)
        #: key -> its full preference order; the ring is a pure function
        #: of the member set, so add and remove drop it
        self._prefs: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: int) -> bool:
        return node in self._members

    @property
    def members(self) -> frozenset:
        return frozenset(self._members)

    def add(self, node: int) -> None:
        if node in self._members:
            return
        self._members.add(node)
        self._prefs.clear()
        for p in _points(node, self.vnodes):
            i = bisect.bisect(self._hashes, p)
            self._hashes.insert(i, p)
            self._owners.insert(i, node)

    def remove(self, node: int) -> None:
        if node not in self._members:
            return
        self._members.discard(node)
        self._prefs.clear()
        points = set(_points(node, self.vnodes))
        keep = [
            (h, o)
            for h, o in zip(self._hashes, self._owners)
            if not (o == node and h in points)
        ]
        self._hashes = [h for h, _ in keep]
        self._owners = [o for _, o in keep]

    def preference(self, key: str, n: int | None = None) -> list[int]:
        """Distinct nodes in clockwise walk order from ``key``'s hash.

        Returns at most ``n`` nodes (all members when ``n`` is None).
        """
        pref = self._prefs.get(key)
        if pref is None:
            start = bisect.bisect(self._hashes, _h(key))
            walk = self._owners[start:] + self._owners[:start]
            pref = self._prefs[key] = tuple(dict.fromkeys(walk))
        return list(pref[:n])

    def primary(self, key: str) -> int | None:
        pref = self.preference(key, 1)
        return pref[0] if pref else None
