"""Memo keys by object identity.

Composition derives text from immutable descriptors that live for the
whole process (the apps' module constants, or the objects the
descriptor parser's bytes memo hands out).  Keying such memos by
identity costs one ``id`` per lookup instead of hashing a descriptor's
fields, and it tells apart descriptors that compare equal but render
differently (``min="1"`` and ``min="1.0"``).
"""

from __future__ import annotations


class Identity:
    """Hashes and compares by the identity of ``obj``.

    A memo that holds the key holds ``obj``, so its id is not reused
    while the entry lives.
    """

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Identity) and self.obj is other.obj
