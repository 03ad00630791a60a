"""Property-based tests: descriptor discovery walks as pathlib globs."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.components.xml_io import xml_files

#: names built from few pieces, so that one sibling's name often prefixes
#: another's followed by a character that sorts before "/" ("-" < "." < "/")
_NAMES = st.tuples(
    st.lists(st.sampled_from(("a", "-", ".", "_", "Z", "0")), min_size=1, max_size=2)
    .map("".join)
    .filter(lambda s: s not in (".", "..")),
    st.sampled_from(("", ".xml", ".xml", ".XML", ".txt", ".xml.bak")),
).map("".join)

#: a directory: name -> None for an empty file, or a subdirectory
_TREES = st.recursive(
    st.dictionaries(_NAMES, st.none(), max_size=6),
    lambda sub: st.dictionaries(_NAMES, st.none() | sub, max_size=6),
    max_leaves=40,
)


def _build(root: Path, tree: dict) -> None:
    for name, sub in tree.items():
        if sub is None:
            (root / name).write_bytes(b"")
        else:
            (root / name).mkdir()
            _build(root / name, sub)


@given(tree=_TREES)
@example(tree={"a": {"x.xml": None}, "a-b": {"x.xml": None}, "a.xml": None})
@example(tree={"notes.xml": {"x.xml": None}, "b.xml": {}})
@settings(max_examples=150, deadline=None)
def test_xml_files_match_sorted_rglob(tree):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _build(root, tree)
        expected = [p for p in sorted(root.rglob("*.xml")) if p.is_file()]
        assert xml_files(root) == expected
        assert xml_files(tmp) == expected
