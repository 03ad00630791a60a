"""The ten Table-I apps deploy fixed artefact trees, fresh or recomposed."""

import hashlib

import pytest

from repro.apps import mains

#: SHA-256 of each app's artefact tree (see :func:`_tree_hash`), recorded
#: when every compose still rewrote every file.  Update it only with a
#: deliberate change to code generation.
EXPECTED = {
    "spmv": "0dd9dbec59b01c8fe575a4958bb0fea995a6005410a49bc53f805f1358918c86",
    "sgemm": "db9b34b28e4057650316c4df7238dae8796cbefb7dcc5b0b81ed29dd170ef194",
    "bfs": "7b9937e6c2bcf1a67b4cdf8782777a1ac609ea0de806cb161a0ed3a1e81b6eb0",
    "cfd": "0229e839bc58d9a27331d5990394fafa346a56d4b19ce1e1f9fd01376441f97a",
    "hotspot": "88de5e502423f1f4055d7b2fcc18311ba07b4768339485bb2262516a11971ce0",
    "lud": "781df3f568a3cbb9c82332e58d10f44dd6028742786ad970b01135db90b03387",
    "nw": "510c68a28aac381c1845f45f5c365dd97da2a2271617bc419b17c7d58593f216",
    "particlefilter": "9ed412779ecfd2d857d30bf5ed762f07c087d4133f17abfb5811153e64e8d28c",
    "pathfinder": "4660bfe40a9d935424d0891c0e109acaeb4ff493035bdd7f8b60a1d35eaec0eb",
    "odesolver": "64b03608d47536ca69e573c4642563b3399ce997cf22dda0c11bb6297874dfc0",
}


def _tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(root)).encode()
            digest.update(rel + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_every_table_app_is_pinned():
    assert set(EXPECTED) == set(mains.TOOL_MAINS)


@pytest.mark.parametrize("app", sorted(EXPECTED))
def test_artefact_tree_is_byte_identical(tmp_path, app):
    for _ in range(2):  # a fresh compose, then one over its own output
        mains.compose_app(app, out_dir=tmp_path)
        assert _tree_hash(tmp_path) == EXPECTED[app]
