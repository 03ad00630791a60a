"""Workload generators: sizes, structure and determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import (
    UF_SPECS,
    gemm_inputs,
    hotspot_inputs,
    make_matrix,
    matrix_names,
    pathfinder_wall,
    random_csr,
    random_graph,
)


# -- sparse (the Figure 5 matrices) ------------------------------------------

def test_six_figure5_matrices():
    assert matrix_names() == [
        "Chemistry",
        "Convex",
        "HB",
        "Network",
        "Simulation",
        "Structural",
    ]


@pytest.mark.parametrize("name", sorted(UF_SPECS))
def test_matrix_nnz_matches_paper_table(name):
    mat = make_matrix(name, scale=1.0)
    spec = UF_SPECS[name]
    assert mat.nnz == spec.nnz
    assert mat.nrows == spec.nrows


def test_matrix_csr_wellformed():
    mat = make_matrix("HB", scale=0.1)
    assert mat.rowptr[0] == 0
    assert (np.diff(mat.rowptr) >= 1).all()
    assert mat.rowptr[-1] == len(mat.values) == len(mat.colidxs)
    assert mat.colidxs.min() >= 0 and mat.colidxs.max() < mat.ncols


def test_matrix_scale_shrinks():
    full = UF_SPECS["Network"]
    small = make_matrix("Network", scale=0.1)
    assert small.nrows == int(full.nrows * 0.1)
    assert abs(small.nnz - full.nnz * 0.1) < full.nnz * 0.02


def test_matrix_deterministic():
    a = make_matrix("Convex", seed=5, scale=0.05)
    b = make_matrix("Convex", seed=5, scale=0.05)
    assert (a.values == b.values).all() and (a.colidxs == b.colidxs).all()


#: prints the hex bytes of one Figure-5 matrix's three CSR arrays
_MATRIX_HEX = (
    "from repro.workloads.sparse import make_matrix\n"
    "m = make_matrix('Chemistry', seed=0, scale=0.01)\n"
    "print((m.values.tobytes() + m.colidxs.tobytes() + m.rowptr.tobytes()).hex())"
)


def test_matrix_independent_of_hash_seed():
    """``str`` hashing is salted per process; the matrices must not be."""
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    out = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _MATRIX_HEX],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out.append(proc.stdout)
    assert out[0] and out[0] == out[1]


def test_matrix_unknown_name():
    with pytest.raises(KeyError):
        make_matrix("NotAMatrix")


def test_matrix_bad_scale():
    with pytest.raises(ValueError):
        make_matrix("HB", scale=0.0)
    with pytest.raises(ValueError):
        make_matrix("HB", scale=2.0)


def test_banded_structure_stays_near_diagonal():
    mat = make_matrix("Structural", scale=0.02)
    rows = np.repeat(np.arange(mat.nrows), np.diff(mat.rowptr))
    distance = np.abs(mat.colidxs - rows)
    assert np.median(distance) < mat.nrows / 50  # banded, not scattered


def test_powerlaw_structure_has_skewed_degrees():
    mat = make_matrix("Simulation", scale=0.02)
    degrees = np.diff(mat.rowptr)
    assert degrees.max() > 8 * np.median(degrees)


def test_random_csr_shape():
    mat = random_csr(50, 70, 3, seed=1)
    assert mat.nrows == 50 and mat.ncols == 70 and mat.nnz == 150


def test_to_dense_matches_spmv():
    from repro.apps.spmv import reference

    mat = random_csr(20, 20, 3, seed=2)
    dense = np.zeros((mat.nrows, mat.ncols), dtype=np.float32)
    for i in range(mat.nrows):
        lo, hi = mat.rowptr[i], mat.rowptr[i + 1]
        np.add.at(dense[i], mat.colidxs[lo:hi], mat.values[lo:hi])
    x = np.random.default_rng(0).standard_normal(20).astype(np.float32)
    assert np.allclose(dense @ x, reference(mat.values, mat.colidxs, mat.rowptr, x, 20), rtol=1e-4)


# -- graphs ------------------------------------------------------------------

def test_graph_offsets_wellformed():
    nodes, edges = random_graph(100, 5, seed=3)
    assert len(nodes) == 101
    assert nodes[-1] == len(edges)
    assert (np.diff(nodes) >= 1).all()  # ring edge guarantees degree >= 1


def test_graph_is_fully_reachable():
    from repro.apps.bfs import reference

    nodes, edges = random_graph(60, 2, seed=4)
    costs = reference(nodes, edges, 60, 0)
    assert (costs >= 0).all()  # the embedded ring reaches everyone


def test_graph_minimum_size():
    with pytest.raises(ValueError):
        random_graph(1)


# -- grids / dense -------------------------------------------------------------

def test_hotspot_inputs_contain_hotspots():
    power, temp = hotspot_inputs(32, 32, seed=5)
    assert power.max() > 1.0  # hot functional units exist
    assert (temp == 60.0).all()


def test_pathfinder_wall_range():
    wall = pathfinder_wall(10, 20, seed=6)
    assert wall.min() >= 1 and wall.max() <= 9
    assert wall.shape == (200,)


def test_gemm_inputs_shapes_and_dtype():
    a, b, c = gemm_inputs(4, 5, 6, seed=7)
    assert a.shape == (4, 6) and b.shape == (6, 5) and c.shape == (4, 5)
    assert a.dtype == np.float32
