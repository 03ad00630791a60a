"""Application kernels: correctness against oracles, variant equivalence."""

import numpy as np
import pytest

from repro.apps import bfs, cfd, hotspot, lud, nw, particlefilter, pathfinder, sgemm, spmv
from repro.workloads import (
    gemm_inputs,
    hotspot_inputs,
    pathfinder_wall,
    random_csr,
    random_graph,
)


# -- spmv ------------------------------------------------------------------

def test_spmv_variants_agree():
    mat = random_csr(200, 200, 6, seed=1)
    x = np.random.default_rng(0).standard_normal(200).astype(np.float32)
    ref = spmv.reference(mat.values, mat.colidxs, mat.rowptr, x, 200)
    for kernel in (spmv.spmv_cpu, spmv.spmv_openmp, spmv.spmv_cuda):
        y = np.zeros(200, dtype=np.float32)
        kernel(mat.values, mat.nnz, 200, 200, 0, mat.colidxs, mat.rowptr, x, y)
        assert np.allclose(y, ref, rtol=1e-5)


def test_spmv_matches_scipy():
    import scipy.sparse

    mat = random_csr(150, 150, 5, seed=2)
    x = np.ones(150, dtype=np.float32)
    sp = scipy.sparse.csr_matrix(
        (mat.values, mat.colidxs, mat.rowptr), shape=(150, 150)
    )
    assert np.allclose(
        spmv.reference(mat.values, mat.colidxs, mat.rowptr, x, 150),
        sp @ x,
        rtol=1e-4,
    )


def test_spmv_chunk_slices_balance_nnz():
    mat = random_csr(1000, 1000, 8, seed=3)
    spans = spmv.chunk_slices(mat.rowptr, 8)
    assert spans[0][0] == 0 and spans[-1][1] == 1000
    assert all(hi > lo for lo, hi in spans)
    nnz_per = [int(mat.rowptr[hi] - mat.rowptr[lo]) for lo, hi in spans]
    assert max(nnz_per) < 2 * min(nnz_per)


def test_spmv_chunk_slices_more_chunks_than_rows():
    mat = random_csr(4, 4, 2, seed=0)
    assert len(spmv.chunk_slices(mat.rowptr, 100)) == 4


def test_spmv_kernel_detects_inconsistent_chunk():
    mat = random_csr(10, 10, 2, seed=0)
    y = np.zeros(10, dtype=np.float32)
    with pytest.raises(ValueError):
        spmv.spmv_cpu(
            mat.values[:-3], mat.nnz, 10, 10, 0, mat.colidxs, mat.rowptr,
            np.ones(10, dtype=np.float32), y,
        )


# -- sgemm ----------------------------------------------------------------

def test_sgemm_variants_agree():
    a, b, c0 = gemm_inputs(20, 30, 10, seed=4)
    ref = sgemm.reference(20, 30, 10, 1.5, a, b, 0.5, c0)
    for kernel in (sgemm.sgemm_cpu, sgemm.sgemm_openmp, sgemm.sgemm_cublas):
        c = c0.copy()
        kernel(20, 30, 10, 1.5, a, b, 0.5, c)
        assert np.allclose(c.reshape(20, 30), ref, rtol=1e-4)


def test_sgemm_beta_zero_ignores_c():
    a, b, c0 = gemm_inputs(8, 8, 8, seed=5)
    c = np.full_like(c0, np.nan)
    c[:] = c0  # defined values, beta=0 must overwrite them
    sgemm.sgemm_cpu(8, 8, 8, 1.0, a, b, 0.0, c)
    assert np.allclose(c, a @ b, rtol=1e-4)


# -- bfs -------------------------------------------------------------------

def test_bfs_costs_match_networkx():
    import networkx as nx

    nodes, edges = random_graph(200, 5, seed=6)
    costs = bfs.reference(nodes, edges, 200, 0)
    g = nx.DiGraph()
    g.add_nodes_from(range(200))
    for u in range(200):
        for e in range(nodes[u], nodes[u + 1]):
            g.add_edge(u, int(edges[e]))
    lengths = nx.single_source_shortest_path_length(g, 0)
    for v in range(200):
        assert costs[v] == lengths.get(v, -1)


def test_bfs_unreachable_marked_minus_one():
    # two nodes, no edge from 0 to 1 except ring (ring guarantees reach);
    # craft manually: node 0 has no edges
    nodes = np.array([0, 0, 1], dtype=np.int32)
    edges = np.array([1], dtype=np.int32)  # node1 -> node1
    costs = bfs.reference(nodes, edges, 2, 0)
    assert costs[0] == 0 and costs[1] == -1


# -- cfd -------------------------------------------------------------------

def test_cfd_variants_agree():
    u, nb = cfd.make_grid(128, seed=7)
    ref = cfd.reference(u, nb, 128, 3)
    for kernel in (cfd.cfd_cpu, cfd.cfd_openmp, cfd.cfd_cuda):
        u2 = u.copy()
        kernel(u2, nb, 128, 3)
        assert np.allclose(u2, ref, rtol=1e-5)


def test_cfd_conserves_on_uniform_state():
    ncells = 64
    u = np.tile(np.array([1.0, 0.0, 0.0, 2.5], dtype=np.float32), ncells)
    _, nb = cfd.make_grid(ncells, seed=0)
    out = cfd.reference(u, nb, ncells, 5)
    assert np.allclose(out, u, atol=1e-5)  # uniform flow: zero net flux


# -- hotspot ---------------------------------------------------------------

def test_hotspot_variants_agree():
    power, temp = hotspot_inputs(16, 16, seed=8)
    ref = hotspot.reference(power, temp, 16, 16, 4)
    for kernel in (hotspot.hotspot_cpu, hotspot.hotspot_openmp, hotspot.hotspot_cuda):
        t = temp.copy()
        kernel(power, t, 16, 16, 4)
        assert np.allclose(t, ref, rtol=1e-5)


def test_hotspot_converges_toward_ambient_without_power():
    temp = np.full(16 * 16, 100.0, dtype=np.float32)
    power = np.zeros(16 * 16, dtype=np.float32)
    out = hotspot.reference(power, temp, 16, 16, 200)
    assert abs(out.mean() - 80.0) < abs(temp.mean() - 80.0)  # cooling to _AMB


# -- lud -------------------------------------------------------------------

#: one below, at and one above each 64-wide block boundary, and two
#: sizes whose last block is partial
LUD_BLOCK_EDGES = (63, 64, 65, 127, 128, 129, 150, 257)


@pytest.mark.parametrize("n", [16, *LUD_BLOCK_EDGES])
def test_lud_variants_agree(n):
    A0 = lud.make_spd_matrix(n, seed=9)
    ref = lud.reference(A0, n)
    for kernel in (lud.lud_cpu, lud.lud_openmp, lud.lud_cuda):
        A = A0.copy()
        kernel(A, n)
        assert np.allclose(A, ref, rtol=2e-2, atol=2e-2)


def _assert_lu_reconstructs(n, seed):
    A0 = lud.make_spd_matrix(n, seed=seed)
    A = A0.copy()
    lud.lud_cpu(A, n)
    lu = A.reshape(n, n).astype(np.float64)
    L = np.tril(lu, -1) + np.eye(n)
    U = np.triu(lu)
    assert np.allclose(L @ U, A0.reshape(n, n), rtol=1e-3, atol=1e-3)


def test_lud_factors_reconstruct_matrix():
    _assert_lu_reconstructs(80, seed=10)


@pytest.mark.parametrize("n", LUD_BLOCK_EDGES)
def test_lud_factors_reconstruct_matrix_at_block_edges(n):
    _assert_lu_reconstructs(n, seed=n)


@pytest.mark.parametrize("n", LUD_BLOCK_EDGES)
def test_lud_panels_match_scipy_solve_triangular(n, monkeypatch):
    # SciPy is a test-only oracle: the app solves its panels with NumPy
    linalg = pytest.importorskip("scipy.linalg")
    solve_panels = lud._panels
    steps = []

    def recording(d, a21, a12):
        inputs = (d.copy(), a21.copy(), a12.copy())
        out = solve_panels(d, a21, a12)
        steps.append((inputs, out))
        return out

    monkeypatch.setattr(lud, "_panels", recording)
    lud.lud_cpu(lud.make_spd_matrix(n, seed=n), n)
    assert len(steps) == -(-n // lud.BLOCK) - 1  # every block but the last
    for (d, a21, a12), (l21, u12) in steps:
        expected = (
            linalg.solve_triangular(d, a21.T, lower=False, trans="T").T,
            linalg.solve_triangular(d, a12, lower=True, unit_diagonal=True),
        )
        for got, want in zip((l21, u12), expected):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_lud_zero_pivot_raises():
    A = np.zeros(4 * 4, dtype=np.float32)
    with pytest.raises(ZeroDivisionError):
        lud.lud_cpu(A, 4)


@pytest.mark.parametrize("n, k", [(128, 63), (150, 127)])
def test_lud_zero_pivot_at_block_edge_raises(n, k):
    # the last pivot of a non-final block divides in the L21 panel solve
    A = np.eye(n, dtype=np.float32)
    A[k, k] = 0.0
    with pytest.raises(ZeroDivisionError):
        lud.lud_cpu(A.reshape(-1), n)


def test_lud_zero_final_pivot_is_kept():
    # the matrix's last pivot never divides: U simply ends in a zero
    n = 128
    A0 = np.eye(n, dtype=np.float32)
    A0[-1, -1] = 0.0
    A = A0.reshape(-1).copy()
    lud.lud_cpu(A, n)
    assert np.array_equal(A, A0.reshape(-1))


# -- nw --------------------------------------------------------------------

def test_nw_variants_agree_with_cellwise_oracle():
    s1, s2 = nw.make_sequences(24, seed=11)
    ref = nw.reference(s1, s2, 24, 3)
    for kernel in (nw.nw_cpu, nw.nw_openmp, nw.nw_cuda):
        score = np.zeros(25 * 25, dtype=np.int32)
        kernel(s1, s2, score, 24, 3)
        assert (score == ref).all()


def test_nw_identical_sequences_score_perfectly():
    s = np.arange(10, dtype=np.int32) % 4
    score = np.zeros(11 * 11, dtype=np.int32)
    nw.nw_cpu(s, s, score, 10, 2)
    assert score.reshape(11, 11)[10, 10] == 50  # 10 matches x _MATCH=5


# -- particlefilter -----------------------------------------------------------

def test_particlefilter_variants_agree():
    frames, _ = particlefilter.make_video(5, 24, seed=12)
    ref = particlefilter.reference(frames, 5, 24, 128, 3)
    for kernel in (
        particlefilter.particlefilter_cpu,
        particlefilter.particlefilter_openmp,
        particlefilter.particlefilter_cuda,
    ):
        track = np.zeros(10, dtype=np.float32)
        kernel(frames, 5, 24, 128, 3, track)
        assert np.allclose(track, ref)


def test_particlefilter_tracks_the_blob():
    frames, truth = particlefilter.make_video(10, 48, seed=13)
    track = particlefilter.reference(frames, 10, 48, 2048, 5).reshape(10, 2)
    err = np.abs(track - truth).mean()
    assert err < 2.0


def test_particlefilter_deterministic_per_seed():
    frames, _ = particlefilter.make_video(4, 24, seed=14)
    a = particlefilter.reference(frames, 4, 24, 64, 5)
    b = particlefilter.reference(frames, 4, 24, 64, 5)
    assert (a == b).all()


# -- pathfinder -----------------------------------------------------------------

def test_pathfinder_variants_agree():
    wall = pathfinder_wall(20, 50, seed=15)
    ref = pathfinder.reference(wall, 20, 50)
    for kernel in (
        pathfinder.pathfinder_cpu,
        pathfinder.pathfinder_openmp,
        pathfinder.pathfinder_cuda,
    ):
        out = np.zeros(50, dtype=np.int32)
        kernel(wall, 20, 50, out)
        assert (out == ref).all()


def test_pathfinder_against_bruteforce():
    rng = np.random.default_rng(16)
    rows, cols = 5, 6
    wall = rng.integers(1, 9, size=rows * cols).astype(np.int32)
    w = wall.reshape(rows, cols)

    best = np.full(cols, 10**9)
    import itertools

    for start in range(cols):
        for moves in itertools.product((-1, 0, 1), repeat=rows - 1):
            c = start
            total = w[0, c]
            ok = True
            for r, dc in enumerate(moves, start=1):
                c += dc
                if not 0 <= c < cols:
                    ok = False
                    break
                total += w[r, c]
            if ok:
                best[c] = min(best[c], total)
    assert (pathfinder.reference(wall, rows, cols) == best).all()


# -- interfaces sanity across all simple apps -----------------------------------

@pytest.mark.parametrize(
    "module", [spmv, sgemm, bfs, cfd, hotspot, lud, nw, particlefilter, pathfinder]
)
def test_app_declares_three_platform_variants(module):
    platforms = {impl.platform for impl in module.IMPLEMENTATIONS}
    assert platforms == {"cpu_serial", "openmp", "cuda"}
    assert all(impl.provides == module.INTERFACE.name for impl in module.IMPLEMENTATIONS)
    assert all(impl.kernel_ref and impl.cost_ref for impl in module.IMPLEMENTATIONS)
