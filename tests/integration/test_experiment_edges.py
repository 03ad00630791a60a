"""Experiment-harness edge cases and reporting details."""

import pytest

from repro.experiments import fig5, fig6


def test_fig6_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fig6.measure_app(
            fig6.SCENARIOS["sgemm"], lambda: None, mode="hybrid"
        )


def test_fig6_adapt_win_note_when_tgpa_beats_both():
    result = fig6.run("c2050", apps=("bfs",), size_scale=0.25)
    norm = result.normalised()["bfs"]
    text = fig6.format_result(result)
    if min(norm["openmp"], norm["cuda"]) > 1.0:
        assert "adapting per problem size" in text


def test_fig5_single_matrix_subset():
    rows = fig5.run(matrices=("Network",), scale=0.05)
    assert [r.matrix for r in rows] == ["Network"]


def test_entry_wrapper_charges_packing_overhead(runtime):
    """The generated indirection costs a little virtual host time —
    the quantity Figure 7 shows to be negligible."""
    import numpy as np

    from repro.apps import spmv
    from repro.composer.glue import WRAPPER_OVERHEAD_S, invoke_entry, lower_component
    from repro.containers import Vector
    from repro.workloads.sparse import random_csr

    cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS)
    mat = random_csr(64, 64, 4, seed=1)
    vecs = [
        Vector(mat.values, runtime=runtime),
        Vector(mat.colidxs, runtime=runtime),
        Vector(mat.rowptr, runtime=runtime),
        Vector(np.ones(64, dtype=np.float32), runtime=runtime),
        Vector.zeros(64, runtime=runtime),
    ]
    before = runtime.now
    invoke_entry(
        runtime,
        cl,
        spmv.INTERFACE,
        (vecs[0], mat.nnz, 64, 64, 0, vecs[1], vecs[2], vecs[3], vecs[4]),
        sync=False,
    )
    # submission overhead + the wrapper's packing overhead were charged
    assert runtime.now >= before + WRAPPER_OVERHEAD_S
