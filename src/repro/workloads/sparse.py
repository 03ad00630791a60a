"""Synthetic sparse matrices standing in for the UF collection.

The paper's Figure 5 evaluates SpMV on six matrices from the University
of Florida collection, identified by application area and nonzero count
(its Table of matrices):

===========  ==================  =========
Short name   Kind                Non-zeros
===========  ==================  =========
Structural   Structural          2.7M
HB           HB                  219.8K
Convex       Convex QP           0.9M
Simulation   Circuit Simulation  4.6M
Network      Power Network       565K
Chemistry    Quantum Chemistry   758K
===========  ==================  =========

We cannot ship the collection, so each matrix is generated synthetically
to match the properties SpMV performance depends on: dimension, nonzero
count, and row-structure class (banded FEM stencils, power-law circuit /
network degrees, dense quantum-chemistry blocks).  Generation is
deterministic per seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSRMatrix:
    """A CSR matrix in the paper's spmv component layout."""

    name: str
    values: np.ndarray  # float32[nnz]
    colidxs: np.ndarray  # int64[nnz]
    rowptr: np.ndarray  # int64[nrows + 1]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rowptr) - 1

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    @property
    def nbytes(self) -> int:
        return (
            self.values.nbytes + self.colidxs.nbytes + self.rowptr.nbytes
        )


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one synthetic matrix class."""

    name: str
    kind: str  # paper's "Kind" column
    structure: str  # banded | powerlaw | block | random
    nrows: int
    nnz: int


#: the six Figure-5 matrices (dimensions chosen to give realistic
#: rows-per-nonzero ratios for each application area)
UF_SPECS: dict[str, MatrixSpec] = {
    "Structural": MatrixSpec("Structural", "Structural", "banded", 140_000, 2_700_000),
    "HB": MatrixSpec("HB", "HB", "banded", 25_000, 219_800),
    "Convex": MatrixSpec("Convex", "Convex QP", "random", 50_000, 900_000),
    "Simulation": MatrixSpec(
        "Simulation", "Circuit Simulation", "powerlaw", 680_000, 4_600_000
    ),
    "Network": MatrixSpec("Network", "Power Network", "powerlaw", 80_000, 565_000),
    "Chemistry": MatrixSpec("Chemistry", "Quantum Chemistry", "block", 12_000, 758_000),
}


def _row_degrees(spec: MatrixSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-row nonzero counts summing exactly to ``spec.nnz``."""
    n, nnz = spec.nrows, spec.nnz
    mean = nnz / n
    if spec.structure == "powerlaw":
        raw = rng.pareto(2.0, size=n) + 0.5
    elif spec.structure == "banded":
        raw = rng.normal(1.0, 0.1, size=n).clip(0.5, 1.5)
    else:
        raw = rng.normal(1.0, 0.3, size=n).clip(0.2, 3.0)
    degrees = np.maximum((raw / raw.mean() * mean).astype(np.int64), 1)
    # exact adjustment: spread the residual over random rows
    diff = int(nnz - degrees.sum())
    if diff != 0:
        idx = rng.choice(n, size=abs(diff), replace=True)
        np.add.at(degrees, idx, 1 if diff > 0 else -1)
        degrees = np.maximum(degrees, 1)
        # a second exact pass in case clipping at 1 re-introduced error
        diff = int(nnz - degrees.sum())
        if diff > 0:
            idx = rng.choice(n, size=diff, replace=True)
            np.add.at(degrees, idx, 1)
        elif diff < 0:
            eligible = np.flatnonzero(degrees > 1)
            take = rng.choice(eligible, size=-diff, replace=False)
            degrees[take] -= 1
    return degrees


def _column_indices(
    spec: MatrixSpec, degrees: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Column indices per structure class (vectorised)."""
    n = spec.nrows
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    total = int(degrees.sum())
    if spec.structure == "banded":
        bandwidth = max(int(2.5 * degrees.mean()), 4)
        offsets = rng.integers(-bandwidth, bandwidth + 1, size=total)
        cols = np.clip(rows + offsets, 0, n - 1)
    elif spec.structure == "block":
        block = max(int(1.5 * degrees.mean()), 8)
        base = (rows // block) * block
        cols = base + rng.integers(0, block, size=total)
        cols = np.minimum(cols, n - 1)
    else:  # random / powerlaw: uniform scatter
        cols = rng.integers(0, n, size=total)
    return cols.astype(np.int64)


def make_matrix(name: str, seed: int = 0, scale: float = 1.0) -> CSRMatrix:
    """Generate one of the six Figure-5 matrices.

    ``scale`` shrinks both dimension and nonzeros proportionally (tests
    use small scales; benchmarks use 1.0).
    """
    try:
        spec = UF_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; known: {sorted(UF_SPECS)}"
        ) from None
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    if scale != 1.0:
        spec = MatrixSpec(
            spec.name,
            spec.kind,
            spec.structure,
            max(int(spec.nrows * scale), 16),
            max(int(spec.nnz * scale), 64),
        )
    # a stable digest of the name: ``hash()`` of a str is salted per process
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % (1 << 16))
    degrees = _row_degrees(spec, rng)
    cols = _column_indices(spec, degrees, rng)
    values = rng.standard_normal(len(cols)).astype(np.float32)
    rowptr = np.zeros(spec.nrows + 1, dtype=np.int64)
    np.cumsum(degrees, out=rowptr[1:])
    return CSRMatrix(
        name=spec.name, values=values, colidxs=cols, rowptr=rowptr, ncols=spec.nrows
    )


def matrix_names() -> list[str]:
    """The six matrices, in the paper's x-axis order (alphabetical)."""
    return sorted(UF_SPECS)


def random_csr(
    nrows: int, ncols: int, nnz_per_row: int, seed: int = 0
) -> CSRMatrix:
    """A plain uniform-random CSR matrix (unit-test workhorse)."""
    rng = np.random.default_rng(seed)
    degrees = np.full(nrows, nnz_per_row, dtype=np.int64)
    cols = rng.integers(0, ncols, size=nrows * nnz_per_row).astype(np.int64)
    values = rng.standard_normal(nrows * nnz_per_row).astype(np.float32)
    rowptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(degrees, out=rowptr[1:])
    return CSRMatrix(
        name=f"random{nrows}x{ncols}", values=values, colidxs=cols,
        rowptr=rowptr, ncols=ncols,
    )
