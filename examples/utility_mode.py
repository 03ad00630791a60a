"""Utility mode: component skeleton generation (the paper's Figure 4).

Generates the directory structure of XML descriptors and implementation
skeletons for the spmv component from its plain C declaration — the
``compose --generateCompFiles="spmv.h"`` workflow — and prints the
resulting tree and one generated descriptor.

Run:  python examples/utility_mode.py
"""

import tempfile
from pathlib import Path

from repro.composer.cli import main as compose_cli

SPMV_HEADER = """\
/* spmv.h — sparse matrix-vector product, CSR format */
void spmv(const float* values, int nnz, int nrows, int ncols, int first,
          const size_t* colidxs, const size_t* rowPtr, const float* x,
          float* y);
"""


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="peppher_utility_") as tmp:
        show_skeletons(Path(tmp))


def show_skeletons(workdir: Path) -> None:
    header = workdir / "spmv.h"
    header.write_text(SPMV_HEADER)

    # the actual CLI entry point, exactly as the paper invokes it
    rc = compose_cli(
        [f"--generateCompFiles={header}", "--out", str(workdir / "components")]
    )
    assert rc == 0

    print("\ndirectory structure (paper Figure 4):")
    for path in sorted((workdir / "components").rglob("*")):
        depth = len(path.relative_to(workdir / "components").parts) - 1
        print("  " + "    " * depth + path.name)

    iface = workdir / "components" / "spmv" / "interface.xml"
    print("\ngenerated interface descriptor (access patterns inferred from")
    print("const semantics; the programmer fills in the rest):\n")
    print(iface.read_text())


if __name__ == "__main__":
    main()
