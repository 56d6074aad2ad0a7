"""Print one ``name sha256`` line per output artefact of the checkout it sits in.

Run on two checkouts, an empty ``diff`` of the two outputs shows that a
change keeps every artefact bitwise; a non-empty one names what moved::

    python scripts/digest.py > after.txt
    (cd ../parent && python scripts/digest.py) > before.txt
    diff before.txt after.txt

The artefacts are

- ``fembasis stokes`` at 4x4, 5x7, 12x12 and 32x32, free and pinned: the
  printed summary line, the VTU file's bytes and the solution's bytes;
- interpolated vectors (``interpolate`` of a scalar function, which
  broadcasts to every leaf, then ``interpolate_masked`` of another under
  a random mask) and the node grids of every leaf, on the eight Table-1
  bases at 5x7 and on the 12 random trees of ``tests/test_numberings.py``
  at 3x4;
- the rhs that ``apply_dirichlet`` writes on the eight Table-1 bases at
  5x7;
- the Taylor-Hood element matrix of a 4x4 and of a 5x7 grid;
- the ``render_tree`` text of the eight Table-1 trees at 2 components and
  of the 12 random trees, and what ``fembasis indices --grid 4x4
  --table1 3`` prints.

``--small`` keeps only the 4x4 runs, the Table-1 artefacts and the
element matrices.  The package is imported from this checkout's ``src``.

The script caps BLAS at one thread before it imports numpy.  The bytes of
this set agree at one and at two OpenBLAS threads on a 2-core machine
(OpenBLAS 0.3.31), but the cavity solution at 64x64 and 128x128 does
not, and where a BLAS starts to split its products is the library's
choice: a digest must not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"

import numpy as np  # noqa: E402

from fembasis import (  # noqa: E402
    NestedVector,
    SparseSystem,
    StructuredGrid,
    apply_dirichlet,
    assemble_element_matrix,
    interpolate,
    interpolate_masked,
    make_basis,
    render_tree,
    run_driven_cavity,
    taylor_hood_tree,
)
from fembasis.cli import main as fembasis_main, strategy_table_bases  # noqa: E402

CAVITY_GRIDS = [(4, 4), (5, 7), (12, 12), (32, 32)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cavity_digests(nx, ny, pin, directory):
    out = Path(directory) / "cavity.vtu"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):  # what ``fembasis stokes`` prints
        summary = run_driven_cavity(nx, ny, out_path=out, pin_pressure=pin)
    name = f"stokes/{nx}x{ny}/{'pinned' if pin else 'free'}"
    yield f"{name}/summary", printed.getvalue().encode()
    yield f"{name}/vtu", out.read_bytes()
    yield f"{name}/solution", summary.solution.values.tobytes()


def interpolated(basis, seed):
    """Bytes of the interpolant of one function, then of another masked to random slots."""
    coefficients, mask = NestedVector(), NestedVector()
    coefficients.resize_from_basis(basis)
    mask.resize_from_basis(basis, fill=False)
    mask.values[np.random.default_rng(seed).random(basis.dimension()) < 0.5] = True
    interpolate(basis, coefficients, lambda p: math.sin(3.0 * p[0]) * math.exp(p[1]))
    interpolate_masked(basis, coefficients, lambda p: math.cos(p[0] - 2.0 * p[1]), mask)
    return coefficients.values.tobytes()


def node_grids(basis):
    """Bytes of every leaf's node grid, depth first."""
    return b"".join(basis.node_grid(leaf.tree_path).tobytes() for leaf in basis.local_view().leaves)


def dirichlet_rhs(basis):
    """Bytes of the rhs after :func:`apply_dirichlet` of a smooth velocity."""
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(
        SparseSystem(), rhs, basis, lambda p: (math.sin(3.0 * p[0]) * p[1], math.cos(p[0] + p[1]))
    )
    return rhs.values.tobytes()


def cli_stdout(argv):
    """What ``fembasis`` prints to stdout for ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fembasis_main(argv)
    return out.getvalue().encode()


def artefacts(small):
    with tempfile.TemporaryDirectory() as directory:
        for nx, ny in CAVITY_GRIDS[:1] if small else CAVITY_GRIDS:
            for pin in (False, True):
                yield from cavity_digests(nx, ny, pin, directory)
    for seed, (label, basis) in enumerate(strategy_table_bases(StructuredGrid(5, 7), 2)):
        yield f"interpolate/table1/{label}/5x7", interpolated(basis, seed)
        yield f"node_grid/table1/{label}/5x7", node_grids(basis)
        yield f"dirichlet/table1/{label}/5x7", dirichlet_rhs(basis)
        yield f"tree/table1/{label}", render_tree(basis.tree).encode()
    yield "indices/table1", cli_stdout(["indices", "--grid", "4x4", "--table1", "3"])
    if not small:
        from test_numberings import permuting_random_trees

        for index, (seed, tree) in enumerate(permuting_random_trees()):
            basis = make_basis(StructuredGrid(3, 4), tree)
            yield f"interpolate/random_tree/{index}/3x4", interpolated(basis, seed)
            yield f"node_grid/random_tree/{index}/3x4", node_grids(basis)
            yield f"tree/random_tree/{index}", render_tree(tree).encode()
    for nx, ny in [(4, 4), (5, 7)]:
        view = make_basis(StructuredGrid(nx, ny), taylor_hood_tree()).local_view()
        view.bind(0)
        yield f"element_matrix/{nx}x{ny}", assemble_element_matrix(view).tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="only the smallest set")
    args = parser.parse_args(argv)
    for name, data in artefacts(args.small):
        print(name, sha(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
