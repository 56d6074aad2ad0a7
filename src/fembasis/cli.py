"""Command line front end: index inspection and the Stokes demo."""

from __future__ import annotations

import sys

from .basis import make_basis
from .errors import FemBasisError
from .gmres import SolverConfig
from .grid import StructuredGrid, parse_grid_shape
from .stokes import run_driven_cavity, taylor_hood_tree
from .treespec import Composite, Leaf, Power, Strategy, parse_tree

TABLE1_COLUMNS = tuple(
    (f"{outer.short}({inner.short})", outer, inner)
    for outer in (Strategy.BLOCKED_LEXICOGRAPHIC, Strategy.FLAT_LEXICOGRAPHIC)
    for inner in Strategy
)


def strategy_table_bases(grid: StructuredGrid, velocity_components: int):
    """One Taylor-Hood basis per outer(inner) strategy combination."""
    bases = []
    for label, outer, inner in TABLE1_COLUMNS:
        tree = Composite(
            (Power(Leaf(2), velocity_components, inner), Leaf(1)),
            outer,
        )
        bases.append((label, make_basis(grid, tree)))
    return bases


def _print_element_table(view, element: int) -> None:
    view.bind(element)
    print(f"element {element} (size {view.size}):")
    for local in range(view.size):
        print(f"  {local:3d}  {view.index(local)}")


def _cmd_indices(args) -> int:
    nx, ny = args.grid
    grid = StructuredGrid(nx, ny)

    if args.table1 is not None:
        bases = strategy_table_bases(grid, args.table1)
        n2, n1 = (bases[0][1].node_grid(path).size for path in ((0, 0), (1,)))
        print(f"Taylor-Hood with {args.table1} velocity components, n2={n2}, n1={n1}")
        width = 14
        header = " " * 10 + "".join(label.center(width) for label, _ in bases)
        print(header)
        rows = [("v", k, j) for k in range(args.table1) for j in range(min(4, n2))]
        rows += [("p", None, j) for j in range(min(3, n1))]
        for kind, k, j in rows:
            if kind == "v":
                label = f"v_x{k}_{j}"
                cells = [b.leaf_dof_index((0, k), j) for _, b in bases]
            else:
                label = f"p_{j}"
                cells = [b.leaf_dof_index((1,), j) for _, b in bases]
            line = f"{label:<10}" + "".join(str(c).center(width) for c in cells)
            print(line)
        return 0

    basis = make_basis(grid, parse_tree(args.tree))
    view = basis.local_view()
    if args.element is not None:
        _print_element_table(view, args.element)
    else:
        for e in range(grid.num_elements):
            _print_element_table(view, e)
    return 0


def _cmd_stokes(args) -> int:
    config = SolverConfig(restart=args.restart, max_iterations=args.max_iter, tolerance=args.tol)
    summary = run_driven_cavity(*args.grid, config, args.out, args.pin_pressure)
    return 0 if summary.converged else 2


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at module level: importing the package does not pay for it

    parser = argparse.ArgumentParser(
        prog="fembasis",
        description="Tree-structured function space bases on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    indices = sub.add_parser(
        "indices", help="print local-to-global index tables for a basis tree"
    )
    indices.add_argument(
        "--tree",
        help="basis tree, e.g. 'composite(power(lagrange(2),2),lagrange(1))'",
    )
    indices.add_argument(
        "--grid", required=True, type=parse_grid_shape, help="grid size as NXxNY"
    )
    group = indices.add_mutually_exclusive_group()
    group.add_argument("--element", type=int, help="print only this element")
    group.add_argument(
        "--table1",
        type=int,
        metavar="N",
        help="print the eight-column strategy table for a Taylor-Hood tree "
        "with N velocity components",
    )
    indices.set_defaults(handler=_cmd_indices)

    stokes = sub.add_parser("stokes", help="solve the driven cavity and write a VTU")
    stokes.add_argument(
        "--grid", required=True, type=parse_grid_shape, help="grid size as NXxNY"
    )
    cfg = SolverConfig()  # SolverConfig holds the solver's only defaults
    stokes.add_argument("--tol", type=float, default=cfg.tolerance, help="relative residual target")
    stokes.add_argument("--restart", type=int, default=cfg.restart, help="GMRes restart length")
    stokes.add_argument("--max-iter", type=int, default=cfg.max_iterations, help="iteration budget")
    stokes.add_argument(
        "--pin-pressure", action="store_true", help="shift the pressure to 0 at node (0,0)"
    )
    stokes.add_argument("--out", required=True, help="output VTU path")
    stokes.set_defaults(handler=_cmd_stokes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "indices" and args.table1 is None and not args.tree:
        parser.error("indices needs --tree (or --table1 N)")
    try:
        return args.handler(args)
    except (FemBasisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
