"""Stationary Stokes driven cavity with Taylor-Hood elements.

The weak form of -laplace(u) - grad(p) = 0, div(u) = 0 pairs a velocity
Laplacian block with symmetric velocity-pressure coupling built from
integrals of (grad phi_i)_k * theta_j.  The velocity lives in two
quadratic components, the pressure in one linear component, so every quad
element contributes a dense 22-by-22 matrix.  Boundary conditions fix the
velocity to (0,1) on the left wall and (0,0) elsewhere; rows of fixed
entries become identity rows.  The resulting symmetric-saddle system is
solved with restarted GMRes, right-preconditioned with an upper
block-triangular saddle point preconditioner whose blocks, the coupling
included, are applied as 1-D tensor products (:func:`stokes_preconditioner`),
and written to an ASCII VTU file; a pinned run fixes the pressure's free
constant after the solve.  All of it reads flat offsets off the basis's
node grids; multi-index keys are left to the public API.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import GlobalBasis, make_basis, subspace_basis
from .containers import NestedVector, SparseSystem
from .errors import AlreadyFrozen
from .functions import boundary_offsets, interpolate_masked
from .gmres import SolverConfig, solve_system
from .grid import StructuredGrid
from .localfe import lagrange_element, line_matrices
from .quadrature import read_only, tensor_rule
from .treespec import Composite, Leaf, Power, Strategy
from .vtu import write_vtu

VELOCITY_COMPONENTS = 2
GAUSS_POINTS = 3  # per axis: exact for the Q2-Q1 forms, of degree at most 4 per axis


def taylor_hood_tree() -> Composite:
    """The cavity's BL(BI) tree: two quadratic velocity components, then a linear pressure."""
    return Composite(
        (Power(Leaf(2), VELOCITY_COMPONENTS, Strategy.BLOCKED_INTERLEAVED), Leaf(1)),
        Strategy.BLOCKED_LEXICOGRAPHIC,
    )


def driven_cavity_data(point):
    """Dirichlet velocity: (0,1) on the left wall, zero elsewhere.

    The left-wall value wins at the corners.
    """
    x = point[0]
    if x <= 1e-8:
        return (0.0, 1.0)
    return (0.0, 0.0)


def _split_taylor_hood_leaves(leaves):
    if len(leaves) < 2:
        raise ValueError("Taylor-Hood view needs velocity and pressure leaves")
    vel, press = leaves[:-1], leaves[-1]
    orders = {leaf.finite_element.order for leaf in vel}
    if len(vel) != VELOCITY_COMPONENTS or orders != {2} or press.finite_element.order != 1:
        raise ValueError(
            "expected two quadratic velocity leaves and one linear pressure leaf"
        )
    return vel, press


@functools.cache
def _reference_tabulation(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only values (points, count) and gradients (points, count, 2) of the
    order's reference shape functions at the points of ``tensor_rule(GAUSS_POINTS)``.
    """
    fe = lagrange_element(order)
    points, _ = tensor_rule(GAUSS_POINTS)
    return read_only(
        np.array([fe.values(point) for point in points]),
        np.array([fe.gradients(point) for point in points]),
    )


def assemble_element_matrix(view) -> np.ndarray:
    """Dense element matrix of the Stokes bilinear forms on one element.

    ``view`` must be a bound Taylor-Hood local view; the element's
    geometry is its ``geometry``.  The velocity blocks get the
    component-wise Laplacian, the velocity-pressure couplings get the
    divergence pairing in both symmetric positions, and the
    pressure-pressure block stays structurally present but zero.  A fixed
    3x3 Gauss rule integrates these Q2-Q1 forms exactly, from reference
    shape functions tabulated once per order and shared by every call.
    """
    vel, press = _split_taylor_hood_leaves(view.leaves)
    geometry = view.geometry
    fe_v = vel[0].finite_element
    fe_p = press.finite_element
    n = view.max_size
    A = np.zeros((n, n))
    _, weights = tensor_rule(GAUSS_POINTS)
    _, gradients = _reference_tabulation(fe_v.order)
    values, _ = _reference_tabulation(fe_p.order)
    # all Gauss points at once; add.reduce sums the points in order, as a loop would
    grads = gradients * np.array([1.0 / geometry.hx, 1.0 / geometry.hy])
    factor = (weights * geometry.jacobian_determinant)[:, None, None]
    laplace = np.add.reduce(grads @ grads.transpose(0, 2, 1) * factor, axis=0)
    nv, npr = fe_v.count, fe_p.count
    poff = press.offset
    for k, leaf in enumerate(vel):
        off = leaf.offset
        coupling = np.add.reduce(grads[:, :, k, None] * values[:, None, :] * factor, axis=0)
        A[off : off + nv, off : off + nv] += laplace
        A[off : off + nv, poff : poff + npr] += coupling
        A[poff : poff + npr, off : off + nv] += coupling.T
    return A


def assemble_stokes_matrix(basis: GlobalBasis, system: SparseSystem) -> None:
    """Add the element matrices to ``system`` (must be empty) as one batch.

    Stores every entry of every element matrix, including the structural
    zeros of the pressure-pressure block.  The grid is uniform (as
    :func:`stokes_preconditioner` also assumes): every element has the
    same size and Jacobian, so all element matrices are the same.  The
    matrix is computed once, on element 0 (3x3 Gauss points), and added
    at every row of :meth:`~fembasis.basis.GlobalBasis.element_offsets`.
    """
    if system.frozen:
        raise AlreadyFrozen("cannot assemble into a frozen system")
    if len(system):
        raise ValueError("assembly expects an empty system")
    view = basis.local_view()
    view.bind(0)
    element_matrix = assemble_element_matrix(view)
    system.add_elements(basis.layout, basis.element_offsets(), element_matrix)


def apply_dirichlet(
    system: SparseSystem, rhs: NestedVector, basis: GlobalBasis, boundary_values=driven_cavity_data
) -> None:
    """Strongly enforce boundary velocities on the assembled system.

    Every velocity boundary node (the ring of each velocity leaf's node
    grid, see :func:`~fembasis.functions.boundary_offsets`) becomes an
    identity row and is marked in a mask through which the interpolated
    boundary data is written into the rhs, which is laid out like ``basis``.
    :func:`stokes_preconditioner` reads the same rings.
    """
    velocity = subspace_basis(basis, (0,))
    ring = boundary_offsets(velocity)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)
    mask.values[ring] = True
    system.set_rows_to_identity(basis.layout, ring)
    interpolate_masked(velocity, rhs, boundary_values, mask)


def weak_divergence_norm(system: SparseSystem, solution: NestedVector) -> float:
    """2-norm of the divergence rows of the frozen system applied to the solution.

    The divergence rows are the rows whose diagonal is exactly 0.0: the
    pressure rows, whose pressure-pressure block is zero.  Velocity rows
    carry the Laplacian's positive diagonal and identity rows carry 1.0,
    so the rule holds under every numbering.
    The divergence rows hold the divergence pairing and are untouched by
    the Dirichlet rewrite, so this measures how far the discrete velocity
    is from weak divergence-freedom.
    """
    product = system.matvec(solution).values
    divergence = product[system.diagonal(solution.layout) == 0.0]
    return math.sqrt(divergence @ divergence)


@functools.cache
def _axis_factors(cells: int) -> tuple[np.ndarray, ...]:
    """Read-only 1-D factors of :func:`stokes_preconditioner` along an axis of ``cells`` cells.

    S and lam (S^T K S = diag(lam), S^T M S = I for the interior Q2
    stiffness K and mass M), the inverse Q1 mass, and the interior Q2 rows
    of the Q2-by-Q1 mass M21 and slope coupling D21; kept per cell count,
    10.5 kB at 12 cells and 1.2 MB at 128.
    """
    stiffness, mass, _ = line_matrices(2, 2, cells)
    inv_factor = np.linalg.inv(np.linalg.cholesky(mass[1:-1, 1:-1]))
    lam, q = np.linalg.eigh(inv_factor @ stiffness[1:-1, 1:-1] @ inv_factor.T)
    _, mass21, slope21 = line_matrices(2, 1, cells)
    pressure_inv = np.linalg.inv(line_matrices(1, 1, cells)[1])
    # copies, so no factor keeps the whole matrix it was sliced from alive
    return read_only(inv_factor.T @ q, lam, pressure_inv, mass21[1:-1].copy(), slope21[1:-1].copy())


def stokes_preconditioner(basis: GlobalBasis):
    """Upper block-triangular saddle point preconditioner on flat arrays over the basis layout.

    P = [K B^T; 0 -M_p] takes the velocity Laplacian K and the coupling
    B^T of the assembled system and the Q1 pressure mass M_p (Elman,
    Silvester & Wathen, *Finite Elements and Fast Iterative Solvers*,
    ch. 4).  P^-1 v sets z_p = -M_p^-1 v_p, then z_u = K^-1 (v_u - B^T z_p)
    per velocity component.  On the uniform grid each block is a tensor
    product of 1-D matrices acting on node grids Z: K^-1 solves exactly on
    the interior Q2 nodes by fast diagonalisation (Lynch, Rice & Thomas,
    1964), ``Sy (Sy^T Z Sx / (lam_y + lam_x)) Sx^T``; M_p^-1 is
    ``My^-1 Z Mx^-1``; B^T is ``My21 Z Dx21^T`` for the x component and
    ``Dy21 Z Mx21^T`` for the y one, with the Q2-by-Q1 mass M21 and slope
    coupling D21 (the 3x3 Gauss rule of the assembly integrates both
    exactly).  Identity rows (the boundary velocities) pass through
    unchanged, so zero slots of the initial iterate stay exact.

    Vectors are laid out like ``basis``, so each leaf's
    :meth:`~fembasis.basis.GlobalBasis.node_grid` indexes them directly
    and every numbering works.  The velocity interior is the node grid
    without its outer ring, the ring :func:`apply_dirichlet` fixes.
    Returns the flat M^-1 application, which treats both velocity
    components as one stacked (2, 2ny-1, 2nx-1) batch: one gather of both
    interiors, one batched B^T product with the two components' factors,
    one fast-diagonalisation chain and one scatter.  The 1-D factors are
    built once per cell count and shared by every later preconditioner.
    """
    vel, press = _split_taylor_hood_leaves(basis._scope().leaves)
    nx, ny = basis.grid.nx, basis.grid.ny
    interior = np.stack([leaf.node_grid[1:-1, 1:-1] for leaf in vel])
    pressure = press.node_grid

    sx, lam_x, px_inv, mx21, dx21 = _axis_factors(nx)
    sy, lam_y, py_inv, my21, dy21 = _axis_factors(ny)
    eigenvalue_sums = lam_y[:, None] + lam_x[None, :]
    # B^T = left @ Z @ right of the x and the y component, stacked like ``interior``
    left, right = np.stack([my21, dy21]), np.stack([dx21.T, mx21.T])

    def apply(v):
        z = v.copy()
        zp = -(py_inv @ v[pressure] @ px_inv)
        z[pressure] = zp
        u = v[interior] - left @ zp @ right
        z[interior] = sy @ ((sy.T @ u @ sx) / eigenvalue_sums) @ sx.T
        return z

    return apply


@dataclass
class CavitySummary:
    """Outcome of one driven cavity run, plus handles for inspection."""

    dimension: int
    iterations: int
    rel_residual: float
    divergence_norm: float
    rhs_norm: float
    converged: bool
    stop: str  # why GMRes stopped: "converged", "budget" or "stalled"
    residuals: list  # GMRes's relative residual estimate after every iteration
    # wall seconds per stage (basis, assemble, dirichlet, freeze, preconditioner,
    # solve, divergence, vtu) and of the whole run ("total")
    stage_seconds: dict
    # the solve stage split: wall seconds in the matvec, in the preconditioner
    # and in the rest of GMRes ("krylov")
    solve_seconds: dict
    vtu_path: str
    grid: StructuredGrid
    basis: GlobalBasis
    solution: NestedVector

    @property
    def summary_line(self) -> str:
        return (
            f"dim={self.dimension} iters={self.iterations} "
            f"relres={self.rel_residual:.3e} div={self.divergence_norm:.3e}"
        )


def run_driven_cavity(
    nx: int, ny: int, config=None, out_path="cavity.vtu", pin_pressure: bool = False
) -> CavitySummary:
    """Assemble, solve and write the driven cavity on an nx-by-ny grid.

    The VTU file holds the nodal values at the grid vertices; a missing
    directory for it raises FileNotFoundError, and a path that is a
    directory IsADirectoryError, before any work is done.
    Prints the one-line summary (dim/iters/relres/div) and returns the
    full summary object, whose ``stage_seconds`` times each stage.

    ``pin_pressure`` solves the same system, then subtracts the value at
    pressure node (0, 0) from every pressure slot and reports the relres of
    the system pinned there (its row an identity row, rhs 0), which is the
    free residual with that row's entry 0.0.  Iterations, velocities and
    div stay the free run's.
    """
    entry = time.perf_counter()
    out = Path(out_path)
    if not out.parent.is_dir():
        raise FileNotFoundError(f"no directory {str(out.parent)!r} for the VTU file")
    if out.is_dir():
        raise IsADirectoryError(f"{str(out)!r} is a directory, not a VTU file")
    cfg = config if config is not None else SolverConfig()
    begin = time.perf_counter()
    grid = StructuredGrid(nx, ny)
    basis = make_basis(grid, taylor_hood_tree())
    ends = {"basis": time.perf_counter()}  # stage name -> its end time

    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    ends["assemble"] = time.perf_counter()
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis, driven_cavity_data)
    ends["dirichlet"] = time.perf_counter()
    system.freeze()
    ends["freeze"] = time.perf_counter()

    preconditioner = stokes_preconditioner(basis)
    ends["preconditioner"] = time.perf_counter()

    # starting from the rhs keeps identity rows exact from the first
    # iterate on, so boundary values survive the solve bitwise
    record = {}
    solution, relres, iterations = solve_system(
        system, rhs, cfg, x0=rhs, preconditioner=preconditioner, record=record
    )
    if pin_pressure:
        pressure = basis.node_grid((1,))
        values = solution.values
        values[pressure] -= values[pressure[0, 0]]
        residual = rhs.values - system.operator(rhs.layout)(values)
        residual[pressure[0, 0]] = 0.0
        relres = math.sqrt(residual @ residual) / math.sqrt(rhs.values @ rhs.values)
    ends["solve"] = time.perf_counter()

    divergence = weak_divergence_norm(system, solution)
    rhs_norm = math.sqrt(rhs.values @ rhs.values)
    ends["divergence"] = time.perf_counter()

    values = solution.values
    velocity = np.column_stack(
        [values[basis.node_grid((0, k))[::2, ::2]].ravel() for k in range(VELOCITY_COMPONENTS)]
    )
    pressure = values[basis.node_grid((1,))].ravel()
    # + 0.0: a zero value is written as 0.0 whatever its sign
    write_vtu(grid, velocity + 0.0, pressure + 0.0, out_path)
    ends["vtu"] = time.perf_counter()
    starts = [begin, *ends.values()]
    stage_seconds = {name: end - start for (name, end), start in zip(ends.items(), starts)}

    summary = CavitySummary(
        dimension=basis.dimension(),
        iterations=iterations,
        rel_residual=relres,
        divergence_norm=divergence,
        rhs_norm=rhs_norm,
        converged=relres <= cfg.tolerance,
        stop=record["stop"],
        residuals=record["residuals"],
        stage_seconds=stage_seconds,
        solve_seconds=record["seconds"],
        vtu_path=str(out_path),
        grid=grid,
        basis=basis,
        solution=solution,
    )
    stage_seconds["total"] = time.perf_counter() - entry
    print(summary.summary_line)
    return summary
