"""Stationary Stokes driven cavity with Taylor-Hood elements.

The weak form of -laplace(u) - grad(p) = 0, div(u) = 0 pairs a velocity
Laplacian block with symmetric velocity-pressure coupling built from
integrals of (grad phi_i)_k * theta_j.  The velocity lives in two
quadratic components, the pressure in one linear component, so every quad
element contributes a dense 22-by-22 matrix.  Boundary conditions fix the
velocity to (0,1) on the left wall and (0,0) elsewhere; rows of fixed
entries become identity rows.  :func:`run_driven_cavity` solves the
resulting saddle point system with :func:`solve_stokes`, the one solve of
every Taylor-Hood system here, whichever way it was assembled: the
velocity Laplacian is inverted exactly by fast diagonalisation, so
restarted GMRes runs on the pressure Schur complement, right-preconditioned
by the pressure mass, and the interior velocity follows from the pressure;
every block is applied as 1-D tensor products in the Laplacian's
eigenbasis.  The solution is written to an ASCII VTU file; a pinned run
fixes the pressure's free constant after the solve.  All of it reads flat
offsets off the basis's node grids; multi-index keys are left to the
public API.
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
from .errors import AlreadyFrozen, ShapeMismatch
from .functions import boundary_offsets, interpolate_masked
from .gmres import SolverConfig, _timed, gmres
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


def _taylor_hood_shape(leaves):
    """Raise unless the last leaf is root child 1: the velocity is then all of root child 0."""
    if leaves[-1].rel_path != (1,):
        raise ValueError("expected the velocity at root child 0, a pressure leaf at root child 1")


def _split_taylor_hood_leaves(leaves):
    _taylor_hood_shape(leaves)
    if [leaf.finite_element.order for leaf in leaves] != [2] * VELOCITY_COMPONENTS + [1]:
        raise ValueError("expected two quadratic velocity leaves and one linear pressure leaf")
    return leaves[:-1], leaves[-1]


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
    :func:`solve_stokes` also assumes): every element has the same size
    and Jacobian, so all element matrices are the same.  The
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

    The batched form of the paper's loop: every velocity boundary node
    (the ring of each velocity leaf's node grid, see
    :func:`~fembasis.functions.boundary_offsets`) becomes an identity row,
    and the boundary data goes into the rhs, which is laid out like
    ``basis``, by :func:`~fembasis.functions.interpolate_masked` on the
    mask that is true at that ring: ``boundary_values`` is called once per
    ring node of the finest velocity lattice, in row-major order.
    :func:`solve_stokes` reads the same rings.  Every check comes before any
    write: the root's shape (ValueError), the data, the rhs and the system.
    """
    _taylor_hood_shape(basis._scope().leaves)
    velocity = subspace_basis(basis, (0,))
    ring = boundary_offsets(velocity)
    mask = NestedVector.from_flat(basis.layout, np.zeros(basis.dimension(), dtype=bool))
    mask.values[ring] = True
    sampled = NestedVector.from_flat(rhs.layout, np.zeros(rhs.values.shape))  # rhs is written last
    interpolate_masked(velocity, sampled, boundary_values, mask)
    system.set_rows_to_identity(basis.layout, ring)
    rhs.values[ring] = sampled.values[ring]


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
    """Read-only 1-D factors of :func:`solve_stokes` along an axis of ``cells`` cells.

    S and lam (S^T K S = diag(lam), S^T M S = I for the interior Q2
    stiffness K and mass M), the inverse Q1 mass, and the interior Q2 rows
    of the Q2-by-Q1 mass M21 and slope coupling D21 in the eigenbasis,
    S^T M21 and S^T D21; kept per cell count, 11 kB at 12 cells and
    1.2 MB at 128.
    """
    stiffness, mass, _ = line_matrices(2, 2, cells)
    inv_factor = np.linalg.inv(np.linalg.cholesky(mass[1:-1, 1:-1]))
    lam, q = np.linalg.eigh(inv_factor @ stiffness[1:-1, 1:-1] @ inv_factor.T)
    s = inv_factor.T @ q
    _, mass21, slope21 = line_matrices(2, 1, cells)
    pressure_inv = np.linalg.inv(line_matrices(1, 1, cells)[1])
    return read_only(s, lam, pressure_inv, s.T @ mass21[1:-1], s.T @ slope21[1:-1])


def solve_stokes(
    basis: GlobalBasis, system: SparseSystem, rhs: NestedVector, config=None,
    pin_pressure: bool = False, record=None,
):
    """Solve a frozen Taylor-Hood cavity system for the pressure alone.

    The contract: ``system`` is the uniform-grid Taylor-Hood Stokes
    operator of :func:`assemble_stokes_matrix` on ``basis``, batched or
    entry by entry, with the velocity ring made identity rows as by
    :func:`apply_dirichlet`, and ``rhs`` is laid out like ``basis``.  The
    blocks come from the grid's 1-D matrices and the system is read only
    through its products, so on any other system only the returned relres
    shows the error.  A non-Taylor-Hood basis raises ValueError, an
    unfrozen system NotFrozen and an rhs laid out otherwise ShapeMismatch;
    a NaN or inf in the rhs or in a row of the system that is not an
    identity row raises ValueError before GMRes starts.

    With K^-1 exact, [K B^T; B 0] [u; p] = [f; h] on the interior velocity
    and the pressure reduces to the Schur complement S p = B K^-1 f - h,
    S = B K^-1 B^T, after which u = K^-1 (f - B^T p) (Benzi, Golub &
    Liesen, *Acta Numerica* 14, 2005, section 5).  Each block is a tensor
    product of 1-D matrices on node grids Z: K^-1 is fast diagonalisation
    (Lynch, Rice & Thomas, 1964), ``Sy (Sy^T Z Sx / (lam_y + lam_x)) Sx^T``
    per velocity component; B^T is ``My21 Z Dx21^T`` for the x component
    and ``Dy21 Z Mx21^T`` for the y one, with the Q2-by-Q1 mass M21 and
    slope coupling D21, which the assembly's 3x3 Gauss rule integrates
    exactly.  In the eigenbasis of K, B^T_k Z = left_k Z right_k becomes
    L_k Z R_k with L_k = Sy^T left_k and R_k = right_k Sx, so
    S Q = sum_k L_k^T ((L_k Q R_k) / (lam_y + lam_x)) R_k^T needs no
    product with Sy or Sx.  GMRes runs on S over the pressure node grid,
    right-preconditioned by the Q1 pressure mass, M_p^-1 Q = My^-1 Q Mx^-1.
    Each leaf's node grid indexes the flat vectors, so every numbering works.

    The solve corrects g = rhs, which holds the Dirichlet data: one product
    gives r = g - A g, and f and h are r on the interior velocity and on
    the pressure.  GMRes stops at ``config.tolerance * ||g|| / ||c||``,
    the whole system's relative residual, as the velocity rows are exact
    to round-off; the boundary velocities stay bitwise g.  ``pin_pressure``
    then subtracts the value at pressure node (0, 0) from every pressure
    slot and reports the relres of the system pinned there (its row an
    identity row, rhs 0): the free residual with that entry 0.0.

    Returns ``(solution, relres, iterations)`` like
    :func:`~fembasis.gmres.solve_system`, relres from one product with the
    solution.  ``record``, if given, receives the GMRes record, its
    residuals scaled to ||g||, with the products outside GMRes counted as
    ``"matvec"`` and the build and K^-1 as ``"precondition"``, and that
    last product A x as ``"product"``.
    """
    start = time.perf_counter()
    vel, press = _split_taylor_hood_leaves(basis._scope().leaves)
    if not basis.layout.same_keys(rhs.layout):
        raise ShapeMismatch("the rhs must be laid out like the basis")
    operator = system.operator(rhs.layout)
    g = rhs.values
    cfg = config if config is not None else SolverConfig()
    record = {} if record is None else record
    nx, ny = basis.grid.nx, basis.grid.ny
    interior = np.stack([leaf.node_grid[1:-1, 1:-1] for leaf in vel])
    pressure = press.node_grid
    sx, lam_x, px_inv, sx_m21, sx_d21 = _axis_factors(nx)
    sy, lam_y, py_inv, sy_m21, sy_d21 = _axis_factors(ny)
    eigenvalue_sums = lam_y[:, None] + lam_x[None, :]
    # L_k stacked as rows, and R_k^T, of the x and the y component
    lefts, right_ts = np.vstack([sy_m21, sy_d21]), np.stack([sx_d21, sx_m21])
    rights = right_ts.transpose(0, 2, 1)
    stacked = (VELOCITY_COMPONENTS, 2 * ny - 1, nx + 1)
    seconds = {"matvec": 0.0, "precondition": time.perf_counter() - start}

    def coupled(w):
        """sum_k L_k^T W_k R_k^T of the stacked eigenbasis grids W."""
        return lefts.T @ (w @ right_ts).reshape(-1, nx + 1)

    def schur(q):
        q = q.reshape(pressure.shape)
        return coupled((lefts @ q).reshape(stacked) @ rights / eigenvalue_sums).ravel()

    def mass_inverse(q):
        return (py_inv @ q.reshape(pressure.shape) @ px_inv).ravel()

    def reduced(r):
        """f = r on the velocity interior in the eigenbasis, and c = B K^-1 f - h, h = r_p."""
        f_hat = sy.T @ r[interior] @ sx
        return f_hat, coupled(f_hat / eigenvalue_sums) - r[pressure]

    def product_and_residual(x):
        ax = operator(x)
        return ax, g - ax

    checked = _timed(product_and_residual, seconds, "matvec")
    r = checked(g)[1]
    if not np.isfinite(r).all():
        raise ValueError("rhs - system @ rhs is not finite: the rhs or the system has a NaN or inf")
    f_hat, c = _timed(reduced, seconds, "precondition")(r)
    c = c.ravel()
    g_norm, c_norm = math.sqrt(g @ g), math.sqrt(c @ c)
    p, _, iterations = gmres(
        schur,
        c,
        restart=cfg.restart,
        tol=cfg.tolerance * g_norm / c_norm if c_norm else cfg.tolerance,
        maxiter=cfg.max_iterations,
        precondition=mass_inverse,
        record=record,
    )

    def corrected(p):
        """g plus the interior velocity u = K^-1 (f - B^T p) and the pressure p."""
        p = p.reshape(pressure.shape)
        x = g.copy()
        b_hat = (lefts @ p).reshape(stacked) @ rights
        x[interior] += sy @ ((f_hat - b_hat) / eigenvalue_sums) @ sx.T
        x[pressure] += p
        return x

    x = _timed(corrected, seconds, "precondition")(p)
    if pin_pressure:
        x[pressure] -= x[pressure[0, 0]]
    ax, residual = checked(x)
    if pin_pressure:
        residual[pressure[0, 0]] = 0.0
    for name, spent in seconds.items():
        record["seconds"][name] += spent
    record["residuals"] = [r * c_norm / g_norm for r in record["residuals"]]
    record["product"] = ax
    relres = math.sqrt(residual @ residual) / g_norm if g_norm else 0.0
    return NestedVector.from_flat(rhs.layout, x), relres, iterations


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
    # GMRes's residual estimate on the pressure after every iteration, relative
    # to the whole rhs norm: the whole system's relative residual to round-off
    residuals: list
    # wall seconds per stage (basis, assemble, dirichlet, freeze, solve,
    # divergence, vtu) and of the whole run ("total")
    stage_seconds: dict
    # the solve stage split: wall seconds in the products with the system and
    # with the Schur complement ("matvec"), in the solve's build, K^-1 and the
    # pressure mass inverse ("precondition") and in the rest of GMRes ("krylov")
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
    GMRes solves for the pressure alone (:func:`solve_stokes`); relres
    is the whole system's relative residual from one product with the
    solution, and div the norm of that product's pressure rows, which is
    :func:`weak_divergence_norm` of the solution.

    ``pin_pressure`` solves the same system and pins the pressure at node
    (0, 0) as :func:`solve_stokes` describes.  Iterations, velocities and
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

    record = {}
    solution, relres, iterations = solve_stokes(basis, system, rhs, cfg, pin_pressure, record)
    ends["solve"] = time.perf_counter()

    # the divergence rows are the pressure rows (see weak_divergence_norm), in slot order
    divergence_rows = record["product"][np.sort(basis.node_grid((1,)), axis=None)]
    divergence = math.sqrt(divergence_rows @ divergence_rows)
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
