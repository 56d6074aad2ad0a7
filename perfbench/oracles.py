"""Output checks that do not trust the program's own report.

Everything here is plain numpy and Python and imports nothing from
fembasis.  The checks work on plain data (flat arrays, tuples) that the
workloads extract from the program's outputs:

* a Taylor-Hood Q2/Q1 reference assembly with its own shape functions,
  quadrature and the closed-form global numbering documented for the
  default BL(BI) tree: velocity (0, node, component), pressure (1, node),
  nodes numbered row by row from the lower-left corner;
* a trie rebuild of the index-tree property;
* closed-form values of affine and linear fields.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET

import numpy as np

# three-point Gauss-Legendre rule on [0, 1]
_GAUSS_X = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0

BOUNDARY_TOL = 1e-10


def _q2_1d(x):
    values = np.array([2.0 * (x - 0.5) * (x - 1.0), -4.0 * x * (x - 1.0), 2.0 * x * (x - 0.5)])
    slopes = np.array([4.0 * x - 3.0, 4.0 - 8.0 * x, 4.0 * x - 1.0])
    return values, slopes


def _q1_1d(x):
    return np.array([1.0 - x, x])


class TaylorHoodLayout:
    """Closed-form BL(BI) Taylor-Hood numbering on an nx-by-ny grid.

    Flat offsets follow the lexicographic order of the multi-indices:
    velocity (0, n, c) sits at 2n + c and pressure (1, n) at 2 N2 + n,
    where N2 counts the Q2 nodes.
    """

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny = nx, ny
        self.row2 = 2 * nx + 1
        self.n2 = self.row2 * (2 * ny + 1)
        self.row1 = nx + 1
        self.n1 = self.row1 * (ny + 1)
        self.dimension = 2 * self.n2 + self.n1

    def multi_indices(self):
        """All multi-indices in flat-offset order."""
        vel = [(0, n, c) for n in range(self.n2) for c in range(2)]
        return vel + [(1, n) for n in range(self.n1)]

    def q2_positions(self):
        n = np.arange(self.n2)
        return np.stack([(n % self.row2) / (2 * self.nx), (n // self.row2) / (2 * self.ny)], 1)

    def element_dofs(self) -> np.ndarray:
        """Flat offsets of the 22 functions of every element, (elements, 22).

        Local order: Q2 node (a, b) with b outer, both velocity components
        per node, then the four Q1 nodes.
        """
        dofs = []
        for j in range(self.ny):
            for i in range(self.nx):
                local = []
                for b in range(3):
                    for a in range(3):
                        node = (2 * j + b) * self.row2 + 2 * i + a
                        local += [2 * node, 2 * node + 1]
                for b in range(2):
                    for a in range(2):
                        local.append(2 * self.n2 + (j + b) * self.row1 + i + a)
                dofs.append(local)
        return np.array(dofs, dtype=np.int64)

    def boundary_velocity(self):
        """(flat offsets, Dirichlet values) of all boundary velocity entries.

        The driven cavity fixes (0, 1) on the left wall, corners included,
        and (0, 0) on the other walls.
        """
        pos = self.q2_positions()
        x, y = pos[:, 0], pos[:, 1]
        on_boundary = (np.minimum(x, 1 - x) <= BOUNDARY_TOL) | (np.minimum(y, 1 - y) <= BOUNDARY_TOL)
        nodes = np.flatnonzero(on_boundary)
        offsets = np.stack([2 * nodes, 2 * nodes + 1], 1).ravel()
        values = np.zeros((len(nodes), 2))
        values[x[nodes] <= BOUNDARY_TOL, 1] = 1.0
        return offsets, values.ravel()

    @functools.cached_property
    def distinct_pairs(self) -> int:
        """Number of (row, column) pairs of functions sharing an element."""
        dofs = self.element_dofs()
        keys = (dofs[:, :, None] * self.dimension + dofs[:, None, :]).ravel()
        return int(np.unique(keys).size)


def reference_element_matrix(hx: float, hy: float) -> np.ndarray:
    """Stokes element matrix in the local order of ``element_dofs``.

    Weak form of -laplace(u) - grad(p) = 0, div(u) = 0: the velocity block
    is int grad(u_c) . grad(v_c), the coupling int p div(v) sits in both
    symmetric positions, the pressure block is zero.
    """
    A = np.zeros((22, 22))
    for qx, wx in zip(_GAUSS_X, _GAUSS_W):
        vx, dx = _q2_1d(qx)
        px = _q1_1d(qx)
        for qy, wy in zip(_GAUSS_X, _GAUSS_W):
            vy, dy = _q2_1d(qy)
            py = _q1_1d(qy)
            w = wx * wy * hx * hy
            grad = np.stack([np.outer(vy, dx).ravel() / hx, np.outer(dy, vx).ravel() / hy], 1)
            theta = np.outer(py, px).ravel()
            laplace = grad @ grad.T * w
            for c in range(2):
                vel = np.arange(c, 18, 2)
                A[np.ix_(vel, vel)] += laplace
                coupling = np.outer(grad[:, c], theta) * w
                A[np.ix_(vel, np.arange(18, 22))] += coupling
                A[np.ix_(np.arange(18, 22), vel)] += coupling.T
    return A


def reference_cavity_system(nx: int, ny: int):
    """Independently assembled driven cavity: (layout, rows, cols, vals, b).

    The matrix comes as unsummed COO triples of all element contributions;
    boundary velocity rows are identity rows and are applied separately
    by ``check_cavity_solution``.
    """
    layout = TaylorHoodLayout(nx, ny)
    dofs = layout.element_dofs()
    Ae = reference_element_matrix(1.0 / nx, 1.0 / ny)
    rows = np.repeat(dofs, 22, axis=1).ravel()
    cols = np.tile(dofs, (1, 22)).ravel()
    vals = np.tile(Ae.ravel(), len(dofs))
    b = np.zeros(layout.dimension)
    bnd, data = layout.boundary_velocity()
    b[bnd] = data
    return layout, rows, cols, vals, b


def coo_matvec(rows, cols, vals, x, n):
    return np.bincount(rows, weights=vals * x[cols], minlength=n)


def check_cavity_solution(system, x, converged: bool, tol: float = 1e-8):
    """Converged flag, recomputed relative residual and bitwise boundary data."""
    layout, rows, cols, vals, b = system
    failures = []
    if not converged:
        failures.append("summary reports no convergence")
    bnd, data = layout.boundary_velocity()
    ax = coo_matvec(rows, cols, vals, x, layout.dimension)
    ax[bnd] = x[bnd]
    relres = float(np.linalg.norm(b - ax) / np.linalg.norm(b))
    if not relres <= tol:
        failures.append(f"recomputed relative residual {relres:.3e} > {tol:g}")
    wrong = int(np.count_nonzero(x[bnd] != data))
    if wrong:
        failures.append(f"{wrong} boundary velocities differ from the Dirichlet data")
    return failures


def linear_field_vector(layout: TaylorHoodLayout, coeffs):
    """Nodal vector of u = (a y + b, c x + d), p = p0 in flat-offset order."""
    a, b, c, d, p0 = coeffs
    pos = layout.q2_positions()
    vel = np.stack([a * pos[:, 1] + b, c * pos[:, 0] + d], 1).ravel()
    return np.concatenate([vel, np.full(layout.n1, float(p0))])


def check_stokes_null_vector(layout, rows, cols, vals, x, coeffs, tol=1e-12):
    """PDE-level check of an assembled cavity system with Dirichlet rows.

    ``rows``, ``cols``, ``vals`` are the stored entries in flat offsets and
    ``x`` the program's interpolant of the divergence-free linear velocity
    plus constant pressure given by ``coeffs``.  The entry count must
    match the element couplings, the identity rows must be exactly the
    boundary velocity rows, A x must vanish on every other row and equal x
    on the identity rows.
    """
    failures = []
    n = layout.dimension
    expected_nnz = layout.distinct_pairs
    if len(vals) != expected_nnz:
        failures.append(f"{len(vals)} stored entries, expected {expected_nnz}")
    scale = max(1.0, float(np.max(np.abs(x))))
    reference = linear_field_vector(layout, coeffs)
    err = float(np.max(np.abs(x - reference)))
    if err > tol * scale:
        failures.append(f"interpolant differs from the closed form by {err:.3e}")

    diagonal_one = np.zeros(n, dtype=bool)
    diagonal_one[rows[(rows == cols) & (vals == 1.0)]] = True
    off_diagonal_nonzero = np.zeros(n, dtype=bool)
    off_diagonal_nonzero[rows[(rows != cols) & (vals != 0.0)]] = True
    identity = diagonal_one & ~off_diagonal_nonzero
    bnd, _ = layout.boundary_velocity()
    expected = np.zeros(n, dtype=bool)
    expected[bnd] = True
    if not np.array_equal(identity, expected):
        failures.append(
            f"{int(identity.sum())} identity rows, expected the {len(bnd)} boundary velocity rows"
        )
    ax = coo_matvec(rows, cols, vals, x, n)
    rest = float(np.max(np.abs(ax[~expected]), initial=0.0))
    if rest > tol * scale:
        failures.append(f"A x reaches {rest:.3e} on a non-identity row")
    if not np.array_equal(ax[expected], x[expected]):
        failures.append("A x differs from x on an identity row")
    return failures


def trie_is_index_tree(entries) -> bool:
    """Rebuild the ordered tree from paths and test the index-tree property.

    No entry may be an inner node, and the digits below every inner node
    must be exactly 0..max.
    """
    terminal = object()
    trie: dict = {}
    for e in entries:
        node = trie
        for d in e:
            node = node.setdefault(d, {})
        node[terminal] = True
    stack = [trie]
    while stack:
        node = stack.pop()
        digits = [k for k in node if k is not terminal]
        if terminal in node and digits:
            return False
        if digits and sorted(digits) != list(range(len(digits))):
            return False
        stack.extend(node[d] for d in digits)
    return True


def check_index_table(indices, expected_count: int):
    """Indices read from every bound element of one basis."""
    failures = []
    distinct = {tuple(mi) for mi in indices}
    if len(distinct) != expected_count:
        failures.append(f"{len(distinct)} distinct indices, expected {expected_count}")
    if not trie_is_index_tree(distinct):
        failures.append("indices do not form an index tree")
    return failures


def flatten_range_value(value):
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in flatten_range_value(item)]
    return [float(value)]


def affine_values(coeffs, points):
    """Closed-form values of one affine field per row of ``coeffs`` (c0, cx, cy)."""
    pts = np.asarray(points, dtype=float)
    return coeffs[:, 0] + np.outer(pts[:, 0], coeffs[:, 1]) + np.outer(pts[:, 1], coeffs[:, 2])


def check_affine_values(coeffs, points, values, tol=1e-12):
    """Evaluated fields at ``points`` against the affine closed form."""
    got = np.array([flatten_range_value(v) for v in values])
    want = affine_values(coeffs, points)
    if got.shape != want.shape:
        return [f"evaluated shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    if err > tol * max(1.0, float(np.max(np.abs(want)))):
        return [f"evaluated field differs from the affine closed form by {err:.3e}"]
    return []


def vtu_point_data(path):
    """Named point-data arrays of an ASCII VTU file, as (points, components)."""
    root = ET.parse(path).getroot()
    arrays = {}
    for array in root.iter("DataArray"):
        name = array.get("Name")
        if name is None:
            continue
        width = int(array.get("NumberOfComponents", "1"))
        arrays[name] = np.array((array.text or "").split(), dtype=float).reshape(-1, width)
    return arrays


def check_vtu_vertices(path, nx, ny, x, layout, vertices, tol=1e-12):
    """Sampled VTU vertex rows against the nodal solution at those vertices.

    A Q2 vertex node value is the field value there, so the file must
    repeat the solution entries at each sampled vertex.
    """
    arrays = vtu_point_data(path)
    velocity, pressure = arrays.get("velocity"), arrays.get("pressure")
    n_vertices = (nx + 1) * (ny + 1)
    if velocity is None or pressure is None or len(velocity) != n_vertices or len(pressure) != n_vertices:
        return ["VTU lacks velocity or pressure at every vertex"]
    scale = max(1.0, float(np.max(np.abs(x))))
    for v in vertices:
        i, j = v % (nx + 1), v // (nx + 1)
        node = 2 * j * layout.row2 + 2 * i
        want = [x[2 * node], x[2 * node + 1], 0.0, x[2 * layout.n2 + v]]
        got = list(velocity[v]) + [pressure[v, 0]]
        if max(abs(g - w) for g, w in zip(got, want)) > tol * scale:
            return [f"VTU vertex {v} holds {got}, solution gives {want}"]
    return []
