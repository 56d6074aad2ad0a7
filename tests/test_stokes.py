"""Stokes assembly, boundary handling and the driven cavity pipeline."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from helpers import stokes_preconditioner

import fembasis
from fembasis import (
    AlreadyFrozen,
    Composite,
    GlobalBasis,
    LagrangeQk,
    Leaf,
    MultiIndex,
    NestedVector,
    NotFrozen,
    Power,
    ShapeMismatch,
    SolverConfig,
    SparseSystem,
    Strategy,
    StructuredGrid,
    apply_dirichlet,
    assemble_element_matrix,
    assemble_stokes_matrix,
    driven_cavity_data,
    evaluate_discrete,
    interpolate,
    make_basis,
    parse_tree,
    run_driven_cavity,
    solve_stokes,
    solve_system,
    subspace_basis,
    taylor_hood_tree,
    tensor_rule,
    weak_divergence_norm,
)
from fembasis.cli import TABLE1_COLUMNS, strategy_table_bases
from fembasis.functions import boundary_offsets

NV = 9  # Q2 dofs per element
NP = 4  # Q1 dofs per element


def bound_view(nx=2, ny=2, element=0):
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    view = basis.local_view()
    view.bind(element)
    return basis, view


def test_taylor_hood_tree_layout():
    tree = taylor_hood_tree()
    assert tree.strategy is Strategy.BLOCKED_LEXICOGRAPHIC
    assert tree.children[0].count == 2
    assert tree.children[0].strategy is Strategy.BLOCKED_INTERLEAVED
    assert tree.children[0].child.order == 2
    assert tree.children[1].order == 1


def test_driven_cavity_data_values():
    assert driven_cavity_data((0.0, 0.5)) == (0.0, 1.0)
    assert driven_cavity_data((0.0, 0.0)) == (0.0, 1.0)  # left wall wins corners
    assert driven_cavity_data((0.0, 1.0)) == (0.0, 1.0)
    assert driven_cavity_data((0.5, 0.0)) == (0.0, 0.0)
    assert driven_cavity_data((1.0, 0.5)) == (0.0, 0.0)


def test_element_matrix_shape_and_pressure_block():
    basis, view = bound_view()
    A = assemble_element_matrix(view)
    assert A.shape == (22, 22)
    poff = 2 * NV
    assert np.array_equal(A[poff:, poff:], np.zeros((NP, NP)))  # structural zero


def test_element_matrix_symmetry():
    basis, view = bound_view(nx=3, ny=2, element=4)
    A = assemble_element_matrix(view)
    assert np.max(np.abs(A - A.T)) <= 1e-14


def test_element_matrix_rigid_body_rows():
    # constant fields: Laplacian rows and divergence pairings kill constants
    basis, view = bound_view()
    A = assemble_element_matrix(view)
    for off in (0, NV):
        block = A[off : off + NV, off : off + NV]
        assert np.max(np.abs(block.sum(axis=1))) <= 1e-13
        coupling = A[2 * NV :, off : off + NV]
        assert np.max(np.abs(coupling.sum(axis=1))) <= 1e-13


def test_element_matrix_velocity_block_positive_semidefinite():
    basis, view = bound_view(nx=4, ny=3, element=7)
    A = assemble_element_matrix(view)
    eigs = np.linalg.eigvalsh(A[: 2 * NV, : 2 * NV])
    assert eigs.min() >= -1e-10


def test_quadrature_order_is_sufficient():
    # the integrands are polynomials of degree <= 4, exact already at 3 points
    basis, view = bound_view(nx=3, ny=3, element=5)
    a3 = assemble_element_matrix(view)
    a5 = per_point_element_matrix(view, view.geometry, 5)
    assert np.max(np.abs(a3 - a5)) <= 1e-12


def per_point_element_matrix(view, geometry, quad_points):
    """assemble_element_matrix tabulating the shape functions afresh at every Gauss point."""
    vel, press = view.leaves[:-1], view.leaves[-1]
    fe_v, fe_p = LagrangeQk(2), LagrangeQk(1)
    x, w = np.polynomial.legendre.leggauss(quad_points)
    x, w = (x + 1.0) / 2.0, w / 2.0
    points = [(xa, xb) for xb in x for xa in x]
    weights = [wa * wb for wb in w for wa in w]
    A = np.zeros((view.max_size, view.max_size))
    scale = np.array([1.0 / geometry.hx, 1.0 / geometry.hy])
    poff = press.offset
    for point, weight in zip(points, weights):
        grads = fe_v.gradients(point) * scale
        theta = fe_p.values(point)
        factor = weight * geometry.jacobian_determinant
        laplace = grads @ grads.T * factor
        for k, leaf in enumerate(vel):
            off = leaf.offset
            A[off : off + NV, off : off + NV] += laplace
            coupling = np.outer(grads[:, k], theta) * factor
            A[off : off + NV, poff : poff + NP] += coupling
            A[poff : poff + NP, off : off + NV] += coupling.T
    return A


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 5)])
def test_element_matrix_matches_the_per_point_tabulation_bitwise(nx, ny):
    _, view = bound_view(nx, ny, element=4)
    expected = per_point_element_matrix(view, view.geometry, 3)
    assert assemble_element_matrix(view).tobytes() == expected.tobytes()


def check_cached_read_only(builder, *args):
    """The builder's arrays are read-only, and a second call returns the same objects."""
    first = builder(*args)
    assert len(first) and all(not array.flags.writeable for array in first)
    second = builder(*args)
    assert all(a is b for a, b in zip(first, second, strict=True))
    return first


def test_reference_tabulations_are_shared_and_read_only():
    for order in (1, 2):
        values, gradients = check_cached_read_only(fembasis.stokes._reference_tabulation, order)
        assert values.shape == (3**2, (order + 1) ** 2)
        assert gradients.shape == values.shape + (2,)


@pytest.mark.parametrize("cells", [1, 2, 7])
def test_axis_factors_are_shared_read_only_and_per_cell_count(cells):
    factors = check_cached_read_only(fembasis.stokes._axis_factors, cells)
    n = 2 * cells - 1  # interior Q2 nodes
    shapes = [(n, n), (n,), (cells + 1, cells + 1)] + [(n, cells + 1)] * 2
    assert [f.shape for f in factors] == shapes
    other = fembasis.stokes._axis_factors(cells + 1)
    assert all(a.shape != b.shape for a, b in zip(factors, other))


CACHED_BUILDERS = (
    fembasis.quadrature._line_rule,
    fembasis.quadrature._square_rule,
    fembasis.localfe._element,
    fembasis.localfe._line_integrals,
    fembasis.stokes._reference_tabulation,
    fembasis.stokes._axis_factors,
)


def test_cavity_runs_compute_each_gauss_rule_once(tmp_path, monkeypatch, capsys):
    leggauss, eigh = np.polynomial.legendre.leggauss, np.linalg.eigh
    calls, eigh_sizes = [], []

    def counted(n):
        calls.append(n)
        return leggauss(n)

    def counted_eigh(a):
        eigh_sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for nx, ny in [(4, 4), (4, 6)]:
        for builder in CACHED_BUILDERS:
            builder.cache_clear()
        calls.clear()
        eigh_sizes.clear()
        first = run_driven_cavity(nx, ny, out_path=str(tmp_path / "c.vtu")).summary_line
        # 3 points: the 3x3 assembly rule and line_matrices of orders (2, 2) and (2, 1);
        # 2 points: line_matrices(1, 1)
        assert sorted(calls) == [2, 3]
        # one factor set per distinct cell count: 2n - 1 interior Q2 nodes on an axis
        assert eigh_sizes == sorted({2 * nx - 1, 2 * ny - 1})
        calls.clear()
        eigh_sizes.clear()
        second = run_driven_cavity(nx, ny, out_path=str(tmp_path / "c.vtu")).summary_line
        assert calls == [] and eigh_sizes == []
        assert second == first


def test_element_matrix_rejects_wrong_tree():
    basis = make_basis(StructuredGrid(1, 1), parse_tree("lagrange(2)"))
    view = basis.local_view()
    view.bind(0)
    with pytest.raises(ValueError):
        assemble_element_matrix(view)


def test_assembly_entry_count_single_element():
    basis = make_basis(StructuredGrid(1, 1), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    assert len(system) == 22 * 22


def test_assembly_guards():
    basis = make_basis(StructuredGrid(1, 1), taylor_hood_tree())
    system = SparseSystem(basis.layout)
    system.add_to_entry((1, 0), (1, 0), 1.0)
    with pytest.raises(ValueError):
        assemble_stokes_matrix(basis, system)
    frozen = SparseSystem()
    frozen.freeze()
    with pytest.raises(AlreadyFrozen):
        assemble_stokes_matrix(basis, frozen)


def assembled_matrix_dict(nx, ny):
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    system.freeze()
    return basis, system, {(row, col): value for row, col, value in system.triples()}


def test_global_matrix_symmetry_before_dirichlet():
    basis, system, entries = assembled_matrix_dict(2, 2)
    for (row, col), value in entries.items():
        assert abs(value - entries[(col, row)]) <= 1e-12


def test_global_pressure_pressure_block_zero():
    basis, system, entries = assembled_matrix_dict(2, 2)
    for (row, col), value in entries.items():
        if row[0] == 1 and col[0] == 1:
            assert value == 0.0


def prepared_cavity_system(nx=2, ny=2):
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis, driven_cavity_data)
    system.freeze()
    return basis, system, rhs


def test_dirichlet_rhs_values():
    basis, system, rhs = prepared_cavity_system()
    # Q2 node grid is 5x5 on 2x2 elements; left wall nodes have flat index 5*j
    for j in range(5):
        assert rhs[(0, 5 * j, 0)] == 0.0
        assert rhs[(0, 5 * j, 1)] == 1.0
    assert rhs[(0, 7, 0)] == 0.0 and rhs[(0, 7, 1)] == 0.0  # interior node
    for k in range(9):
        assert rhs[(1, k)] == 0.0  # pressure rhs untouched


def unit_vector(rhs, mi):
    e = NestedVector.from_flat(rhs.layout, np.zeros(len(rhs.layout)))
    e[mi] = 1.0
    return e


def test_dirichlet_identity_rows():
    basis, system, rhs = prepared_cavity_system()
    # column mi of the matrix, read through matvec with a unit vector
    boundary_mi = (0, 0, 1)
    interior_mi = (0, 7, 0)
    col = system.matvec(unit_vector(rhs, boundary_mi))
    assert col[boundary_mi] == 1.0
    col2 = system.matvec(unit_vector(rhs, interior_mi))
    assert col2[boundary_mi] == 0.0  # boundary row has no off-diagonal entries
    assert col2[interior_mi] != 0.0  # interior row kept its stencil


def test_cavity_diagonal_is_bytewise_the_summed_diagonal():
    basis, system, rhs = prepared_cavity_system(5, 6)
    dense = dense_matrix(system, rhs.layout.offset)
    assert system.diagonal(rhs.layout).tobytes() == np.diag(dense).tobytes()


def test_weak_divergence_norm_of_zero_vector():
    basis, system, rhs = prepared_cavity_system()
    zero = NestedVector.from_flat(rhs.layout, np.zeros(len(rhs.layout)))
    assert weak_divergence_norm(system, zero) == 0.0


def test_cavity_run_and_divergence_never_sum_the_entries(tmp_path, monkeypatch):
    pins = (False, True)
    plain = [
        run_driven_cavity(5, 6, out_path=tmp_path / "p.vtu", pin_pressure=pin).summary_line
        for pin in pins
    ]

    def refusing(what):
        def refuse(*args, **kwargs):
            raise AssertionError(f"the cavity called {what}")

        return refuse

    # neither summed entries nor a per-key lookup on the cavity path
    for owner, name in [
        (SparseSystem, "_sum"),
        (SparseSystem, "set_row_to_identity"),
        (NestedVector, "__getitem__"),
        (NestedVector, "__setitem__"),
        (GlobalBasis, "leaf_dof_index"),
        (StructuredGrid, "locate"),  # the entry point of evaluate_discrete
    ]:
        monkeypatch.setattr(owner, name, refusing(f"{owner.__name__}.{name}"))
    for pin, line in zip(pins, plain):
        summary = run_driven_cavity(5, 6, out_path=tmp_path / "c.vtu", pin_pressure=pin)
        assert summary.converged
        assert summary.summary_line == line
    basis, system, rhs = prepared_cavity_system(5, 6)
    assert math.isfinite(weak_divergence_norm(system, rhs))


def test_cavity_run_builds_no_layout_keys(tmp_path, monkeypatch):
    pins = (False, True)
    grids = [(5, 6), (9, 7)]
    plain = {
        (n, pin): run_driven_cavity(*n, out_path=tmp_path / "p.vtu", pin_pressure=pin).summary_line
        for n in grids
        for pin in pins
    }
    built = []
    new = MultiIndex.__new__

    def counted(cls, digits=()):
        built.append(tuple(digits))
        return new(cls, digits)

    monkeypatch.setattr(MultiIndex, "__new__", counted)
    counts = []
    for n in grids:
        for pin in pins:
            built.clear()
            summary = run_driven_cavity(*n, out_path=tmp_path / "c.vtu", pin_pressure=pin)
            assert summary.summary_line == plain[n, pin]
            assert len(summary.basis.layout) == summary.dimension
            # only the empty keys of the NestedVector() placeholders
            assert built == [()] * len(built)
            counts.append(len(built))
    assert max(counts) <= 2
    assert len(set(counts)) == 1  # no key per degree of freedom


def test_cavity_and_masked_interpolation_never_import_numpy_ma(tmp_path):
    """numpy.ma loads lazily (np.unique imports it) and costs peak memory."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from fembasis import (
            NestedVector, StructuredGrid, interpolate_masked, make_basis, parse_tree,
            run_driven_cavity,
        )
        if "numpy.ma" in sys.modules:
            sys.exit("importing numpy and fembasis already loads numpy.ma")
        run_driven_cavity(4, 4, out_path=sys.argv[1])
        basis = make_basis(StructuredGrid(3, 2), parse_tree("power(lagrange(2),2)"))
        v, mask = NestedVector(), NestedVector()
        v.resize_from_basis(basis)
        mask.resize_from_basis(basis, fill=False)
        mask.values[np.random.default_rng(3).random(basis.dimension()) < 0.5] = True
        interpolate_masked(basis, v, lambda p: (p[0], p[1]), mask)
        if "numpy.ma" in sys.modules:
            sys.exit("the cavity path imported numpy.ma")
        """
    )
    src = os.path.dirname(os.path.dirname(fembasis.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "c.vtu")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cavity_run_invariants(tmp_path):
    out = tmp_path / "cavity.vtu"
    summary = run_driven_cavity(2, 2, out_path=str(out))
    assert summary.dimension == 2 * 25 + 9
    assert summary.converged
    assert summary.rel_residual <= 1e-8
    assert summary.divergence_norm <= 1e-6 * summary.rhs_norm
    assert out.exists()

    # left wall velocity stays bitwise at the boundary data
    for j in range(5):
        assert summary.solution[(0, 5 * j, 0)] == 0.0
        assert summary.solution[(0, 5 * j, 1)] == 1.0

    line = summary.summary_line
    assert line.startswith(f"dim={summary.dimension} iters={summary.iterations} ")
    assert "relres=" in line and "div=" in line


def test_cavity_iteration_budget_respected(tmp_path):
    # the free 2x2 run takes 3 iterations; a budget of 2 runs out
    cfg = SolverConfig(max_iterations=2, tolerance=1e-8)
    summary = run_driven_cavity(2, 2, config=cfg, out_path=str(tmp_path / "c.vtu"))
    assert summary.iterations == 2
    assert not summary.converged
    assert summary.stop == "budget"
    assert len(summary.residuals) == 2


def test_cavity_stage_times_add_up_to_the_total(tmp_path):
    summary = run_driven_cavity(16, 16, out_path=str(tmp_path / "c.vtu"))
    stages = dict(summary.stage_seconds)
    total = stages.pop("total")
    assert list(stages) == [
        "basis", "assemble", "dirichlet", "freeze", "solve", "divergence", "vtu"
    ]
    assert min(stages.values()) >= 0.0
    assert 0.9 * total <= sum(stages.values()) <= total


def test_cavity_solve_split_adds_up_to_the_solve_stage(tmp_path):
    summary = run_driven_cavity(16, 16, out_path=str(tmp_path / "c.vtu"))
    split = summary.solve_seconds
    assert list(split) == ["matvec", "precondition", "krylov"]
    assert min(split.values()) > 0.0
    solve = summary.stage_seconds["solve"]
    assert 0.9 * solve <= sum(split.values()) <= solve


def test_cavity_solve_records_convergence(tmp_path):
    summary = run_driven_cavity(12, 12, out_path=str(tmp_path / "c.vtu"))
    assert summary.converged
    assert summary.stop == "converged"
    assert len(summary.residuals) == summary.iterations <= 15
    assert summary.residuals[-1] <= SolverConfig().tolerance < summary.residuals[0]


# -- the full-space reference: helpers.stokes_preconditioner --------------


def dense_matrix(system, slot):
    dense = np.zeros((len(slot), len(slot)))
    for r, c, v in system.triples():
        dense[slot[r], slot[c]] += v
    return dense


def q1_mass_matrix(nx, ny):
    """Q1 mass matrix by 2-D tensor Gauss quadrature, vertex j*(nx+1)+i."""
    x, w = np.polynomial.legendre.leggauss(2)
    x, w = (x + 1.0) / 2.0, w / 2.0
    hat = ((1.0 - x, w), (x, w))  # 1-D hats at the left and right vertex
    mass = np.zeros(((nx + 1) * (ny + 1),) * 2)
    for j in range(ny):
        for i in range(nx):
            nodes = [(j + b) * (nx + 1) + i + a for b in (0, 1) for a in (0, 1)]
            for qy in range(2):
                for qx in range(2):
                    phi = np.array(
                        [hat[b][0][qy] * hat[a][0][qx] for b in (0, 1) for a in (0, 1)]
                    )
                    weight = w[qx] * w[qy] / (nx * ny)
                    mass[np.ix_(nodes, nodes)] += weight * np.outer(phi, phi)
    return mass


def check_block_triangular_solve(basis, seed):
    """z = M^-1 v solves [K B^T; 0 -M_p] z = v on the rows it does not pass through.

    K and B^T are read off the dense assembled system, M_p is the
    independent Q1 quadrature oracle; identity rows must hold v bitwise.
    """
    nx, ny = basis.grid.nx, basis.grid.ny
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    system.freeze()
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    slot = rhs.layout.offset
    dense = dense_matrix(system, slot)
    side = 2 * nx + 1
    interior = [
        slot[basis.leaf_dof_index((0, k), jj * side + ii)]
        for k in range(2)
        for jj in range(1, 2 * ny)
        for ii in range(1, 2 * nx)
    ]
    pressure = [slot[basis.leaf_dof_index((1,), f)] for f in range((nx + 1) * (ny + 1))]
    k_int = dense[np.ix_(interior, interior)]
    coupling = dense[np.ix_(interior, pressure)]
    mass = q1_mass_matrix(nx, ny)
    boundary = np.setdiff1d(np.arange(len(slot)), interior + pressure)
    v = np.random.default_rng(seed).standard_normal(len(slot))
    z = stokes_preconditioner(basis)(v)
    velocity = k_int @ z[interior] + coupling @ z[pressure]
    assert np.max(np.abs(velocity - v[interior])) <= 1e-10
    assert np.max(np.abs(-mass @ z[pressure] - v[pressure])) <= 1e-10
    assert np.array_equal(z[boundary], v[boundary])


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 2)])
def test_preconditioner_blocks_against_oracles(nx, ny):
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    check_block_triangular_solve(basis, seed=89)


@pytest.mark.parametrize("column", range(len(TABLE1_COLUMNS)), ids=[c[0] for c in TABLE1_COLUMNS])
def test_preconditioner_blocks_under_every_numbering(column):
    _, basis = strategy_table_bases(StructuredGrid(4, 4), 2)[column]
    check_block_triangular_solve(basis, seed=column)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 64])
def test_preconditioned_cavity_converges_in_few_iterations(tmp_path, n):
    summary = run_driven_cavity(n, n, out_path=str(tmp_path / "c.vtu"))
    assert summary.converged
    assert summary.iterations <= 15
    assert summary.rel_residual <= 1e-8


def test_preconditioned_cavity_keeps_every_wall_bitwise(tmp_path):
    nx = ny = 8
    summary = run_driven_cavity(nx, ny, out_path=str(tmp_path / "c.vtu"))
    side = 2 * nx + 1
    checked = 0
    for jj in range(2 * ny + 1):
        for ii in range(side):
            if 0 < ii < 2 * nx and 0 < jj < 2 * ny:
                continue
            data = driven_cavity_data((ii / (2 * nx), jj / (2 * ny)))
            for k in range(2):
                mi = summary.basis.leaf_dof_index((0, k), jj * side + ii)
                assert summary.solution[mi] == data[k]
                checked += 1
    assert checked == 2 * (side * side - (side - 2) ** 2)


@pytest.mark.parametrize("nx,ny", [(4, 4), (8, 8), (16, 16), (64, 64), (5, 7)])
def test_preconditioned_cavity_with_pinned_pressure(tmp_path, nx, ny):
    """A pinned run is the free run, its pressure shifted to 0 at node (0, 0)."""
    free = run_driven_cavity(nx, ny, out_path=tmp_path / "free.vtu")
    pinned = run_driven_cavity(nx, ny, out_path=tmp_path / "pinned.vtu", pin_pressure=True)
    assert pinned.iterations == free.iterations
    assert pinned.divergence_norm == free.divergence_norm
    x, x_free = pinned.solution.values, free.solution.values
    pressure = pinned.basis.node_grid((1,))
    pinned_slot = pressure[0, 0]
    assert x[pinned_slot] == 0.0
    velocity = np.setdiff1d(np.arange(x.size), pressure)
    assert x[velocity].tobytes() == x_free[velocity].tobytes()
    assert x[pressure].tobytes() == (x_free[pressure] - x_free[pinned_slot]).tobytes()

    # the pinned system: the free one with the pinned slot's row an identity row, rhs 0
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    system.set_rows_to_identity(basis.layout, [pinned_slot])
    rhs.values[pinned_slot] = 0.0
    system.freeze()
    residual = rhs.values - system.operator(rhs.layout)(x)
    relres = np.linalg.norm(residual) / np.linalg.norm(rhs.values)
    assert pinned.converged
    assert pinned.rel_residual <= SolverConfig().tolerance
    assert math.isclose(pinned.rel_residual, relres, rel_tol=1e-12, abs_tol=0.0)


def test_preconditioned_solve_agrees_across_numberings():
    nx = ny = 4
    grid = StructuredGrid(nx, ny)
    fields = []
    for label, basis in strategy_table_bases(grid, 2):
        system = SparseSystem()
        assemble_stokes_matrix(basis, system)
        rhs = NestedVector()
        rhs.resize_from_basis(basis)
        apply_dirichlet(system, rhs, basis)
        system.freeze()
        solution, relres, iters = solve_system(
            system,
            rhs,
            SolverConfig(),
            x0=rhs,
            preconditioner=stokes_preconditioner(basis),
        )
        assert relres <= 1e-8, label
        velocity = [
            solution[basis.leaf_dof_index((0, k), 2 * j * (2 * nx + 1) + 2 * i)]
            for j in range(ny + 1)
            for i in range(nx + 1)
            for k in range(2)
        ]
        pressure = [solution[basis.leaf_dof_index((1,), f)] for f in range(grid.num_vertices)]
        fields.append(np.array(velocity + pressure))
    assert len(fields) == len(TABLE1_COLUMNS)
    for field in fields[1:]:
        assert np.max(np.abs(field - fields[0])) <= 1e-6


# -- the solve in the pressure space ------------------------------------------

ORACLE_GRIDS = [(1, 1), (2, 1), (5, 7), (16, 16), (3, 97)]
DENSE_GRIDS = ORACLE_GRIDS[:3]


def full_space_solution(basis, system, rhs, pin):
    """The cavity by full-space GMRes, right-preconditioned by [K B^T; 0 -M_p]."""
    solution, relres, _ = solve_system(
        system, rhs, x0=rhs, preconditioner=stokes_preconditioner(basis)
    )
    assert relres <= SolverConfig().tolerance
    x = solution.values
    if pin:
        pressure = basis.node_grid((1,))
        x[pressure] -= x[pressure[0, 0]]
    return x


@pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_pressure_space_solve_agrees_with_the_full_space_and_direct_solves(tmp_path, nx, ny, pin):
    summary = run_driven_cavity(nx, ny, out_path=tmp_path / "c.vtu", pin_pressure=pin)
    assert summary.converged
    x = summary.solution.values
    basis, system, rhs = prepared_cavity_system(nx, ny)
    expected = full_space_solution(basis, system, rhs, pin)
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))
    if (nx, ny) not in DENSE_GRIDS:
        return
    # solved to round-off, against a dense least-squares solve of the consistent system:
    # the velocity is unique; the pressure is unique up to a constant from 2x1 up, and on
    # 1x1 up to more than that, so there it is checked through the residual alone
    tight = SolverConfig(tolerance=1e-14)
    x = run_driven_cavity(nx, ny, tight, tmp_path / "t.vtu", pin_pressure=pin).solution.values
    dense = dense_matrix(system, rhs.layout.offset)
    direct = np.linalg.lstsq(dense, rhs.values, rcond=None)[0]
    scale = np.max(np.abs(direct))
    pressure = basis.node_grid((1,))
    velocity = np.setdiff1d(np.arange(x.size), pressure)
    assert np.max(np.abs(x[velocity] - direct[velocity])) <= 1e-12 * scale
    assert np.linalg.norm(rhs.values - dense @ x) <= 1e-13 * np.linalg.norm(rhs.values)
    if (nx, ny) != (1, 1):
        shifted = x[pressure] - x[pressure[0, 0]] + direct[pressure[0, 0]]
        assert np.max(np.abs(shifted - direct[pressure])) <= 1e-12 * scale


@pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("nx,ny", [(2, 1), (5, 7), (12, 12)])
def test_pressure_space_solve_keeps_the_data_and_reports_the_whole_system(tmp_path, nx, ny, pin):
    summary = run_driven_cavity(nx, ny, out_path=tmp_path / "c.vtu", pin_pressure=pin)
    basis, system, rhs = prepared_cavity_system(nx, ny)
    x = summary.solution.values
    ring = boundary_offsets(subspace_basis(basis, (0,)))
    assert x[ring].tobytes() == rhs.values[ring].tobytes()
    assert summary.divergence_norm == weak_divergence_norm(system, summary.solution)
    tol = SolverConfig().tolerance
    assert summary.residuals[-1] <= tol and summary.rel_residual <= tol
    # the history is scaled to ||b||: where the residual is above round-off, its last
    # entry is the whole system's true relres, which a free run reports
    if not pin and summary.rel_residual > 1e-12:
        assert math.isclose(summary.residuals[-1], summary.rel_residual, rel_tol=1e-4)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (6, 9)])
def test_pressure_space_solve_reproduces_a_linear_flow_through_the_walls(nx, ny):
    """u = (2x + y, 3x - 2y + 1) is divergence-free and harmonic: with its wall values the
    Stokes solution is u itself and a constant pressure, 0 from a zero start.  Unlike the
    cavity's, these wall values carry flux through the walls, so the pressure rows'
    right hand side h is not zero."""
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis, lambda p: (2 * p[0] + p[1], 3 * p[0] - 2 * p[1] + 1))
    system.freeze()
    config = SolverConfig(tolerance=1e-13)
    solution, relres, _ = solve_stokes(basis, system, rhs, config)
    x = solution.values
    assert relres <= config.tolerance
    flow = NestedVector()
    flow.resize_from_basis(basis)
    interpolate(basis, flow, lambda p: [[2 * p[0] + p[1], 3 * p[0] - 2 * p[1] + 1], 0.0])
    assert np.max(np.abs(x - flow.values)) <= 1e-11


def test_pressure_space_solve_takes_one_iteration_fewer_than_the_full_space(tmp_path):
    for n in (4, 8, 12, 16, 32, 64):  # the README's grids
        summary = run_driven_cavity(n, n, out_path=tmp_path / "c.vtu")
        basis, system, rhs = prepared_cavity_system(n, n)
        _, _, full = solve_system(system, rhs, x0=rhs, preconditioner=stokes_preconditioner(basis))
        assert summary.iterations == full - 1


def test_pressure_space_solve_shows_a_system_off_its_contract_only_in_relres():
    """The solve takes its blocks from the grid, not from the system: a changed entry
    leaves GMRes converged on the Schur complement, and only the true relres shows it."""
    basis = make_basis(StructuredGrid(8, 8), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    node = basis.leaf_dof_index((0, 0), 3 * (2 * 8 + 1) + 3)  # interior node (3, 3)
    system.add_to_entry(node, node, 0.5)
    system.freeze()
    record = {}
    _, relres, _ = solve_stokes(basis, system, rhs, record=record)
    assert record["stop"] == "converged"
    assert relres > 100 * SolverConfig().tolerance


def test_pressure_space_solve_checks_its_inputs():
    basis = make_basis(StructuredGrid(3, 2), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    with pytest.raises(NotFrozen):
        solve_stokes(basis, system, rhs)
    system.freeze()
    # the same tree under another numbering: the same slots, other keys
    _, other = strategy_table_bases(basis.grid, 2)[-1]
    with pytest.raises(ShapeMismatch):
        solve_stokes(other, system, rhs)
    for tree in ["power(lagrange(2),2)", "composite(power(lagrange(1),2),lagrange(1))"]:
        with pytest.raises(ValueError):
            solve_stokes(make_basis(basis.grid, parse_tree(tree)), system, rhs)


def test_taylor_hood_functions_find_the_velocity_where_apply_dirichlet_does():
    """Velocity leaves below root child 0, the pressure leaf at root child 1, nothing else."""
    message = "velocity at root child 0, a pressure leaf at root child 1"
    for tree in [
        "composite(lagrange(2),lagrange(2),lagrange(1))",
        "composite(power(lagrange(2),2),power(lagrange(1),1))",
    ]:
        basis = make_basis(StructuredGrid(3, 2), parse_tree(tree))
        system, rhs = SparseSystem(), NestedVector()
        rhs.resize_from_basis(basis)
        with pytest.raises(ValueError, match=message):
            assemble_stokes_matrix(basis, system)
        with pytest.raises(ValueError, match=message):
            apply_dirichlet(system, rhs, basis)
        system.freeze()
        with pytest.raises(ValueError, match=message):
            solve_stokes(basis, system, rhs)

    # one velocity subtree of two leaves numbers and solves like the blocked power
    solutions = []
    for velocity in ["composite(lagrange(2),lagrange(2))", "power(lagrange(2),2,BL)"]:
        basis = make_basis(StructuredGrid(8, 8), parse_tree(f"composite({velocity},lagrange(1))"))
        system = SparseSystem()
        assemble_stokes_matrix(basis, system)
        rhs = NestedVector()
        rhs.resize_from_basis(basis)
        apply_dirichlet(system, rhs, basis)
        system.freeze()
        solution, relres, iterations = solve_stokes(basis, system, rhs)
        assert relres <= 1e-8 and iterations == 12
        solutions.append((basis.layout.keys, solution.values.tobytes()))
    assert solutions[0] == solutions[1]


def test_dirichlet_writes_nothing_when_a_check_fails():
    """Data that does not fit the velocity, or a system it cannot write, raises before any write."""
    # passes the shape check: a scalar velocity at (0,), a pressure leaf at (1,)
    scalar = make_basis(StructuredGrid(2, 2), parse_tree("power(lagrange(2),2)"))
    system, rhs = SparseSystem(), NestedVector()
    rhs.resize_from_basis(scalar, fill=3.0)
    with pytest.raises(ShapeMismatch):
        apply_dirichlet(system, rhs, scalar)  # the cavity's data is a pair
    system.freeze()
    assert list(system.triples()) == []  # no identity row
    assert (rhs.values == 3.0).all()

    basis = make_basis(StructuredGrid(2, 2), taylor_hood_tree())
    system, rhs = SparseSystem(), NestedVector()
    assemble_stokes_matrix(basis, system)
    system.freeze()
    triples = list(system.triples())
    rhs.resize_from_basis(basis, fill=3.0)
    with pytest.raises(AlreadyFrozen):
        apply_dirichlet(system, rhs, basis)
    assert list(system.triples()) == triples
    assert (rhs.values == 3.0).all()

    other = SparseSystem()
    assemble_stokes_matrix(make_basis(StructuredGrid(2, 2), taylor_hood_tree()), other)
    with pytest.raises(ShapeMismatch, match="another layout"):
        apply_dirichlet(other, rhs, basis)
    assert (rhs.values == 3.0).all()


@pytest.mark.parametrize("where", ["identity row", "rhs", "system"])
def test_pressure_space_solve_names_a_non_finite_rhs_or_system(where):
    basis = make_basis(StructuredGrid(3, 2), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    keys = basis.layout.keys
    inner, ring = basis.node_grid((0, 0))[1, 1], basis.node_grid((0, 0))[0, 0]
    system.add_to_entry(keys[ring], keys[inner], math.nan)  # in an identity row: zeroed
    if where == "system":
        system.add_to_entry(keys[inner], keys[ring], math.nan)
    system.freeze()
    if where == "rhs":
        rhs.values[basis.node_grid((1,))[1, 2]] = math.nan
    if where == "identity row":
        assert solve_stokes(basis, system, rhs)[1] <= 1e-8
    else:
        with pytest.raises(ValueError, match="not finite: the rhs or the system") as error:
            solve_stokes(basis, system, rhs)
        assert "tol" not in str(error.value)


def solved_cavity(basis):
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    system.freeze()
    solution, relres, _ = solve_stokes(basis, system, rhs)
    assert relres <= 1e-8
    return system, solution


def vertex_fields(basis, solution):
    """Velocity components and pressure at every grid vertex."""
    values = solution.values
    velocity = [values[basis.node_grid((0, k))[::2, ::2]] for k in range(2)]
    return np.stack(velocity + [values[basis.node_grid((1,))]])


@pytest.mark.parametrize("column", range(len(TABLE1_COLUMNS)), ids=[c[0] for c in TABLE1_COLUMNS])
def test_weak_divergence_norm_under_every_numbering(column):
    grid = StructuredGrid(4, 4)
    _, basis = strategy_table_bases(grid, 2)[column]
    system, solution = solved_cavity(basis)
    reference_basis = make_basis(grid, taylor_hood_tree())
    _, reference = solved_cavity(reference_basis)
    fields = vertex_fields(basis, solution)
    assert np.max(np.abs(fields - vertex_fields(reference_basis, reference))) <= 1e-6

    # the divergence rows are the pressure rows
    pressure = basis.node_grid((1,)).ravel()
    zero_diagonal = np.flatnonzero(system.diagonal(solution.layout) == 0.0)
    assert np.array_equal(zero_diagonal, np.sort(pressure))
    norm = weak_divergence_norm(system, solution)
    expected = np.linalg.norm(system.matvec(solution).values[pressure])
    assert math.isclose(norm, expected, rel_tol=1e-12, abs_tol=0.0)
    assert norm <= 1e-6


def _g(t):
    """g(t) = t^2 (1-t)^2 and its first three derivatives."""
    return t**2 * (1 - t) ** 2, 2 * t * (1 - t) * (1 - 2 * t), 2 - 12 * t + 12 * t**2, 24 * t - 12


def exact_velocity(x, y):
    """curl of psi = g(x) g(y): divergence-free and zero with its gradient on the walls."""
    (gx, dgx, _, _), (gy, dgy, _, _) = _g(x), _g(y)
    return gx * dgy, -dgx * gy


def exact_pressure(x, y):
    return x**3 + y**3 - 0.5  # zero mean on the unit square


def manufactured_load(basis):
    """Velocity rows of f = -lap(u) - grad(p) tested with the Q2 shape functions.

    3x3 Gauss points per element, the rule of assemble_element_matrix;
    the pressure rows stay 0 (div u = 0).
    """
    grid = basis.grid
    points, weights = tensor_rule(3)
    j, i = np.divmod(np.arange(grid.num_elements), grid.nx)  # element e = j*nx + i
    x = (i[:, None] + points[:, 0]) * grid.hx
    y = (j[:, None] + points[:, 1]) * grid.hy
    (gx, dgx, d2gx, d3gx), (gy, dgy, d2gy, d3gy) = _g(x), _g(y)
    force = (-(d2gx * dgy + gx * d3gy) - 3 * x**2, d3gx * gy + dgx * d2gy - 3 * y**2)
    shapes = np.array([LagrangeQk(2).values(point) for point in points])
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    offsets = basis.element_offsets()
    for k, f in enumerate(force):  # velocity leaf k holds local functions k*NV .. (k+1)*NV-1
        loads = (f * weights * grid.hx * grid.hy) @ shapes
        np.add.at(rhs.values, offsets[:, k * NV : (k + 1) * NV], loads)
    return rhs


def manufactured_errors(n, tree):
    """L2 errors of velocity and of pressure modulo its mean on an n-by-n grid."""
    basis = make_basis(StructuredGrid(n, n), tree)
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = manufactured_load(basis)
    apply_dirichlet(system, rhs, basis, boundary_values=lambda p: exact_velocity(*p))
    system.freeze()
    config = SolverConfig(tolerance=1e-12)
    solution, relres, _ = solve_stokes(basis, system, rhs, config)
    assert relres <= 1e-12

    points, weights = tensor_rule(4)  # one order above the 3x3 rule, off its Gauss points
    velocity, pressure, area = [], [], []
    for e in range(basis.grid.num_elements):
        i, j = basis.grid.cell_coords(e)
        for (xi, eta), w in zip(points, weights):
            x, y = (i + xi) / n, (j + eta) / n
            (ux, uy), p = evaluate_discrete(basis, solution, (x, y))
            ex, ey = exact_velocity(x, y)
            velocity.append((ux - ex) ** 2 + (uy - ey) ** 2)
            pressure.append(p - exact_pressure(x, y))
            area.append(w / n**2)
    area, pressure = np.array(area), np.array(pressure)
    pressure -= area @ pressure
    return math.sqrt(area @ velocity), math.sqrt(area @ pressure**2)


def check_taylor_hood_rates(tree):
    errors = np.array([manufactured_errors(n, tree) for n in (4, 8, 16, 32)])
    rates = np.log2(errors[:-1] / errors[1:])
    assert np.all(rates[-2:, 0] >= 2.7), rates  # Q2 velocity: O(h^3)
    assert np.all(rates[-2:, 1] >= 1.7), rates  # Q1 pressure: O(h^2)


def test_manufactured_solution_converges_at_the_taylor_hood_rates():
    check_taylor_hood_rates(taylor_hood_tree())


def test_manufactured_solution_converges_under_fl_fi():
    """The most scrambled Table 1 numbering: flat outer, flat interleaved velocity."""
    label, outer, inner = TABLE1_COLUMNS[-1]
    assert label == "FL(FI)"
    check_taylor_hood_rates(Composite((Power(Leaf(2), 2, inner), Leaf(1)), outer))
