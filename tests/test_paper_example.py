"""The paper's complete example, run as written: Taylor-Hood Stokes through the multi-index API.

Every entry goes in through ``add_to_entry`` on the multi-indices of a bound
local view, and every boundary row through ``set_row_to_identity``; the
system is solved by :func:`solve_stokes`, as the batched cavity of
:func:`run_driven_cavity` is.  That batched cavity, which the
manufactured-solution tests check against the PDE, is the oracle, under
the default BL(BI) numbering and under the most scrambled Table 1 one,
FL(FI).
"""

import xml.etree.ElementTree as ET

import numpy as np

from fembasis import (
    Composite,
    Leaf,
    NestedVector,
    Power,
    SolverConfig,
    SparseSystem,
    Strategy,
    StructuredGrid,
    apply_dirichlet,
    assemble_element_matrix,
    assemble_stokes_matrix,
    driven_cavity_data,
    evaluate_discrete,
    for_each_boundary_dof,
    interpolate_masked,
    make_basis,
    run_driven_cavity,
    solve_stokes,
    subspace_basis,
    taylor_hood_tree,
    write_vtu,
)


def vtu_values(path):
    """Every DataArray of a VTU file as floats, by name."""
    piece = ET.parse(path).getroot().find("./UnstructuredGrid/Piece")
    return {da.get("Name"): np.array(da.text.split(), dtype=float) for da in piece.iter("DataArray")}


FL_FI = Composite(
    (Power(Leaf(2), 2, Strategy.FLAT_INTERLEAVED), Leaf(1)), Strategy.FLAT_LEXICOGRAPHIC
)


def check_the_paper_example(tmp_path, tree):
    reference = run_driven_cavity(8, 8, out_path=tmp_path / "batched.vtu")
    grid = StructuredGrid(8, 8)
    basis = make_basis(grid, tree)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    system = SparseSystem(rhs.layout)

    view = basis.local_view()
    for element in range(grid.num_elements):
        view.bind(element)
        matrix = assemble_element_matrix(view)
        indices = view.multi_indices()
        for i, row in enumerate(indices):
            for j, col in enumerate(indices):
                system.add_to_entry(row, col, matrix[i, j])

    velocity = subspace_basis(basis, (0,))
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)

    def fix(index):
        system.set_row_to_identity(index)
        mask[index] = True

    for_each_boundary_dof(velocity, fix)
    interpolate_masked(velocity, rhs, driven_cavity_data, mask)
    system.freeze()

    config = SolverConfig()
    solution, relres, iterations = solve_stokes(basis, system, rhs, config)
    assert iterations == reference.iterations == 12
    assert relres <= config.tolerance

    batched = SparseSystem()
    assemble_stokes_matrix(basis, batched)
    batched_rhs = NestedVector()
    batched_rhs.resize_from_basis(basis)
    apply_dirichlet(batched, batched_rhs, basis)
    batched.freeze()
    assert np.array_equal(rhs.values, batched_rhs.values)
    x = NestedVector.from_flat(rhs.layout, np.random.default_rng(83).normal(size=len(rhs.layout)))
    expected = batched.matvec(x).values
    assert np.max(np.abs(system.matvec(x).values - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(system.diagonal(rhs.layout), batched.diagonal(rhs.layout))

    points = [(i / grid.nx, j / grid.ny) for j in range(grid.ny + 1) for i in range(grid.nx + 1)]
    pressure = subspace_basis(basis, (1,))
    write_vtu(
        grid,
        np.array([evaluate_discrete(velocity, solution, p) for p in points]),
        np.array([evaluate_discrete(pressure, solution, p) for p in points]),
        tmp_path / "paper.vtu",
    )
    written, expected = vtu_values(tmp_path / "paper.vtu"), vtu_values(tmp_path / "batched.vtu")
    assert written.keys() == expected.keys()
    for name, values in expected.items():
        assert np.max(np.abs(written[name] - values), initial=0.0) <= 1e-12, name


def test_the_paper_example_solves_the_batched_cavity(tmp_path):
    check_the_paper_example(tmp_path, taylor_hood_tree())


def test_the_paper_example_solves_the_batched_cavity_under_fl_fi(tmp_path):
    """The most scrambled Table 1 numbering: flat outer, flat interleaved velocity."""
    check_the_paper_example(tmp_path, FL_FI)
