"""Each oracle accepts a correct input and rejects a corrupted one.

Inputs are built here from closed forms and the oracle module's own
reference assembly; no program code runs.
"""

import numpy as np
import pytest

import oracles


def _dirichlet_system(nx, ny):
    """Reference cavity matrix as summed COO with identity boundary rows."""
    layout, rows, cols, vals, b = oracles.reference_cavity_system(nx, ny)
    n = layout.dimension
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    pattern = np.zeros((n, n), dtype=bool)
    pattern[rows, cols] = True
    bnd, _ = layout.boundary_velocity()
    dense[bnd] = 0.0
    dense[bnd, bnd] = 1.0
    r, c = np.nonzero(pattern)
    return layout, r, c, dense[r, c], dense, b


def test_layout_counts_match_the_documented_sizes():
    assert oracles.TaylorHoodLayout(12, 12).dimension == 1419
    assert oracles.TaylorHoodLayout(12, 12).distinct_pairs == 53889
    big = oracles.TaylorHoodLayout(32, 32)
    assert big.dimension == 9539
    assert big.distinct_pairs == 377289
    assert len(big.boundary_velocity()[0]) == 512


def test_null_vector_check_rejects_a_perturbed_entry():
    layout, rows, cols, vals, _, _ = _dirichlet_system(3, 2)
    coeffs = (0.7, -0.2, -0.4, 0.9, 0.3)
    x = oracles.linear_field_vector(layout, coeffs)
    assert oracles.check_stokes_null_vector(layout, rows, cols, vals, x, coeffs) == []
    interior = np.flatnonzero((rows != cols) & (vals != 0.0))[7]
    bad = vals.copy()
    bad[interior] *= 1.0 + 1e-6
    assert oracles.check_stokes_null_vector(layout, rows, cols, bad, x, coeffs)


def test_null_vector_check_rejects_a_wrong_interpolant():
    layout, rows, cols, vals, _, _ = _dirichlet_system(2, 2)
    coeffs = (0.5, 0.1, -0.3, 0.2, -0.6)
    x = oracles.linear_field_vector(layout, coeffs)
    x[-1] += 1e-6
    assert oracles.check_stokes_null_vector(layout, rows, cols, vals, x, coeffs)


def test_cavity_check_accepts_a_solution_and_rejects_corruptions():
    system = oracles.reference_cavity_system(2, 2)
    layout, _, _, _, dense, b = _dirichlet_system(2, 2)
    x = np.linalg.lstsq(dense, b, rcond=None)[0]
    bnd, data = layout.boundary_velocity()
    x[bnd] = data
    assert oracles.check_cavity_solution(system, x, converged=True) == []
    assert oracles.check_cavity_solution(system, x, converged=False)
    boundary = x.copy()
    boundary[bnd[0]] += 1e-15
    assert oracles.check_cavity_solution(system, boundary, converged=True)
    interior = x.copy()
    interior[-1] += 1e-3
    assert oracles.check_cavity_solution(system, interior, converged=True)


def _table(n_nodes, components):
    return [(0, n, c) for n in range(n_nodes) for c in range(components)] + [
        (1, n) for n in range(n_nodes // 2)
    ]


def test_index_table_check_rejects_a_duplicated_multi_index():
    good = _table(10, 3)
    assert oracles.check_index_table(good, len(good)) == []
    duplicated = list(good)
    duplicated[4] = duplicated[5]
    assert oracles.check_index_table(duplicated, len(good))


@pytest.mark.parametrize(
    "entries",
    [
        [(0,), (0, 1), (1,)],  # an entry is also an inner node
        [(0, 0), (0, 2), (1,)],  # gap below (0,)
        [(1,), (2,)],  # root digits do not start at zero
    ],
)
def test_trie_rejects_invalid_index_trees(entries):
    assert not oracles.trie_is_index_tree(entries)


def test_trie_accepts_mixed_depths():
    assert oracles.trie_is_index_tree([(0, 0, 0), (0, 0, 1), (0, 1), (1,)])


def test_affine_check_rejects_a_wrong_evaluated_value():
    coeffs = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.5], [0.0, 2.0, 0.0], [-0.5, 0.0, 1.0]])
    points = [(0.25, 0.5), (0.9, 0.1), (0.0, 1.0)]
    exact = oracles.affine_values(coeffs, points)
    values = [[[float(v) for v in row[:3]], float(row[3])] for row in exact]
    assert oracles.check_affine_values(coeffs, points, values) == []
    values[1][0][2] += 1e-9
    assert oracles.check_affine_values(coeffs, points, values)


def test_vtu_check_rejects_a_wrong_vertex_value(tmp_path):
    nx = ny = 1
    layout = oracles.TaylorHoodLayout(nx, ny)
    x = np.arange(layout.dimension, dtype=float)
    velocity, pressure = [], []
    for v in range(4):
        node = 2 * (v // 2) * layout.row2 + 2 * (v % 2)
        velocity.append(f"{x[2 * node]:.17g} {x[2 * node + 1]:.17g} 0.0")
        pressure.append(f"{x[2 * layout.n2 + v]:.17g}")

    def write(vel):
        path = tmp_path / "f.vtu"
        path.write_text(
            '<VTKFile><UnstructuredGrid><Piece><PointData>'
            '<DataArray Name="velocity" NumberOfComponents="3">' + "\n".join(vel) + "</DataArray>"
            '<DataArray Name="pressure" NumberOfComponents="1">' + "\n".join(pressure) + "</DataArray>"
            "</PointData></Piece></UnstructuredGrid></VTKFile>"
        )
        return path

    assert oracles.check_vtu_vertices(write(velocity), nx, ny, x, layout, range(4)) == []
    velocity[3] = "0.0 0.0 0.0"
    assert oracles.check_vtu_vertices(write(velocity), nx, ny, x, layout, range(4))
