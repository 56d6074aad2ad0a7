"""Acceptance suite: the eight headline guarantees of the package.

Each test covers one criterion end to end at its stated tolerance and
prints a single verdict line (visible with ``pytest -s``); under
``pytest -v`` the test status itself is the pass/fail line.  Oracles here
are independent of the implementation: closed-form index formulas, a trie
rebuild of the index tree, finite differences, dense Gaussian elimination.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
from helpers import (
    enumerate_multi_indices,
    gauss_solve,
    prefix_degree_table,
    random_tree,
    trie_is_index_tree,
)

from fembasis import (
    NestedVector,
    SolverConfig,
    SparseSystem,
    Strategy,
    StructuredGrid,
    apply_dirichlet,
    assemble_stokes_matrix,
    driven_cavity_data,
    evaluate_discrete,
    for_each_boundary_dof,
    gmres,
    interpolate,
    interpolate_masked,
    lagrange_element,
    make_basis,
    parse_tree,
    run_driven_cavity,
    subspace_basis,
    taylor_hood_tree,
)
from fembasis.cli import strategy_table_bases

BL = Strategy.BLOCKED_LEXICOGRAPHIC
BI = Strategy.BLOCKED_INTERLEAVED
FL = Strategy.FLAT_LEXICOGRAPHIC
FI = Strategy.FLAT_INTERLEAVED


def verdict(n, text):
    print(f"PASS criterion {n}: {text}")


def expected_velocity(outer, inner, k, j, n2, components):
    if inner is BL:
        mi = (k, j)
    elif inner is BI:
        mi = (j, k)
    elif inner is FL:
        mi = (k * n2 + j,)
    else:
        mi = (components * j + k,)
    return (0,) + mi if outer is BL else mi


def expected_pressure(outer, inner, j, n2, components):
    if outer is BL:
        return (1, j)
    first_child_degree = {BL: components, BI: n2, FL: components * n2, FI: components * n2}
    return (first_child_degree[inner] + j,)


def test_criterion_1_strategy_table_closed_forms():
    start = time.monotonic()
    components = 3
    grid = StructuredGrid(4, 4)
    n2 = make_basis(grid, parse_tree("lagrange(2)")).dimension()
    n1 = make_basis(grid, parse_tree("lagrange(1)")).dimension()
    assert n2 == 81 and n1 == 25

    bases = strategy_table_bases(grid, components)
    assert len(bases) == 8
    strategies = {"BL": BL, "BI": BI, "FL": FL, "FI": FI}
    for label, basis in bases:
        outer = strategies[label[:2]]
        inner = strategies[label[3:5]]
        for k in range(components):
            for j in range(n2):
                got = basis.leaf_dof_index((0, k), j)
                assert got == expected_velocity(outer, inner, k, j, n2, components), (
                    label,
                    k,
                    j,
                )
        for j in range(n1):
            got = basis.leaf_dof_index((1,), j)
            assert got == expected_pressure(outer, inner, j, n2, components), (label, j)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(1, f"8 strategy columns match closed forms ({elapsed:.2f}s)")


def test_criterion_2_random_trees_index_properties():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for case in range(100):
        tree = random_tree(rng)
        nx = int(rng.integers(1, 5))
        ny = int(rng.integers(1, 5))
        basis = make_basis(StructuredGrid(nx, ny), tree)
        entries = enumerate_multi_indices(basis)
        assert trie_is_index_tree(entries), (case, tree)
        assert basis.dimension() == len(entries), (case, tree)
        table = prefix_degree_table(entries)
        for prefix, degree in table.items():
            assert basis.size(prefix) == degree, (case, tree, prefix)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    verdict(2, f"100 random trees: valid index trees, sizes agree ({elapsed:.2f}s)")


def test_criterion_3_shape_functions():
    rng = np.random.default_rng(103)
    h = 1e-5
    for order in (1, 2):
        fe = lagrange_element(order)
        # local index b*(k+1)+a sits at (a/k, b/k)
        nodes = [(a / order, b / order) for b in range(order + 1) for a in range(order + 1)]
        for m, node in enumerate(nodes):
            values = fe.values(node)
            expected = np.zeros(fe.count)
            expected[m] = 1.0
            assert np.max(np.abs(values - expected)) <= 1e-14
        worst_pu = 0.0
        worst_grad = 0.0
        for _ in range(100):
            p = rng.uniform(0.01, 0.99, size=2)
            worst_pu = max(worst_pu, abs(float(np.sum(fe.values(p))) - 1.0))
            grads = fe.gradients(p)
            fd = np.empty_like(grads)
            fd[:, 0] = (fe.values((p[0] + h, p[1])) - fe.values((p[0] - h, p[1]))) / (2 * h)
            fd[:, 1] = (fe.values((p[0], p[1] + h)) - fe.values((p[0], p[1] - h))) / (2 * h)
            worst_grad = max(worst_grad, float(np.max(np.abs(grads - fd))))
        assert worst_pu <= 1e-13
        assert worst_grad <= 1e-6
    verdict(3, "nodal Kronecker 1e-14, unity 1e-13, FD gradients 1e-6")


def test_criterion_4_interpolation_exactness():
    start = time.monotonic()
    basis = make_basis(StructuredGrid(3, 3), parse_tree("lagrange(2)"))
    v = NestedVector()
    v.resize_from_basis(basis)
    f = lambda p: p[0] ** 2 * p[1] ** 2
    interpolate(basis, v, f)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        p = (float(rng.random()), float(rng.random()))
        worst = max(worst, abs(evaluate_discrete(basis, v, p) - f(p)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    verdict(4, f"x^2 y^2 reproduced to {worst:.1e} at 100 points ({elapsed:.2f}s)")


def test_criterion_5_masked_interpolation_and_boundaries():
    grid = StructuredGrid(4, 4)
    for text, expected in [("lagrange(1)", 16), ("lagrange(2)", 32)]:
        seen = set()
        for_each_boundary_dof(make_basis(grid, parse_tree(text)), seen.add)
        assert len(seen) == expected

    th = make_basis(grid, taylor_hood_tree())
    velocity = subspace_basis(th, (0,))
    marked = set()
    for_each_boundary_dof(velocity, marked.add)
    assert len(marked) == 64

    sentinel = -7.5
    v = NestedVector()
    v.resize_from_basis(th, fill=sentinel)
    mask = NestedVector()
    mask.resize_from_basis(th, fill=False)
    for mi in marked:
        mask[mi] = True
    interpolate_masked(velocity, v, lambda p: (1.5, 2.5), mask)
    for mi, value in v.entries():
        if mi in marked:
            assert value == (1.5 if mi[2] == 0 else 2.5)
        else:
            assert value == sentinel  # bitwise untouched
    verdict(5, "boundary sets 16/32/64, unmasked slots bitwise intact")


def test_criterion_6_matrix_structure():
    basis = make_basis(StructuredGrid(4, 4), taylor_hood_tree())
    assert basis.dimension() == 187

    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    system.freeze()
    entries = {(row, col): value for row, col, value in system.triples()}
    for (row, col), value in entries.items():
        assert abs(value - entries[(col, row)]) <= 1e-12
        if row[0] == 1 and col[0] == 1:
            assert value == 0.0

    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis, driven_cavity_data)
    marked = set()
    for_each_boundary_dof(subspace_basis(basis, (0,)), marked.add)
    system.freeze()
    for row, col, value in system.triples():
        if row in marked:
            assert value == (1.0 if col == row else 0.0)

    samples = sorted(marked)[:3] + [(0, 31, 0), (1, 12)]
    for col_mi in samples:
        e = NestedVector.from_flat(rhs.layout, np.zeros(len(rhs.layout)))
        e[col_mi] = 1.0
        column = system.matvec(e)
        for row_mi in sorted(marked)[:3]:
            expected = 1.0 if row_mi == col_mi else 0.0
            assert column[row_mi] == expected
    verdict(6, "dim 187, symmetric pre-Dirichlet, identity rows after")


def test_criterion_7_driven_cavity(tmp_path):
    start = time.monotonic()
    out = tmp_path / "cavity.vtu"
    summary = run_driven_cavity(4, 4, out_path=str(out))
    elapsed = time.monotonic() - start

    assert summary.converged
    assert summary.iterations <= 5000
    assert summary.rel_residual <= 1e-8
    assert summary.divergence_norm <= 1e-6 * summary.rhs_norm

    root = ET.parse(out).getroot()
    piece = root.find("./UnstructuredGrid/Piece")
    assert piece.get("NumberOfPoints") == "25"
    arrays = {da.get("Name"): da.text.split() for da in piece.iter("DataArray")}
    velocity = [float(x) for x in arrays["velocity"]]
    for j in range(5):
        v = 5 * j  # left wall vertices of the 5x5 vertex grid
        assert velocity[3 * v : 3 * v + 3] == [0.0, 1.0, 0.0]

    center = evaluate_discrete(
        subspace_basis(summary.basis, (0,)), summary.solution, (0.5, 0.5)
    )
    assert math.isfinite(center[0]) and math.isfinite(center[1])
    assert elapsed < 10.0
    verdict(
        7,
        f"cavity relres={summary.rel_residual:.1e} div={summary.divergence_norm:.1e} "
        f"wall exact ({elapsed:.2f}s)",
    )


def test_criterion_8_solver_against_direct_oracle():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((20, 20))
        a = m + 20 * np.eye(20)
        b = rng.standard_normal(20)
        expected = gauss_solve(a, b)
        x, relres, iters = gmres(lambda v: a @ v, b, SolverConfig(20, 200, 1e-12))
        worst = max(worst, float(np.max(np.abs(x - expected))))
    assert worst <= 1e-7
    verdict(8, f"20 random systems vs direct solve, worst gap {worst:.1e}")
