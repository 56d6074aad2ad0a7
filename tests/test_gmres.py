"""Iterative solver checked against a hand-rolled dense direct solve."""

import numpy as np
import pytest
from helpers import gauss_solve

from fembasis import (
    NestedVector,
    NotFrozen,
    ShapeMismatch,
    SolverConfig,
    SparseSystem,
    StructuredGrid,
    gmres,
    make_basis,
    parse_tree,
    solve_system,
)


def test_identity_system_one_iteration():
    matvec = lambda v: v
    b = np.array([1.0, -2.0, 3.0])
    x, relres, iters = gmres(matvec, b, restart=10, tol=1e-12, maxiter=50)
    assert np.allclose(x, b, atol=1e-12)
    assert relres <= 1e-12
    assert iters <= 2


def test_zero_rhs_returns_zero_without_iterating():
    matvec = lambda v: 2.0 * v
    record = {}
    x, relres, iters = gmres(matvec, np.zeros(5), restart=5, tol=1e-10, maxiter=10, record=record)
    assert np.array_equal(x, np.zeros(5))
    assert relres == 0.0
    assert iters == 0
    assert record == {"stop": "converged", "residuals": []}


def test_diagonal_system():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    x, relres, iters = gmres(lambda v: d * v, np.ones(4), restart=4, tol=1e-12, maxiter=20)
    assert np.max(np.abs(x - 1.0 / d)) <= 1e-12


def test_spd_system_converges():
    rng = np.random.default_rng(67)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x, relres, iters = gmres(lambda v: a @ v, b, restart=12, tol=1e-10, maxiter=100)
    assert relres <= 1e-10
    assert np.max(np.abs(a @ x - b)) <= 1e-8


def test_random_systems_match_direct_solve():
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = rng.standard_normal((20, 20))
        a = m + 20 * np.eye(20)  # diagonally dominant, well conditioned
        b = rng.standard_normal(20)
        expected = gauss_solve(a, b)
        x, relres, iters = gmres(lambda v: a @ v, b, restart=20, tol=1e-12, maxiter=200)
        assert np.max(np.abs(x - expected)) <= 1e-7


def test_small_restart_still_converges():
    rng = np.random.default_rng(73)
    m = rng.standard_normal((15, 15))
    a = m @ m.T + 15 * np.eye(15)
    b = rng.standard_normal(15)
    x, relres, iters = gmres(lambda v: a @ v, b, restart=3, tol=1e-9, maxiter=500)
    assert relres <= 1e-9
    assert np.max(np.abs(a @ x - b)) <= 1e-7


def test_maxiter_exhaustion_is_reported():
    rng = np.random.default_rng(79)
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 0.01 * np.eye(30)  # ill conditioned on purpose
    b = rng.standard_normal(30)
    record = {}
    x, relres, iters = gmres(lambda v: a @ v, b, restart=5, tol=1e-14, maxiter=8, record=record)
    assert iters == 8
    assert relres > 1e-14
    assert record["stop"] == "budget" and len(record["residuals"]) == 8


def test_arnoldi_keeps_orthogonality_on_an_ill_conditioned_system():
    # condition 1e10 over 80 iterations in one cycle: one Gram-Schmidt pass
    # loses orthogonality and stops above 1e-4, two passes reach below 1e-6
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        a = q @ np.diag(np.logspace(0, 10, 80)) @ q.T + np.triu(rng.standard_normal((80, 80)), 1)
        b = rng.standard_normal(80)
        _, relres, _ = gmres(lambda v: a @ v, b, restart=80, tol=1e-12, maxiter=85)
        assert relres <= 1e-5


def test_stall_on_a_singular_inconsistent_system_stops_early():
    # the third equation reads 0 = 1: the least residual is 1 / sqrt(3)
    d = np.array([1.0, 2.0, 0.0])
    maxiter = 1000
    record = {}
    x, relres, iters = gmres(
        lambda v: d * v, np.ones(3), restart=10, maxiter=maxiter, record=record
    )
    assert iters < maxiter
    assert relres == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert record["stop"] == "stalled"
    assert len(record["residuals"]) == iters
    # a near-breakdown ends the cycle: the null component of x stays bounded
    # and the estimate never leaves [least residual, initial residual]
    assert x[:2] == pytest.approx([1.0, 0.5], rel=1e-12)
    assert abs(x[2]) <= 10.0
    least = (1.0 - 1e-12) / np.sqrt(3.0)
    assert all(least <= r <= 1.0 for r in record["residuals"])


def test_initial_guess_is_used():
    d = np.array([2.0, 3.0])
    exact = np.array([0.5, 1.0 / 3.0])
    x, relres, iters = gmres(
        lambda v: d * v, np.ones(2), restart=2, tol=1e-13, maxiter=10, x0=exact.copy()
    )
    assert np.max(np.abs(x - exact)) <= 1e-13
    assert iters == 0


def build_nested_system():
    basis = make_basis(StructuredGrid(1, 1), parse_tree("lagrange(1)"))
    system = SparseSystem(basis.layout)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    entries = {
        (0, 0): 4.0,
        (0, 1): 1.0,
        (1, 0): 1.0,
        (1, 1): 3.0,
        (2, 2): 2.0,
        (3, 3): 5.0,
    }
    for (r, c), value in entries.items():
        system.add_to_entry((r,), (c,), value)
    for i in range(4):
        rhs[(i,)] = float(i + 1)
    return basis, system, rhs


def test_solve_system_on_nested_vectors():
    basis, system, rhs = build_nested_system()
    system.freeze()
    config = SolverConfig(tolerance=1e-12, restart=10, max_iterations=50)
    solution, relres, iters = solve_system(system, rhs, config)
    a = np.array([[4.0, 1, 0, 0], [1, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 5]])
    expected = gauss_solve(a, [1.0, 2.0, 3.0, 4.0])
    got = np.array([value for _, value in solution.entries()])
    assert np.max(np.abs(got - expected)) <= 1e-10
    assert relres <= 1e-12


def test_solve_system_rejects_a_key_without_rhs_slot():
    _, system, rhs = build_nested_system()
    with pytest.raises(ShapeMismatch):
        system.add_to_entry((4,), (4,), 1.0)  # the Q1 basis on one cell has slots 0..3
    system.freeze()
    with pytest.raises(ShapeMismatch):
        solve_system(system, NestedVector([rhs.values.tolist()]), SolverConfig())  # other keys
    assert solve_system(system, rhs, SolverConfig())[1] <= 1e-8  # the failed add stored nothing


def test_solve_system_on_a_subset_of_the_rhs_layout():
    # rows 0 and 2 only: slots 1 and 3 have no entries, the rhs is zero there
    basis = make_basis(StructuredGrid(2, 2), parse_tree("lagrange(1)"))
    system = SparseSystem(basis.layout)
    used = [(3,), (7,)]
    a = np.array([[4.0, 1.0], [2.0, 5.0]])
    for i, row in enumerate(used):
        for j, col in enumerate(used):
            system.add_to_entry(row, col, a[i, j])
    system.freeze()
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    rhs[(3,)], rhs[(7,)] = 1.0, -2.0
    config = SolverConfig(tolerance=1e-13, restart=5, max_iterations=20)
    solution, relres, _ = solve_system(system, rhs, config)
    expected = gauss_solve(a, [1.0, -2.0])
    assert solution.layout is rhs.layout
    assert abs(solution[(3,)] - expected[0]) <= 1e-12
    assert abs(solution[(7,)] - expected[1]) <= 1e-12
    assert all(value == 0.0 for mi, value in solution.entries() if mi not in used)
    assert relres <= 1e-13


def test_solve_system_requires_frozen_matrix():
    basis, system, rhs = build_nested_system()
    with pytest.raises(NotFrozen):
        solve_system(system, rhs, SolverConfig())


def test_solver_config_defaults():
    config = SolverConfig()
    assert config.restart == 100
    assert config.max_iterations == 5000
    assert config.tolerance == 1e-8
    assert config.pin_pressure is False


def test_right_preconditioning_keeps_true_residual():
    rng = np.random.default_rng(83)
    n = 30
    a = rng.standard_normal((n, n)) + np.diag(n * 10.0 ** rng.uniform(0.0, 3.0, n))
    identity_rows = [0, 7, 19]
    a[identity_rows] = 0.0
    a[identity_rows, identity_rows] = 1.0
    b = rng.standard_normal(n)
    b[identity_rows] = 0.0
    diagonal = np.diag(a).copy()

    def matvec(v):
        return a @ v

    tol = 1e-10
    settings = dict(restart=n, tol=tol, maxiter=200)
    x, relres, iters = gmres(
        matvec, b, x0=b.copy(), precondition=lambda v: v / diagonal, **settings
    )
    _, plain_relres, plain_iters = gmres(matvec, b, x0=b.copy(), **settings)
    assert relres == pytest.approx(np.linalg.norm(b - a @ x) / np.linalg.norm(b), rel=1e-12)
    assert relres <= tol
    assert plain_relres <= tol
    assert iters < plain_iters
    for i in identity_rows:
        assert x[i] == 0.0 and not np.signbit(x[i])
