"""Iterative solver checked against a hand-rolled dense direct solve."""

import importlib
import math

import numpy as np
import pytest
from helpers import gauss_solve, stokes_preconditioner

from fembasis import (
    NestedVector,
    NotFrozen,
    ShapeMismatch,
    SolverConfig,
    SparseSystem,
    StructuredGrid,
    apply_dirichlet,
    assemble_stokes_matrix,
    gmres,
    make_basis,
    parse_tree,
    solve_system,
    taylor_hood_tree,
)


def test_identity_system_one_iteration():
    matvec = lambda v: v
    b = np.array([1.0, -2.0, 3.0])
    x, relres, iters = gmres(matvec, b, SolverConfig(10, 50, 1e-12))
    assert np.allclose(x, b, atol=1e-12)
    assert relres <= 1e-12
    assert iters <= 2


def test_zero_rhs_returns_zero_without_iterating():
    matvec = lambda v: 2.0 * v
    record = {}
    x, relres, iters = gmres(matvec, np.zeros(5), SolverConfig(5, 10, 1e-10), record=record)
    assert np.array_equal(x, np.zeros(5))
    assert relres == 0.0
    assert iters == 0
    seconds = record.pop("seconds")
    assert record == {"stop": "converged", "residuals": []}
    assert list(seconds) == ["matvec", "precondition", "krylov"]
    assert seconds["matvec"] == seconds["precondition"] == 0.0 <= seconds["krylov"]


def test_diagonal_system():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    x, relres, iters = gmres(lambda v: d * v, np.ones(4), SolverConfig(4, 20, 1e-12))
    assert np.max(np.abs(x - 1.0 / d)) <= 1e-12


def test_spd_system_converges():
    rng = np.random.default_rng(67)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x, relres, iters = gmres(lambda v: a @ v, b, SolverConfig(12, 100, 1e-10))
    assert relres <= 1e-10
    assert np.max(np.abs(a @ x - b)) <= 1e-8


def test_random_systems_match_direct_solve():
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = rng.standard_normal((20, 20))
        a = m + 20 * np.eye(20)  # diagonally dominant, well conditioned
        b = rng.standard_normal(20)
        expected = gauss_solve(a, b)
        x, relres, iters = gmres(lambda v: a @ v, b, SolverConfig(20, 200, 1e-12))
        assert np.max(np.abs(x - expected)) <= 1e-7


def test_small_restart_still_converges():
    rng = np.random.default_rng(73)
    m = rng.standard_normal((15, 15))
    a = m @ m.T + 15 * np.eye(15)
    b = rng.standard_normal(15)
    x, relres, iters = gmres(lambda v: a @ v, b, SolverConfig(3, 500, 1e-9))
    assert relres <= 1e-9
    assert np.max(np.abs(a @ x - b)) <= 1e-7


def test_a_restart_below_one_is_rejected_before_any_work():
    calls = []
    for restart in (0, -1):
        with pytest.raises(ValueError, match=f"^restart must be >= 1, got {restart}$"):
            gmres(lambda v: calls.append(v) or 2.0 * v, np.ones(3), SolverConfig(restart, 10))
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("argument", ["b", "x0"])
def test_a_non_finite_rhs_or_initial_iterate_is_rejected_before_any_matvec(argument, bad):
    calls = []
    vectors = {"b": np.ones(3), "x0": np.zeros(3)}
    vectors[argument][1] = bad
    with pytest.raises(ValueError, match=f"^{argument} has a non-finite entry"):
        gmres(lambda v: calls.append(v) or 2.0 * v, vectors["b"], x0=vectors["x0"])
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["residual", "arnoldi"])
@pytest.mark.filterwarnings("error")
def test_a_non_finite_matvec_stops_within_the_first_arnoldi_step(where, bad):
    calls = []

    def matvec(v):
        calls.append(v)
        if where == "residual":
            return np.full_like(v, bad)
        return np.where(v != 0.0, bad, 0.0)  # finite at x0 = 0 only

    with pytest.raises(ValueError, match="is not finite"):
        gmres(matvec, np.ones(3))
    assert len(calls) == (1 if where == "residual" else 2)


def test_huge_finite_entries_are_not_mistaken_for_non_finite_ones():
    b = np.array([1e200, -1e200, 1e200])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(b))  # so the check reads the entries, not the norm
        assert gmres(lambda v: v, b, SolverConfig(max_iterations=0))[2] == 0


def test_a_finite_rhs_whose_norm_overflows_is_solved_scaled():
    b = np.array([1e200, -1e200, 1e200])
    record = {}
    x, relres, iters = gmres(lambda v: 2.0 * v, b, record=record)
    assert x.tobytes() == (b / 2).tobytes()
    assert record["stop"] == "converged" and relres <= 1e-8 and iters == 1


def test_an_overflowing_rhs_scales_the_initial_iterate_too():
    b = np.array([3e300, 1.0, -2e300])
    x0 = np.array([1e300, 0.5, -1e300])
    record = {}
    x, relres, iters = gmres(lambda v: 2.0 * v, b, x0=x0, record=record)
    assert x.tobytes() == (b / 2).tobytes()
    assert record["stop"] == "converged" and relres <= 1e-8 and iters == 1
    assert len(record["residuals"]) == iters
    # x0 = b / 2 is the solution: scaled with b, it converges before the first iteration
    x, relres, iters = gmres(lambda v: 2.0 * v, b, x0=b / 2)
    assert x.tobytes() == (b / 2).tobytes() and (relres, iters) == (0.0, 0)


# the ids keep the gmres keyword each count had before gmres took a SolverConfig
COUNT_FIELDS = {"maxiter": "max_iterations", "restart": "restart"}


@pytest.mark.parametrize(
    "argument, bad, error",
    [
        ("maxiter", -1, ValueError),
        ("maxiter", True, TypeError),
        ("maxiter", 2.0, TypeError),
        ("restart", 2.5, TypeError),
        ("restart", True, TypeError),
    ],
)
def test_gmres_checks_its_counts_before_any_matvec(argument, bad, error):
    field = COUNT_FIELDS[argument]
    calls = []
    with pytest.raises(error, match=f"^{field} must be"):
        gmres(lambda v: calls.append(v) or 2.0 * v, np.ones(3), SolverConfig(**{field: bad}))
    assert calls == []
    config = SolverConfig(**{field: np.int64(2)})
    assert type(getattr(config, field)) is int
    x, _, iters = gmres(lambda v: 2.0 * v, np.ones(3), config)
    assert iters == 1 and x.tobytes() == np.full(3, 0.5).tobytes()


@pytest.mark.parametrize("bad", [1e-8, 100, {"tolerance": 1e-8}, SolverConfig], ids=repr)
def test_gmres_refuses_a_config_that_is_not_a_solver_config(bad):
    calls = []
    with pytest.raises(TypeError, match="^config must be a SolverConfig"):
        gmres(lambda v: calls.append(v) or 2.0 * v, np.ones(3), bad)
    assert calls == []


def test_gmres_without_a_config_solves_as_the_default_config_does():
    problems = {name: rest for name, *rest in synthetic_problems()}
    matvec, b, settings = problems["preconditioned"]
    settings = {name: value for name, value in settings.items() if name != "config"}
    expected = solve_bytes(gmres, matvec, b, {**settings, "config": SolverConfig()})
    assert solve_bytes(gmres, matvec, b, settings) == expected


def test_maxiter_exhaustion_is_reported():
    rng = np.random.default_rng(79)
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 0.01 * np.eye(30)  # ill conditioned on purpose
    b = rng.standard_normal(30)
    record = {}
    x, relres, iters = gmres(lambda v: a @ v, b, SolverConfig(5, 8, 1e-14), record=record)
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
        _, relres, _ = gmres(lambda v: a @ v, b, SolverConfig(80, 85, 1e-12))
        assert relres <= 1e-5


def test_stall_on_a_singular_inconsistent_system_stops_early():
    # the third equation reads 0 = 1: the least residual is 1 / sqrt(3)
    d = np.array([1.0, 2.0, 0.0])
    budget = 1000
    record = {}
    x, relres, iters = gmres(lambda v: d * v, np.ones(3), SolverConfig(10, budget), record=record)
    assert iters < budget
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
        lambda v: d * v, np.ones(2), config=SolverConfig(2, 10, 1e-13), x0=exact.copy()
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


def test_solve_system_hands_its_config_to_gmres(monkeypatch):
    module = importlib.import_module("fembasis.gmres")
    seen, solve = [], module.gmres
    spy = lambda *args, **kw: seen.append(args) or solve(*args, **kw)
    monkeypatch.setattr(module, "gmres", spy)
    _, system, rhs = build_nested_system()
    system.freeze()
    config = SolverConfig(3, 40, 1e-11)
    for given, handed in ((config, config), (None, None)):
        seen.clear()
        solve_system(system, rhs, given)
        assert seen[0][2] is handed  # gmres reads None as SolverConfig()


def test_solve_system_requires_frozen_matrix():
    basis, system, rhs = build_nested_system()
    with pytest.raises(NotFrozen):
        solve_system(system, rhs, SolverConfig())


def test_solver_config_defaults():
    config = SolverConfig()
    assert config.restart == 100
    assert config.max_iterations == 5000
    assert config.tolerance == 1e-8


@pytest.mark.parametrize("field", ["restart", "max_iterations"])
@pytest.mark.parametrize("bad", [1.5, 10.0, True, np.float64(3.0)])
def test_solver_config_counts_must_be_integers(field, bad):
    # refused by the config, not later inside gmres
    with pytest.raises(TypeError, match=field):
        SolverConfig(**{field: bad})
    config = SolverConfig(**{field: np.int64(7)})
    assert getattr(config, field) == 7 and type(getattr(config, field)) is int


@pytest.mark.parametrize("bad", [True, np.True_, "1e-8", None, 1e-8j])
def test_solver_config_tolerance_must_be_a_real_number(bad):
    with pytest.raises(TypeError, match="tolerance"):
        SolverConfig(tolerance=bad)
    for good in (1, np.float32(0.5), np.int64(1)):
        config = SolverConfig(tolerance=good)
        assert config.tolerance == good and type(config.tolerance) is float


@pytest.mark.parametrize(
    "bad, error",
    [
        (True, TypeError),
        (np.True_, TypeError),
        ("1e-8", TypeError),
        (None, TypeError),
        (1e-8j, TypeError),
        (0.0, ValueError),
        (-1.0, ValueError),
        (-np.inf, ValueError),
        (np.nan, ValueError),
    ],
)
def test_a_tolerance_is_checked_alike_by_the_config_and_by_gmres(bad, error):
    # gmres reads its tolerance from a SolverConfig only, so the config's check is gmres's
    calls = []
    with pytest.raises(error, match="^tolerance must be"):
        gmres(lambda v: calls.append(v) or 2.0 * v, np.ones(3), SolverConfig(tolerance=bad))
    assert calls == []
    for good in (1, np.int64(1), np.float32(1e-6), 1e-300):
        _, relres, _ = gmres(lambda v: 2.0 * v, np.ones(3), SolverConfig(tolerance=good))
        assert relres <= good


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
    settings = dict(config=SolverConfig(n, 200, tol))
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


# -- the Krylov loop against the previous one ---------------------------------


def array_gmres(matvec, b, config, *, x0=None, precondition=None, record=None):
    """The GMRes loop as it was before it moved to Python floats: numpy H, cs, sn
    and g, a zeroed Krylov buffer per cycle and the rotations applied in the loop."""
    restart, tol, maxiter = config.restart, config.tolerance, config.max_iterations
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if precondition is None:
        precondition = lambda v: v
    bnorm = float(np.linalg.norm(b))
    residuals = []
    if bnorm == 0.0:
        if record is not None:
            record.update(stop="converged", residuals=residuals)
        return np.zeros(n), 0.0, 0
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    iters, prev_rnorm, stalled = 0, math.inf, False
    while True:
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= tol:
            stop = "converged"
        elif iters >= maxiter:
            stop = "budget"
        elif rnorm >= prev_rnorm and stalled:
            stop = "stalled"
        else:
            stop = None
        if stop is not None:
            if record is not None:
                record.update(stop=stop, residuals=residuals)
            return x, rnorm / bnorm, iters
        prev_rnorm, stalled = rnorm, False
        m = restart
        V, H = np.zeros((m + 1, n)), np.zeros((m + 1, m))
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        g[0] = rnorm
        V[0] = r / rnorm
        k = 0
        while k < m and iters < maxiter:
            w = np.array(matvec(precondition(V[k])), dtype=float)
            for _ in range(2):
                h = V[: k + 1] @ w
                H[: k + 1, k] += h
                w -= h @ V[: k + 1]
            hk1 = float(np.linalg.norm(w))
            H[k + 1, k] = hk1
            if hk1 > 0.0:
                V[k + 1] = w / hk1
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = math.hypot(H[k, k], H[k + 1, k])
            iters += 1
            if denom <= 1e-14 * float(np.linalg.norm(H[: k + 2, k])):
                residuals.append(abs(float(g[k])) / bnorm)
                stalled = True
                break
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k += 1
            residuals.append(abs(float(g[k])) / bnorm)
            if residuals[-1] <= tol:
                break
        if k:
            y = np.linalg.solve(H[:k, :k], g[:k])
            x = x + precondition(V[:k].T @ y)


def cavity_problem(n):
    """(matvec, rhs, settings) of the driven cavity solve on an n x n grid."""
    basis = make_basis(StructuredGrid(n, n), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    system.freeze()
    settings = dict(config=SolverConfig(100, 5000, 1e-8), x0=rhs.values)
    settings["precondition"] = stokes_preconditioner(basis)
    return system.operator(rhs.layout), rhs.values, settings


def matrix_problem(a, b, **settings):
    return (lambda v: a @ v), b, settings


def random_problem(seed, n, shift, spd, **settings):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = (m @ m.T if spd else m) + shift * np.eye(n)
    return matrix_problem(a, rng.standard_normal(n), **settings)


def synthetic_problems():
    """The systems the tests above solve, as (name, matvec, rhs, settings)."""
    yield "spd", *random_problem(67, 12, 12, True, config=SolverConfig(12, 100, 1e-10))
    yield "random", *random_problem(71, 20, 20, False, config=SolverConfig(20, 200, 1e-12))
    yield "small restart", *random_problem(73, 15, 15, True, config=SolverConfig(3, 500, 1e-9))
    yield "budget", *random_problem(79, 30, 0.01, True, config=SolverConfig(5, 8, 1e-14))
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    a = q @ np.diag(np.logspace(0, 10, 80)) @ q.T + np.triu(rng.standard_normal((80, 80)), 1)
    b = rng.standard_normal(80)
    yield "ill conditioned", *matrix_problem(a, b, config=SolverConfig(80, 85, 1e-12))
    identity = dict(config=SolverConfig(10, 50, 1e-12))
    yield "happy breakdown", (lambda v: v), np.array([1.0, -2.0, 3.0]), identity
    d = np.array([1.0, 2.0, 4.0, 8.0])
    yield "diagonal", (lambda v: d * v), np.ones(4), dict(config=SolverConfig(4, 20, 1e-12))
    stall = np.array([1.0, 2.0, 0.0])
    yield "stalled", (lambda v: stall * v), np.ones(3), dict(config=SolverConfig(10, 1000, 1e-8))
    yield "zero rhs", (lambda v: 2.0 * v), np.zeros(5), dict(config=SolverConfig(5, 10, 1e-10))
    exact = dict(config=SolverConfig(2, 10, 1e-13), x0=np.array([0.5, 1.0 / 3.0]))
    yield "initial guess", (lambda v: np.array([2.0, 3.0]) * v), np.ones(2), exact
    rng = np.random.default_rng(83)
    a = rng.standard_normal((30, 30)) + np.diag(30 * 10.0 ** rng.uniform(0.0, 3.0, 30))
    a[[0, 7, 19]] = 0.0
    a[[0, 7, 19], [0, 7, 19]] = 1.0
    b = rng.standard_normal(30)
    b[[0, 7, 19]] = 0.0
    diagonal = np.diag(a).copy()
    yield "preconditioned", *matrix_problem(
        a, b, config=SolverConfig(30, 200, 1e-10), x0=b.copy(), precondition=lambda v: v / diagonal
    )


def solve_bytes(solver, matvec, b, settings):
    """Every output of one solve, as bytes where it is a float: x, relres, iterations,
    stop and residual history."""
    record = {}
    x, relres, iters = solver(matvec, b, record=record, **settings)
    residuals = np.array(record["residuals"], dtype=float).tobytes()
    return x.tobytes(), np.float64(relres).tobytes(), iters, record["stop"], residuals


def test_gmres_agrees_bitwise_with_the_array_loop_on_the_cavity():
    matvec, b, settings = cavity_problem(8)
    expected = solve_bytes(array_gmres, matvec, b, settings)
    assert solve_bytes(gmres, matvec, b, settings) == expected
    assert expected[2] == 13


def test_gmres_agrees_bitwise_with_the_array_loop_on_synthetic_systems():
    for name, matvec, b, settings in synthetic_problems():
        expected = solve_bytes(array_gmres, matvec, b, settings)
        assert solve_bytes(gmres, matvec, b, settings) == expected, name


class NanEmptyNumpy:
    """numpy for the gmres module, except that ``empty`` fills with NaN."""

    def __init__(self):
        self.empty_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.empty_calls += 1
        return np.full(shape, np.nan, dtype=dtype)


def test_gmres_never_reads_an_unwritten_krylov_row(monkeypatch):
    problems = {name: rest for name, *rest in synthetic_problems()}
    cases = [cavity_problem(8)]
    cases += [problems[name] for name in ("happy breakdown", "stalled", "budget", "small restart")]
    expected = [solve_bytes(gmres, *case) for case in cases]
    nan_numpy = NanEmptyNumpy()
    monkeypatch.setattr(importlib.import_module("fembasis.gmres"), "np", nan_numpy)
    assert [solve_bytes(gmres, *case) for case in cases] == expected
    assert nan_numpy.empty_calls == len(cases)
