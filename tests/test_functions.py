"""Interpolation, masked interpolation, boundary walks, field evaluation."""

import math

import numpy as np
import pytest
from helpers import expected_leaf_index, random_tree, tree_children, tree_leaves, tree_shape
from test_numberings import permuting_random_trees

from fembasis import (
    GlobalBasis,
    LocalView,
    MultiIndex,
    NestedVector,
    OutsideDomain,
    ShapeMismatch,
    SparseSystem,
    StructuredGrid,
    apply_dirichlet,
    child_at,
    evaluate_discrete,
    for_each_boundary_dof,
    interpolate,
    interpolate_masked,
    make_basis,
    parse_tree,
    subspace_basis,
    taylor_hood_tree,
)
from fembasis.basis import _Scope
from fembasis.cli import TABLE1_COLUMNS, strategy_table_bases
from fembasis.functions import _SCALAR_TYPES, _component, boundary_offsets

TH2 = "composite(power(lagrange(2),2),lagrange(1))"


def fresh(tree_text, nx=4, ny=4, fill=0.0):
    basis = make_basis(StructuredGrid(nx, ny), parse_tree(tree_text))
    v = NestedVector()
    v.resize_from_basis(basis, fill=fill)
    return basis, v


def test_interpolate_gaussian_corner_node():
    basis, v = fresh("lagrange(2)")
    interpolate(basis, v, lambda p: math.exp(-(p[0] ** 2 + p[1] ** 2)))
    assert v[(0,)] == 1.0  # node at the origin


def test_interpolate_coordinate_function():
    basis, v = fresh("lagrange(1)", nx=2, ny=2)
    interpolate(basis, v, lambda p: p[0])
    assert v.data == [0.0, 0.5, 1.0] * 3


def test_scalar_broadcasts_to_all_leaves():
    basis, v = fresh("power(lagrange(1),2)", nx=2, ny=2)
    interpolate(basis, v, lambda p: 3.0)
    assert all(value == 3.0 for _, value in v.entries())


def test_vector_valued_interpolation_per_component():
    basis, v = fresh("power(lagrange(1),2)", nx=2, ny=2)
    interpolate(basis, v, lambda p: (p[0], p[1]))
    assert v[(4, 0)] == 0.5 and v[(4, 1)] == 0.5  # node (1,1) of the 3x3 grid
    assert v[(2, 0)] == 1.0 and v[(2, 1)] == 0.0


def test_nested_range_for_taylor_hood():
    basis, v = fresh(TH2, nx=2, ny=2)
    interpolate(basis, v, lambda p: [[p[0], p[1]], p[0] * p[1]])
    assert v[(0, 0, 0)] == 0.0
    assert v[(0, 24, 0)] == 1.0  # velocity x at node (1,1)
    assert v[(1, 8)] == 1.0  # pressure at vertex (1,1)


def test_range_shape_mismatch():
    basis, v = fresh(TH2, nx=1, ny=1)
    with pytest.raises(ShapeMismatch):
        interpolate(basis, v, lambda p: [p[0], p[1]])  # missing pressure slot
    with pytest.raises(ShapeMismatch):
        interpolate(basis, v, lambda p: [[p[0], p[1]], [1.0]])  # pressure not a scalar


def test_interpolation_is_idempotent():
    basis, v = fresh("lagrange(2)", nx=3, ny=3)
    f = lambda p: math.sin(p[0]) * p[1] + 0.25
    interpolate(basis, v, f)
    first = [value for _, value in v.entries()]
    interpolate(basis, v, lambda p: evaluate_discrete(basis, v.copy(), p))
    second = [value for _, value in v.entries()]
    assert np.max(np.abs(np.array(first) - np.array(second))) <= 1e-12


def test_masked_interpolation_respects_mask():
    basis, v = fresh(TH2, fill=-7.5)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)

    velocity = subspace_basis(basis, (0,))
    marked = set()
    for_each_boundary_dof(velocity, marked.add)
    for mi in marked:
        mask[mi] = True

    interpolate_masked(velocity, v, lambda p: (1.5, 2.5), mask)
    for mi, value in v.entries():
        if mi in marked:
            assert value == (1.5 if mi[2] == 0 else 2.5)
        else:
            assert value == -7.5  # untouched, bitwise


def test_all_false_mask_is_a_no_op():
    basis, v = fresh(TH2, nx=2, ny=2, fill=0.25)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)
    before = list(v.entries())
    seen = []
    interpolate_masked(basis, v, lambda p: seen.append(p) or [[9.0, 9.0], 9.0], mask)
    assert list(v.entries()) == before
    assert seen == []  # fn runs only where something is written


def test_mask_and_complement_compose_to_full():
    basis, full = fresh("lagrange(1)", nx=2, ny=2)
    f = lambda p: p[0] + 2 * p[1]
    interpolate(basis, full, f)

    part = NestedVector()
    part.resize_from_basis(basis)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)
    for i, (mi, _) in enumerate(part.entries()):
        mask[mi] = i % 2 == 0
    interpolate_masked(basis, part, f, mask)
    inverse = NestedVector()
    inverse.resize_from_basis(basis, fill=False)
    for mi, flag in mask.entries():
        inverse[mi] = not flag
    interpolate_masked(basis, part, f, inverse)
    assert part.data == full.data


def test_boundary_dof_counts():
    grid = StructuredGrid(4, 4)
    counts = {}
    for name, tree, expected in [
        ("q1", "lagrange(1)", 16),
        ("q2", "lagrange(2)", 32),
    ]:
        basis = make_basis(grid, parse_tree(tree))
        seen = set()
        for_each_boundary_dof(basis, seen.add)
        counts[name] = len(seen)
        assert len(seen) == expected

    th = make_basis(grid, parse_tree(TH2))
    velocity = subspace_basis(th, (0,))
    seen = set()
    for_each_boundary_dof(velocity, seen.add)
    assert len(seen) == 64  # two components, 32 boundary nodes each


def test_boundary_of_full_tree_is_union_of_subspaces():
    th = make_basis(StructuredGrid(3, 2), parse_tree(TH2))
    full, vel, press = set(), set(), set()
    for_each_boundary_dof(th, full.add)
    for_each_boundary_dof(subspace_basis(th, (0,)), vel.add)
    for_each_boundary_dof(subspace_basis(th, (1,)), press.add)
    assert full == vel | press


def test_subspace_interpolation_writes_only_its_prefix():
    basis, v = fresh(TH2, nx=2, ny=2, fill=-3.0)
    pressure = subspace_basis(basis, (1,))
    interpolate(pressure, v, lambda p: 1.0)
    for mi, value in v.entries():
        if mi[0] == 1:
            assert value == 1.0
        else:
            assert value == -3.0


def test_evaluate_discrete_reproduces_nodal_values():
    basis, v = fresh("lagrange(2)", nx=3, ny=3)
    f = lambda p: math.cos(p[0]) + p[1] ** 2
    interpolate(basis, v, f)
    for gj in range(7):
        for gi in range(7):
            p = (gi / 6, gj / 6)
            assert abs(evaluate_discrete(basis, v, p) - f(p)) <= 1e-13


def test_evaluate_discrete_exact_for_q2_polynomials():
    basis, v = fresh("lagrange(2)", nx=3, ny=3)
    f = lambda p: p[0] ** 2 * p[1] ** 2
    interpolate(basis, v, f)
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        p = (float(rng.random()), float(rng.random()))
        worst = max(worst, abs(evaluate_discrete(basis, v, p) - f(p)))
    assert worst <= 1e-10


def test_evaluate_discrete_shapes():
    basis, v = fresh(TH2, nx=2, ny=2)
    interpolate(basis, v, lambda p: [[p[0], p[1]], 2.0])
    value = evaluate_discrete(basis, v, (0.3, 0.7))
    assert isinstance(value, list) and len(value) == 2
    vx, vy = value[0]
    assert abs(vx - 0.3) <= 1e-13 and abs(vy - 0.7) <= 1e-13
    assert abs(value[1] - 2.0) <= 1e-13

    velocity = subspace_basis(basis, (0,))
    vel_value = evaluate_discrete(velocity, v, (0.3, 0.7))
    assert abs(vel_value[0] - 0.3) <= 1e-13

    pressure = subspace_basis(basis, (1,))
    assert abs(evaluate_discrete(pressure, v, (0.3, 0.7)) - 2.0) <= 1e-13


def test_evaluate_discrete_zero_coefficients():
    basis, v = fresh(TH2, nx=1, ny=1)
    value = evaluate_discrete(basis, v, (0.5, 0.5))
    assert value == [[0.0, 0.0], 0.0]


def test_evaluate_discrete_outside_domain():
    basis, v = fresh("lagrange(1)", nx=1, ny=1)
    with pytest.raises(OutsideDomain):
        evaluate_discrete(basis, v, (2.0, 0.0))


# -- nodal operations against closed-form node positions ---------------------


def leaf_field(path, p):
    """A non-polynomial scalar field, different for every leaf path."""
    w = 1.0 + sum((d + 1) * 0.37 ** i for i, d in enumerate(path))
    return math.sin(w * p[0] + 2.0 * p[1]) + math.exp(-w * p[1]) * p[0]


def range_value(tree, p, path=()):
    """Range value shaped like ``tree``: leaf_field at every leaf path."""
    if hasattr(tree, "order"):
        return leaf_field(path, p)
    return [range_value(kid, p, path + (i,)) for i, kid in enumerate(tree_children(tree))]


def node_position(order, nx, ny, flat):
    """Closed-form coordinates of a leaf's global node number ``flat``."""
    a, b = flat % (order * nx + 1), flat // (order * nx + 1)
    return a / (order * nx), b / (order * ny)


def assert_interpolates_every_node(tree, nx, ny, leaves, v):
    for path, order in leaves:
        for flat in range((order * nx + 1) * (order * ny + 1)):
            want = leaf_field(path, node_position(order, nx, ny, flat))
            got = v[expected_leaf_index(tree, nx, ny, path, flat)]
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


def random_bases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tree = random_tree(rng)
        yield make_basis(StructuredGrid(nx, ny), tree), tree, nx, ny


def test_interpolation_hits_every_node_of_random_trees():
    for basis, tree, nx, ny in random_bases(71, 12):
        v = NestedVector()
        v.resize_from_basis(basis, fill=math.nan)
        interpolate(basis, v, lambda p: range_value(tree, p))
        assert not np.isnan(v.values).any()
        assert_interpolates_every_node(tree, nx, ny, tree_leaves(tree), v)


@pytest.mark.parametrize("column", [label for label, _, _ in TABLE1_COLUMNS])
def test_interpolation_hits_every_node_under_table1_numbering(column):
    nx, ny = 3, 2
    basis = dict(strategy_table_bases(StructuredGrid(nx, ny), 3))[column]
    tree = basis.tree
    v = NestedVector()
    v.resize_from_basis(basis)
    interpolate(basis, v, lambda p: range_value(tree, p))
    assert_interpolates_every_node(tree, nx, ny, tree_leaves(tree), v)


def test_subspace_interpolation_hits_every_node_below_its_prefix():
    nx, ny = 3, 2
    basis = dict(strategy_table_bases(StructuredGrid(nx, ny), 3))["FL(FI)"]
    tree = basis.tree
    velocity = tree.children[0]
    v = NestedVector()
    v.resize_from_basis(basis, fill=-3.0)
    interpolate(subspace_basis(basis, (0,)), v, lambda p: range_value(velocity, p, (0,)))
    inside = [leaf for leaf in tree_leaves(tree) if leaf[0][0] == 0]
    assert_interpolates_every_node(tree, nx, ny, inside, v)
    for flat in range((nx + 1) * (ny + 1)):
        assert v[expected_leaf_index(tree, nx, ny, (1,), flat)] == -3.0


def test_boundary_walk_reports_each_ring_node_once():
    bases = list(random_bases(73, 12))
    for _, basis in strategy_table_bases(StructuredGrid(3, 2), 2):
        bases.append((basis, basis.tree, 3, 2))
        bases.append((subspace_basis(basis, (0,)), basis.tree, 3, 2))
    for basis, tree, nx, ny in bases:
        prefix = basis.prefix_path
        leaves = [(path, k) for path, k in tree_leaves(tree) if path[: len(prefix)] == prefix]
        expected = set()
        for path, k in leaves:
            for flat in range((k * nx + 1) * (k * ny + 1)):
                a, b = flat % (k * nx + 1), flat // (k * nx + 1)
                if a in (0, k * nx) or b in (0, k * ny):
                    expected.add(expected_leaf_index(tree, nx, ny, path, flat))
        reported = []
        for_each_boundary_dof(basis, reported.append)
        assert len(reported) == sum(2 * (k * nx + k * ny) for _, k in leaves)
        assert len(set(reported)) == len(reported)
        assert set(reported) == expected


def test_interpolation_rejects_a_vector_of_another_layout():
    basis, v = fresh(TH2, nx=2, ny=2)
    other = NestedVector()
    other.resize_from_basis(make_basis(StructuredGrid(2, 2), parse_tree("lagrange(2)")))
    with pytest.raises(ShapeMismatch):
        interpolate(basis, other, lambda p: [[1.0, 1.0], 1.0])
    mask = NestedVector()
    mask.resize_from_basis(make_basis(StructuredGrid(2, 1), parse_tree(TH2)), fill=True)
    with pytest.raises(ShapeMismatch):
        interpolate_masked(basis, v, lambda p: [[1.0, 1.0], 1.0], mask)
    # an equal layout built elsewhere is accepted
    copy = NestedVector(v.data)
    interpolate(basis, copy, lambda p: [[1.0, 1.0], 2.0])
    assert copy[(1, 8)] == 2.0


@pytest.mark.parametrize(
    "tree_text, calls",
    [(TH2, 9 * 9), ("lagrange(1)", 5 * 5), ("power(lagrange(1),3)", 5 * 5)],
)
def test_interpolation_samples_fn_once_on_the_finest_lattice(tree_text, calls):
    nx = ny = 4
    basis, v = fresh(tree_text, nx=nx, ny=ny)
    tree = basis.tree
    seen = []

    def fn(p):
        seen.append(p)
        return range_value(tree, p)

    interpolate(basis, v, fn)
    assert len(seen) == calls == len(set(seen))
    # per-order sampling at a / (k*nx): the coefficients agree bitwise
    expected = NestedVector()
    expected.resize_from_basis(basis)
    for path, order in tree_leaves(tree):
        for flat in range((order * nx + 1) * (order * ny + 1)):
            key = expected_leaf_index(tree, nx, ny, path, flat)
            expected[key] = leaf_field(path, node_position(order, nx, ny, flat))
    assert v.values.tobytes() == expected.values.tobytes()


def exact_field(path, order, p):
    """A field that a leaf of ``order`` reproduces exactly, shifted per leaf."""
    x, y = p
    shift = sum((d + 1) * 0.61 ** i for i, d in enumerate(path))
    if order == 2:
        return x * x * y - 0.5 * x * y * y + shift
    return x * y - 0.3 * x + shift


def exact_value(tree, p, path=()):
    if hasattr(tree, "order"):
        return exact_field(path, tree.order, p)
    return [exact_value(kid, p, path + (i,)) for i, kid in enumerate(tree_children(tree))]


def assert_close_tree(got, want):
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_close_tree(g, w)
    else:
        assert isinstance(got, float) and abs(got - want) <= 1e-12


def probe_points(rng, nx, ny):
    """Random points, inner element edges, the corners and the far edges."""
    points = [tuple(float(c) for c in rng.random(2)) for _ in range(6)]
    points += [(i / nx, float(rng.random())) for i in range(1, nx)]
    points += [(float(rng.random()), j / ny) for j in range(1, ny)]
    points += [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    points += [(1.0, float(rng.random())), (float(rng.random()), 1.0)]
    return points


def test_evaluate_discrete_matches_exact_fields_under_every_numbering():
    cases = []
    for _, basis in strategy_table_bases(StructuredGrid(3, 2), 3):
        cases += [(basis, 3, 2), (subspace_basis(basis, (0,)), 3, 2)]
        cases.append((subspace_basis(basis, (1,)), 3, 2))
    rng = np.random.default_rng(79)
    for n in range(12):
        nx, ny = (3, 2) if n % 2 else (4, 4)
        basis = make_basis(StructuredGrid(nx, ny), random_tree(rng))
        cases.append((basis, nx, ny))
        if not hasattr(basis.tree, "order"):
            cases.append((subspace_basis(basis, (0,)), nx, ny))
    for basis, nx, ny in cases:
        root = basis.root_basis
        v = NestedVector()
        v.resize_from_basis(root)
        interpolate(root, v, lambda p: exact_value(root.tree, p))
        prefix = basis.prefix_path
        subtree = child_at(root.tree, prefix)
        for p in probe_points(rng, nx, ny):
            assert_close_tree(evaluate_discrete(basis, v, p), exact_value(subtree, p, prefix))


def test_evaluate_discrete_reads_no_local_view_and_no_key(monkeypatch):
    basis, v = fresh(TH2, nx=2, ny=2)
    interpolate(basis, v, lambda p: [[p[0], p[1]], 2.0])

    def forbidden(*args):
        raise AssertionError("evaluation went through the element path")

    monkeypatch.setattr(LocalView, "__init__", forbidden)
    monkeypatch.setattr(NestedVector, "__getitem__", forbidden)
    value = evaluate_discrete(subspace_basis(basis, (0,)), v, (0.3, 0.7))
    assert abs(value[0] - 0.3) <= 1e-13 and abs(value[1] - 0.7) <= 1e-13


def test_evaluate_discrete_reads_no_node_grid(monkeypatch):
    basis, v = fresh(TH2, nx=3, ny=2)
    interpolate(basis, v, lambda p: [[p[0], p[1]], 2.0])

    def forbidden(*args):
        raise AssertionError("evaluation sliced a node grid")

    monkeypatch.setattr(GlobalBasis, "node_grid", forbidden)
    p = (0.3, 0.7)
    assert_close_tree(evaluate_discrete(basis, v, p), [[0.3, 0.7], 2.0])
    assert_close_tree(evaluate_discrete(subspace_basis(basis, (0,)), v, p), [0.3, 0.7])
    assert_close_tree(evaluate_discrete(subspace_basis(basis, (1,)), v, p), 2.0)
    # a leaf below a power node is a scalar too
    value = evaluate_discrete(subspace_basis(basis, (0, 1)), v, p)
    assert type(value) is float and abs(value - 0.7) <= 1e-13


def test_evaluate_discrete_reproduces_affine_leaf_fields_on_the_table1_bases():
    nx = ny = 16
    rng = np.random.default_rng(83)
    coeffs = rng.uniform(-1.0, 1.0, (4, 3))  # per leaf: c0, cx, cy

    def field(p):
        v = [float(c0 + cx * p[0] + cy * p[1]) for c0, cx, cy in coeffs]
        return [v[:3], v[3]]

    points = probe_points(rng, nx, ny)
    for _, basis in strategy_table_bases(StructuredGrid(nx, ny), 3):
        v = NestedVector()
        v.resize_from_basis(basis)
        interpolate(basis, v, field)
        for p in points:
            (vx, vy, vz), pressure = evaluate_discrete(basis, v, p)
            (wx, wy, wz), wp = field(p)
            assert max(abs(vx - wx), abs(vy - wy), abs(vz - wz), abs(pressure - wp)) <= 1e-13


def test_evaluate_discrete_rejects_a_vector_of_another_layout():
    basis, v = fresh(TH2, nx=2, ny=2)
    interpolate(basis, v, lambda p: [[p[0], p[1]], 2.0])
    other = NestedVector()
    other.resize_from_basis(make_basis(StructuredGrid(2, 2), parse_tree("lagrange(2)")))
    with pytest.raises(ShapeMismatch):
        evaluate_discrete(basis, other, (0.3, 0.7))
    # an equal layout built elsewhere is accepted
    copy = NestedVector(v.data)
    assert evaluate_discrete(basis, copy, (0.3, 0.7)) == evaluate_discrete(basis, v, (0.3, 0.7))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_evaluate_discrete_zero_field_reads_positive_zero(zero):
    basis, v = fresh(TH2, nx=2, ny=2, fill=zero)
    # Q2 shape functions are negative at some of these points
    for p in [(0.3, 0.7), (0.125, 0.375), (0.9, 0.05), (1.0, 1.0)]:
        (vx, vy), pressure = evaluate_discrete(basis, v, p)
        assert all(math.copysign(1.0, value) == 1.0 for value in (vx, vy, pressure))


# -- masked sampling: fn runs only at the nodes that are written --------------


def test_dirichlet_samples_the_velocity_ring_once_per_node_in_row_major_order():
    basis = make_basis(StructuredGrid(4, 4), taylor_hood_tree())
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    seen = []

    def boundary_values(p):
        seen.append(p)
        return (0.0, 1.0) if p[0] <= 1e-8 else (0.0, 0.0)

    apply_dirichlet(SparseSystem(), rhs, basis, boundary_values)
    ring = [(a / 8, b / 8) for b in range(9) for a in range(9) if 0 in (a % 8, b % 8)]
    assert len(seen) == 32  # the Q2 ring of the 9x9 lattice, not all 81 nodes
    assert seen == ring


@pytest.mark.parametrize("nx,ny", [(3, 5), (12, 12)])
def test_dirichlet_writes_the_masked_interpolant_of_the_ring(nx, ny):
    """The rhs and the callback's points are those of interpolate_masked on the ring."""
    basis = make_basis(StructuredGrid(nx, ny), taylor_hood_tree())
    velocity = subspace_basis(basis, (0,))
    seen = {"dirichlet": [], "masked": []}

    def sampled(which):
        def boundary_values(p):
            seen[which].append(p)
            if p[1] == 0.0:
                return 0.5  # a scalar broadcasts to both components
            return (p[0] * p[1] - 1.0 / 3.0, math.sin(7.0 * p[0]) + p[1])

        return boundary_values

    rhs, expected, mask = NestedVector(), NestedVector(), NestedVector()
    rhs.resize_from_basis(basis)
    expected.resize_from_basis(basis)
    mask.resize_from_basis(basis, fill=False)
    mask.values[boundary_offsets(velocity)] = True
    apply_dirichlet(SparseSystem(), rhs, basis, sampled("dirichlet"))
    interpolate_masked(velocity, expected, sampled("masked"), mask)
    assert rhs.values.tobytes() == expected.values.tobytes()
    assert seen["dirichlet"] == seen["masked"]
    assert len(seen["dirichlet"]) == 4 * (nx + ny)  # each Q2 ring node once


def test_dirichlet_writes_the_rings_of_velocity_leaves_of_mixed_order():
    """A Q2 and a Q1 velocity leaf: both rings fixed, the rhs that of interpolate_masked."""
    nx, ny = 3, 2
    basis = make_basis(
        StructuredGrid(nx, ny), parse_tree("composite(composite(lagrange(2),lagrange(1)),lagrange(1))")
    )
    velocity = subspace_basis(basis, (0,))
    seen = {"dirichlet": [], "masked": []}

    def sampled(which):
        def boundary_values(p):
            seen[which].append(p)
            return (math.cos(p[0] + 2.0 * p[1]), p[0] - p[1] * p[1])

        return boundary_values

    system, rhs, expected = SparseSystem(), NestedVector(), NestedVector()
    rhs.resize_from_basis(basis)
    expected.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis, sampled("dirichlet"))
    system.freeze()
    keys = basis.layout.keys
    rings = [basis.node_grid((0, 0)), basis.node_grid((0, 1))]
    ring = [g[[0, -1]].ravel().tolist() + g[1:-1, [0, -1]].ravel().tolist() for g in rings]
    fixed = {keys[offset] for offset in ring[0] + ring[1]}
    assert len(fixed) == 4 * (nx + ny) + 2 * (nx + ny)  # the Q2 ring and the Q1 ring
    assert set(system.triples()) == {(key, key, 1.0) for key in fixed}

    mask = NestedVector.from_flat(basis.layout, np.zeros(basis.dimension(), dtype=bool))
    mask.values[boundary_offsets(velocity)] = True
    interpolate_masked(velocity, expected, sampled("masked"), mask)
    assert rhs.values.tobytes() == expected.values.tobytes()
    q2_ring = [(a / 6, b / 4) for b in range(5) for a in range(7) if 0 in (a % 6, b % 4)]
    assert seen["dirichlet"] == q2_ring  # once per Q2 ring node, row by row
    assert seen["masked"] == q2_ring
    with pytest.raises(ShapeMismatch):
        apply_dirichlet(SparseSystem(), rhs, make_basis(StructuredGrid(2, 2), taylor_hood_tree()))


@pytest.mark.parametrize("column", [label for label, _, _ in TABLE1_COLUMNS])
def test_masked_interpolation_is_the_full_lattice_sample_kept_where_masked(column):
    nx, ny = 3, 2
    rng = np.random.default_rng(sum(map(ord, column)))
    root = dict(strategy_table_bases(StructuredGrid(nx, ny), 2))[column]
    tree = root.tree
    for prefix in [(), (0,), (1,)]:
        before = rng.standard_normal(root.dimension())
        mask = NestedVector.from_flat(root.layout, rng.random(root.dimension()) < 0.3)
        v = NestedVector.from_flat(root.layout, before.copy())
        seen = []

        def fn(p):
            seen.append(p)
            return range_value(child_at(tree, prefix), p, prefix)

        interpolate_masked(subspace_basis(root, prefix), v, fn, mask)
        # the old way: sample every node in scope, keep the masked slots
        expected = NestedVector.from_flat(root.layout, before.copy())
        written = set()
        for path, order in tree_leaves(tree):
            for flat in range((order * nx + 1) * (order * ny + 1)):
                key = expected_leaf_index(tree, nx, ny, path, flat)
                p = node_position(order, nx, ny, flat)
                if path[: len(prefix)] == prefix and mask[key]:
                    expected[key] = leaf_field(path, p)
                    written.add(p)
        assert v.values.tobytes() == expected.values.tobytes()
        assert seen == sorted(written, key=lambda p: (p[1], p[0]))


# -- the column contract: one column per leaf, per-sample walk on error -------


def expected_vector(tree_text, nx, ny, leaf_value):
    """Interpolant built node by node: leaf_value(path, p) at every node."""
    basis, v = fresh(tree_text, nx=nx, ny=ny)
    for path, order in tree_leaves(basis.tree):
        for flat in range((order * nx + 1) * (order * ny + 1)):
            p = node_position(order, nx, ny, flat)
            v[expected_leaf_index(basis.tree, nx, ny, path, flat)] = leaf_value(path, p)
    return v


def th_leaf(value):
    """leaf_value for a Taylor-Hood range value ``value(p)``: walks the path."""

    def leaf_value(path, p):
        node = value(p)
        if isinstance(node, (list, tuple)):
            for digit in path:
                node = node[digit]
        return float(node)

    return leaf_value


@pytest.mark.parametrize(
    "fn",
    [
        # a broadcast scalar at some nodes, nested lists at the others
        lambda p: 2.5 if p[0] < 0.5 else [[p[0], -p[1]], p[0] * p[1]],
        lambda p: [[np.float64(p[0]), np.float32(p[1])], np.int64(3)],
        lambda p: np.float32(0.1),
        lambda p: [(p[0] < 0.5, True), False],
        lambda p: p[1] > 0.5,
    ],
    ids=["mixed-scalar-and-lists", "numpy-scalars", "numpy-broadcast", "bools", "bool-broadcast"],
)
def test_interpolation_column_contract(fn):
    basis, v = fresh(TH2, nx=3, ny=2)
    interpolate(basis, v, fn)
    want = expected_vector(TH2, 3, 2, th_leaf(fn))
    assert v.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize(
    "tree_text, fn",
    [
        (TH2, lambda p: [[p[0]], p[1]]),  # a missing component
        (TH2, lambda p: [[p[0], [p[1]]], 1.0]),  # a list at a leaf
        (TH2, lambda p: [[p[0], "y"], 1.0]),  # a string at a leaf
        (TH2, lambda p: [2.0, 1.0]),  # a scalar where a list is expected
        (TH2, lambda p: [[p[0], p[1]], 1.0] if p != (1.0, 1.0) else [[p[0]], 1.0]),
        (TH2, lambda p: [[np.True_, 0.0], 1.0]),  # numpy bools are no scalars
        (TH2, lambda p: [[np.array(0.5), 0.0], 1.0]),  # nor are 0-d arrays
        ("lagrange(1)", lambda p: [p[0]]),
        ("lagrange(1)", lambda p: "x"),
        ("lagrange(1)", lambda p: np.array(0.5)),
    ],
)
def test_interpolation_column_contract_mismatches(tree_text, fn):
    basis, v = fresh(tree_text, nx=3, ny=2)
    with pytest.raises(ShapeMismatch):
        interpolate(basis, v, fn)


def test_another_size_is_rejected_before_any_key_is_built(monkeypatch):
    basis, _ = fresh(TH2, nx=3, ny=2)
    other = make_basis(StructuredGrid(2, 3), parse_tree("power(lagrange(2),2)"))
    w = NestedVector()
    w.resize_from_basis(other)
    monkeypatch.setattr(MultiIndex, "__new__", lambda *args: pytest.fail("a key was built"))
    with pytest.raises(ShapeMismatch):
        interpolate(basis, w, lambda p: [[1.0, 1.0], 1.0])
    with pytest.raises(ShapeMismatch):
        evaluate_discrete(basis, w, (0.5, 0.5))


# -- the sampling: bitwise the leaf-by-leaf reference -----------------------------


def reference_column(samples, rel_path):
    """Leaf column of the samples, read leaf by leaf from the whole sample."""
    column = samples
    try:
        for digit in rel_path:
            column = [value[digit] for value in column]
    except (TypeError, KeyError, IndexError):
        column = None
    if column is None or not all(issubclass(t, _SCALAR_TYPES) for t in set(map(type, column))):
        column = [_component(value, rel_path) for value in samples]
    return np.array(column, dtype=float)


def reference_interpolate(basis, coefficients, fn, mask=None):
    """Interpolation that plans its sampling anew on every call, leaf by leaf."""
    root = basis.root_basis
    values = coefficients.values
    allowed = None if mask is None else mask.values
    nx, ny = root.grid.nx, root.grid.ny
    leaves = root._scope(basis.prefix_path).leaves
    top = max(leaf.finite_element.order for leaf in leaves)
    width, height = top * nx + 1, top * ny + 1
    lattice = np.arange(height * width).reshape(height, width)
    marked = np.zeros(lattice.size, dtype=bool)
    writes = []
    for leaf in leaves:
        offsets = leaf.node_grid
        nodes = lattice[:: top // leaf.finite_element.order, :: top // leaf.finite_element.order]
        if allowed is not None:
            chosen = allowed[offsets].astype(bool)
            offsets, nodes = offsets[chosen], nodes[chosen]
        marked[nodes.ravel()] = True
        writes.append((leaf.rel_path, offsets.ravel(), nodes.ravel()))
    xs = [a / (top * nx) for a in range(width)]
    ys = [b / (top * ny) for b in range(height)]
    rows, cols = np.divmod(np.flatnonzero(marked), width)
    samples = [fn((xs[a], ys[b])) for a, b in zip(cols.tolist(), rows.tolist())]
    sample_of = np.cumsum(marked) - 1
    for rel_path, offsets, nodes in writes:
        picked = [samples[n] for n in sample_of[nodes].tolist()]
        values[offsets] = reference_column(picked, rel_path)


def sampled_bases():
    """The Table-1 bases at the root and both child prefixes, and random trees."""
    for _, root in strategy_table_bases(StructuredGrid(3, 2), 3):
        yield root
        yield subspace_basis(root, (0,))
        yield subspace_basis(root, (1,))
    for basis, _, _, _ in random_bases(89, 12):
        yield basis


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_interpolation_is_bitwise_the_per_call_sampling(masked):
    rng = np.random.default_rng(97)
    for basis in sampled_bases():
        root, prefix = basis.root_basis, basis.prefix_path
        subtree = child_at(root.tree, prefix)
        for shift in (0.0, 0.25):  # two interpolations in a row on one basis
            n = root.dimension()
            mask = NestedVector.from_flat(root.layout, rng.random(n) < 0.4) if masked else None
            before = rng.standard_normal(n)
            got = NestedVector.from_flat(root.layout, before.copy())
            want = NestedVector.from_flat(root.layout, before.copy())
            seen = {"got": [], "want": []}

            def field(calls):
                return lambda p: calls.append(p) or range_value(subtree, (p[0] + shift, p[1]), prefix)

            if masked:
                interpolate_masked(basis, got, field(seen["got"]), mask)
            else:
                interpolate(basis, got, field(seen["got"]))
            reference_interpolate(basis, want, field(seen["want"]), mask)
            assert got.values.tobytes() == want.values.tobytes()
            assert seen["got"] == seen["want"]


def test_the_ring_is_built_once_per_scope(monkeypatch):
    built = []
    prop = vars(_Scope)["ring"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda scope: built.append(scope.prefix) or build(scope))
    basis = make_basis(StructuredGrid(3, 2), taylor_hood_tree())
    velocity = subspace_basis(basis, (0,))
    v = NestedVector()
    v.resize_from_basis(basis)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=True)
    for _ in range(2):
        interpolate(basis, v, lambda p: [[p[0], p[1]], 1.0])
        interpolate(velocity, v, lambda p: [p[1], p[0]])
        interpolate_masked(velocity, v, lambda p: [1.0, 2.0], mask)
        apply_dirichlet(SparseSystem(), v, basis)
        boundary_offsets(velocity)
    assert built == [(0,)]


def test_each_range_value_is_read_once_per_tree_node():
    nx, ny = 3, 2
    basis, v = fresh(TH2, nx=nx, ny=ny)
    reads = []

    class Counted(list):
        def __getitem__(self, digit):
            reads.append(digit)
            return list.__getitem__(self, digit)

    def fn(p):
        return Counted([Counted([p[0], p[1]]), p[0] * p[1]])

    interpolate(basis, v, fn)
    q2, q1 = (2 * nx + 1) * (2 * ny + 1), (nx + 1) * (ny + 1)
    # every sample: its velocity once and each of its components once; the pressure at Q1 nodes
    assert sorted(reads) == [0] * 2 * q2 + [1] * (q2 + q1)
    want = expected_vector(TH2, nx, ny, th_leaf(lambda p: [[p[0], p[1]], p[0] * p[1]]))
    assert v.values.tobytes() == want.values.tobytes()

    # masked: the velocity leaves take every sample and read each velocity once
    reads.clear()
    everywhere = NestedVector.from_flat(v.layout, np.ones(len(v.values), dtype=bool))
    interpolate_masked(basis, v, fn, everywhere)
    assert sorted(reads) == [0] * 2 * q2 + [1] * (q2 + q1)
    assert v.values.tobytes() == want.values.tobytes()
    reads.clear()
    ring = boundary_offsets(subspace_basis(basis, (0,)))
    on_ring = NestedVector.from_flat(v.layout, np.isin(np.arange(len(v.values)), ring))
    interpolate_masked(basis, v, fn, on_ring)
    r = 2 * (2 * nx + 2 * ny)  # the Q2 ring's nodes
    assert sorted(reads) == [0] * 2 * r + [1] * r

    # masked: the two linear leaves take the same subset of the samples and share its reads
    basis, v = fresh("composite(power(lagrange(1),2),lagrange(2))", nx=nx, ny=ny)
    reads.clear()
    interpolate(basis, v, fn)
    want = v.values.tobytes()
    assert len(reads) == 71
    reads.clear()
    everywhere = NestedVector.from_flat(v.layout, np.ones(len(v.values), dtype=bool))
    v.values[:] = 0.0
    interpolate_masked(basis, v, fn, everywhere)
    assert len(reads) == 71
    assert v.values.tobytes() == want


@pytest.mark.parametrize(
    "fn",
    [
        lambda p: [[7.0], 1.0],
        lambda p: [2.0, 1.0] if p == (0.5, 0.5) else [[p[0], p[1]], 1.0],
        lambda p: [[p[0], p[1]], [1.0]],
    ],
    ids=["no-(0,1)-component", "a-scalar-velocity", "a-list-pressure"],
)
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_a_shape_mismatch_writes_nothing(fn, masked):
    basis, v = fresh(TH2, nx=3, ny=2)
    v.values[:] = np.random.default_rng(101).standard_normal(len(v.values))
    before = v.values.tobytes()
    with pytest.raises(ShapeMismatch):
        if masked:
            mask = NestedVector.from_flat(v.layout, np.ones(len(v.values), dtype=bool))
            interpolate_masked(basis, v, fn, mask)
        else:
            interpolate(basis, v, fn)
    assert v.values.tobytes() == before


def test_boundary_offsets_is_the_scopes_read_only_ring():
    basis = make_basis(StructuredGrid(3, 2), taylor_hood_tree())
    ring = boundary_offsets(subspace_basis(basis, (0,)))
    assert not ring.flags.writeable
    with pytest.raises(ValueError):
        ring[0] = 0
    assert boundary_offsets(subspace_basis(basis, (0,))) is ring


def test_evaluate_discrete_at_numpy_scalars_reads_the_same_python_floats():
    basis, v = fresh(TH2, nx=3, ny=2)
    interpolate(basis, v, lambda p: [[math.sin(3 * p[0]), p[1] ** 2], p[0] - p[1]])
    for p in [(0.3, 0.7), (0.125, 1.0), (1.0, 0.0), (0.61, 0.29)]:
        plain = evaluate_discrete(basis, v, p)
        scalars = evaluate_discrete(basis, v, (np.float64(p[0]), np.float64(p[1])))
        assert repr(scalars) == repr(plain)  # np.float64 would repr as np.float64(...)
        (vx, vy), pressure = scalars
        assert {type(vx), type(vy), type(pressure)} == {float}


def one_rule_bases():
    """The eight Table-1 bases at 3x2 and the 12 permuting random trees at 3x4."""
    bases = [basis for _, basis in strategy_table_bases(StructuredGrid(3, 2), 2)]
    return bases + [make_basis(StructuredGrid(3, 4), tree) for _, tree in permuting_random_trees()]


def tree_nodes(tree, path=()):
    """(path, node) of every node of ``tree``, depth first, the root first."""
    kids = () if hasattr(tree, "order") else tree_children(tree)
    return [(path, tree)] + [n for i, kid in enumerate(kids) for n in tree_nodes(kid, path + (i,))]


def value_shape(value):
    """``None`` for a float, else the list of the items' shapes."""
    if isinstance(value, list):
        return [value_shape(item) for item in value]
    assert type(value) is float
    return None


def random_coefficients(basis, rng):
    v = NestedVector()
    v.resize_from_basis(basis)
    v.values[:] = rng.uniform(-1.0, 1.0, len(v.values))
    return v


def test_evaluated_values_nest_like_the_subtree_at_every_prefix():
    rng = np.random.default_rng(101)
    for basis in one_rule_bases():
        v = random_coefficients(basis, rng)
        for prefix, node in tree_nodes(basis.tree):
            subspace = subspace_basis(basis, prefix)
            for p in [(0.0, 0.0), (0.37, 0.81), (1.0, 1.0)]:
                assert value_shape(evaluate_discrete(subspace, v, p)) == tree_shape(node)


def test_interpolating_the_evaluated_field_reproduces_its_coefficients():
    # interpolate reads range values in the nesting evaluate_discrete writes them in
    rng = np.random.default_rng(103)
    for basis in one_rule_bases():
        x = random_coefficients(basis, rng)
        y = NestedVector()
        y.resize_from_basis(basis)
        interpolate(basis, y, lambda p: evaluate_discrete(basis, x, p))
        assert np.max(np.abs(y.values - x.values)) <= 1e-13 * np.max(np.abs(x.values))
