"""One tree, many numberings, the same operator.

Every numbering of a tree indexes the same basis functions, so the
numberings differ only by a permutation P of the flat slots.  P is read
off the node grids: leaf by leaf, ``node_grid(path)`` of a basis and of a
reference numbering of the same tree hold the slots of the same nodes.
Everything built on the grids must then commute with P bitwise: the
element offset table, the frozen system's product and diagonal, the
Dirichlet rewrite and the tests' full-space Stokes preconditioner; and
the cavity solved in the pressure space, which reads only node grids,
gives bitwise the same fields.
"""

import functools

import numpy as np
import pytest
from helpers import random_tree, stokes_preconditioner

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
    assemble_stokes_matrix,
    make_basis,
    solve_stokes,
)
from fembasis.cli import TABLE1_COLUMNS, strategy_table_bases

GRIDS = [(5, 7), (16, 16)]


def all_blocked_lexicographic(tree):
    """The same tree with every strategy set to BL, the reference numbering."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, Power):
        child = all_blocked_lexicographic(tree.child)
        return Power(child, tree.count, Strategy.BLOCKED_LEXICOGRAPHIC)
    children = tuple(all_blocked_lexicographic(c) for c in tree.children)
    return Composite(children, Strategy.BLOCKED_LEXICOGRAPHIC)


def slot_permutation(basis, reference):
    """P with ``P[s]`` the slot in ``basis`` of the node at slot s of ``reference``."""
    perm = np.full(reference.dimension(), -1)
    for leaf in reference.local_view().leaves:
        perm[leaf.node_grid] = basis.node_grid(leaf.tree_path)
    assert np.array_equal(np.sort(perm), np.arange(basis.dimension()))  # a permutation
    return perm


def wide_vector(rng, n):
    """Random entries across 16 orders of magnitude: their sums depend on the order."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)


def summed_in_order(table, local, n):
    """Each slot's contributions ``local[e, i]`` at ``table[e, i]`` added one by one, row by row."""
    sums = [0.0] * n
    for row, values in zip(table.tolist(), local.tolist()):
        for slot, value in zip(row, values):
            sums[slot] += value
    return np.array(sums)


def frozen_system(basis, matrix):
    system = SparseSystem()
    system.add_elements(basis.layout, basis.element_offsets(), matrix)
    system.freeze()
    return system


def check_same_operator(basis, reference, rng):
    """Element table, product and diagonal of one random element matrix commute with P."""
    perm = slot_permutation(basis, reference)
    table, ref_table = basis.element_offsets(), reference.element_offsets()
    assert np.array_equal(table, perm[ref_table])
    matrix = rng.standard_normal((table.shape[1],) * 2)
    x_ref = wide_vector(rng, len(perm))
    x = np.empty_like(x_ref)
    x[perm] = x_ref
    # every element gathers the same values whatever the numbering ...
    local = x_ref[ref_table] @ matrix.T
    assert (x[table] @ matrix.T).tobytes() == local.tobytes()
    # ... and each system's product sums them per slot in element order,
    # which no numbering changes; summed in another order, they differ
    by_elements = summed_in_order(ref_table, local, len(perm))
    assert summed_in_order(ref_table[::-1], local[::-1], len(perm)).tobytes() != (
        by_elements.tobytes()
    )
    system, ref_system = frozen_system(basis, matrix), frozen_system(reference, matrix)
    ref_product = ref_system.operator(reference.layout)(x_ref)
    assert ref_product.tobytes() == by_elements.tobytes()
    assert system.operator(basis.layout)(x)[perm].tobytes() == ref_product.tobytes()
    diagonal, ref_diagonal = system.diagonal(basis.layout), ref_system.diagonal(reference.layout)
    assert diagonal[perm].tobytes() == ref_diagonal.tobytes()
    return perm


@functools.cache
def permuting_random_trees(count=12):
    """The first ``count`` random trees whose numbering is not the reference's.

    Most random trees number like their BL reference (a leaf, or no
    interleaving strategy); those would witness nothing here.
    """
    grid, trees, seed = StructuredGrid(2, 3), [], 0
    while len(trees) < count:
        tree = random_tree(np.random.default_rng(seed), max_depth=3, max_children=3)
        reference = make_basis(grid, all_blocked_lexicographic(tree))
        perm = slot_permutation(make_basis(grid, tree), reference)
        if not np.array_equal(perm, np.arange(len(perm))):
            trees.append((seed, tree))
        seed += 1
    return trees


@pytest.mark.parametrize("nx,ny", GRIDS)
@pytest.mark.parametrize("index", range(12))
def test_random_tree_numberings_give_the_same_operator(index, nx, ny):
    seed, tree = permuting_random_trees()[index]
    grid = StructuredGrid(nx, ny)
    reference = make_basis(grid, all_blocked_lexicographic(tree))
    perm = check_same_operator(make_basis(grid, tree), reference, np.random.default_rng(seed))
    assert not np.array_equal(perm, np.arange(len(perm)))


def cavity_pieces(basis):
    """The frozen cavity system, its rhs after the Dirichlet rewrite and its preconditioner."""
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    system.freeze()
    return system, rhs.values, stokes_preconditioner(basis)


@pytest.mark.parametrize("nx,ny", GRIDS)
@pytest.mark.parametrize("column", range(len(TABLE1_COLUMNS)), ids=[c[0] for c in TABLE1_COLUMNS])
def test_table1_numberings_give_the_same_cavity(column, nx, ny):
    grid = StructuredGrid(nx, ny)
    bases = strategy_table_bases(grid, 2)
    (ref_label, reference), (label, basis) = bases[0], bases[column]
    assert ref_label == "BL(BL)"
    rng = np.random.default_rng(column)
    check_same_operator(basis, reference, rng)

    perm = slot_permutation(basis, reference)
    system, rhs, preconditioner = cavity_pieces(basis)
    ref_system, ref_rhs, ref_preconditioner = cavity_pieces(reference)
    assert np.array_equal(system._fixed(), perm[ref_system._fixed()])  # the identity rows
    assert rhs[perm].tobytes() == ref_rhs.tobytes()
    x_ref = rng.standard_normal(len(perm))
    x = np.empty_like(x_ref)
    x[perm] = x_ref
    for apply, ref_apply in [
        (system.operator(basis.layout), ref_system.operator(reference.layout)),
        (preconditioner, ref_preconditioner),
    ]:
        assert apply(x)[perm].tobytes() == ref_apply(x_ref).tobytes(), label


@pytest.mark.parametrize("n", [5, 16])
def test_table1_numberings_solve_the_cavity_to_the_same_fields(n):
    """Node grid by node grid, every numbering's solution is bitwise BL(BL)'s."""
    fields = {}
    for label, basis in strategy_table_bases(StructuredGrid(n, n), 2):
        system, rhs, _ = cavity_pieces(basis)
        rhs = NestedVector.from_flat(basis.layout, rhs)
        record = {}
        solution, relres, _ = solve_stokes(basis, system, rhs, record=record)
        x = solution.values
        assert relres <= SolverConfig().tolerance and record["stop"] == "converged", label
        grids = [basis.node_grid(path) for path in [(0, 0), (0, 1), (1,)]]
        fields[label] = [x[grid].tobytes() for grid in grids]
    assert len(fields) == len(TABLE1_COLUMNS)
    for label, field in fields.items():
        assert field == fields["BL(BL)"], label
