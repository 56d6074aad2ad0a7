"""Nested vectors and multi-index keyed sparse systems."""

import numpy as np
import pytest

from fembasis import (
    AlreadyFrozen,
    IndexOutOfRange,
    MultiIndex,
    NestedVector,
    NotFrozen,
    ShapeMismatch,
    SparseSystem,
    StructuredGrid,
    apply_dirichlet,
    assemble_element_matrix,
    assemble_stokes_matrix,
    for_each_boundary_dof,
    make_basis,
    parse_tree,
    subspace_basis,
    taylor_hood_tree,
)
from helpers import random_tree


def make_th_vector(nx=4, ny=4):
    basis = make_basis(StructuredGrid(nx, ny), parse_tree(
        "composite(power(lagrange(2),2),lagrange(1))"))
    v = NestedVector()
    v.resize_from_basis(basis)
    return basis, v


def test_resize_flat_basis():
    basis = make_basis(StructuredGrid(4, 4), parse_tree("lagrange(1)"))
    v = NestedVector()
    v.resize_from_basis(basis)
    assert isinstance(v.data, list) and len(v.data) == 25
    assert all(x == 0.0 for x in v.data)
    assert v[(7,)] == 0.0


def test_resize_taylor_hood_shape():
    basis, v = make_th_vector()
    assert len(v.data) == 2
    assert len(v.data[0]) == 81
    assert all(len(block) == 2 for block in v.data[0])
    assert len(v.data[1]) == 25


def test_resize_shape_mirrors_size():
    rng = np.random.default_rng(61)
    bases = [make_th_vector(2, 2)[0]]
    for _ in range(8):
        grid = StructuredGrid(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        bases.append(make_basis(grid, random_tree(rng)))
    for basis in bases:
        v = NestedVector()
        v.resize_from_basis(basis)
        _assert_mirrors_size(basis, v.data, ())


def _assert_mirrors_size(basis, node, prefix):
    expected = basis.size(prefix)
    if expected == 0:
        assert not isinstance(node, list)
    else:
        assert isinstance(node, list) and len(node) == expected
        for d, child in enumerate(node):
            _assert_mirrors_size(basis, child, prefix + (d,))


def test_get_set_round_trip():
    _, v = make_th_vector()
    v[(0, 4, 1)] = 2.5
    assert v[(0, 4, 1)] == 2.5
    assert v[MultiIndex((0, 4, 1))] == 2.5
    v[(1, 24)] = -1.0
    assert v.data[1][24] == -1.0


def test_shape_mismatch_errors():
    _, v = make_th_vector()
    with pytest.raises(ShapeMismatch):
        v[(0, 4)]  # too short, addresses a list
    with pytest.raises(ShapeMismatch):
        v[(0, 4, 1, 0)]  # descends below a scalar
    with pytest.raises(ShapeMismatch):
        v[(0, 81, 0)]  # digit out of range
    with pytest.raises(ShapeMismatch):
        v[(2,)]


def test_entries_and_copy():
    basis = make_basis(StructuredGrid(1, 1), parse_tree("lagrange(1)"))
    v = NestedVector()
    v.resize_from_basis(basis)
    v[(2,)] = 3.0
    entries = list(v.entries())
    assert entries[2] == ((2,), 3.0)
    assert len(entries) == 4

    w = v.copy()
    w[(2,)] = -1.0
    assert v[(2,)] == 3.0


def test_vector_equality_compares_lengths_before_keys(monkeypatch):
    _, v = make_th_vector(3, 2)
    _, w = make_th_vector(2, 2)
    same = NestedVector(v.data)  # equal keys, another layout object
    assert same == v and same.layout is not v.layout
    same.values[-1] = 1.0
    assert same != v
    flat = NestedVector([0.0] * len(v.layout))  # same length, other keys
    assert flat != v and v != flat
    with monkeypatch.context() as m:
        m.setattr(MultiIndex, "__new__", lambda *args: pytest.fail("a key was built"))
        assert v != w and not w == v  # another size: no key tuple is built
        assert v.copy() == v  # the same layout object: no key tuple either


def test_mask_fill_value():
    basis, _ = make_th_vector(1, 1)
    mask = NestedVector()
    mask.resize_from_basis(basis, fill=False)
    assert mask[(1, 0)] is False
    mask[(1, 0)] = True
    assert mask[(1, 0)] is True
    assert mask.values.dtype == np.bool_


def test_storage_is_float64_unless_the_fill_is_bool():
    basis, _ = make_th_vector(1, 1)
    v = NestedVector()
    v.resize_from_basis(basis, fill=0)
    v[(0, 3, 1)] = 2.5
    assert v[(0, 3, 1)] == 2.5 and type(v[(0, 3, 1)]) is float
    assert v.values.dtype == np.float64
    assert NestedVector([1, 2]).values.dtype == np.float64
    assert NestedVector([True, False])[(0,)] is True


def flat_system(n):
    """An empty system on the layout of a flat n-vector, keys (0,) to (n-1,)."""
    return SparseSystem(NestedVector([0.0] * n).layout)


def test_add_to_entry_accumulates():
    m = flat_system(3)
    m.add_to_entry((0,), (1,), 2.0)
    m.add_to_entry((0,), (1,), 0.5)
    m.add_to_entry((0,), (0,), 0.0)  # structural zero stays stored
    assert len(m) == 2
    m.add_to_entry((2,), (0,), 1.0)  # counted after freeze(), not left out by the len above
    m.freeze()
    assert len(m) == len(m.triples()) == 3
    assert {(r, c): v for r, c, v in m.triples()}[((0,), (1,))] == 2.5


def test_set_row_to_identity():
    m = flat_system(3)
    m.add_to_entry((0,), (0,), 3.0)
    m.add_to_entry((0,), (1,), 4.0)
    m.add_to_entry((1,), (0,), 5.0)
    m.set_row_to_identity((0,))
    m.add_to_entry((0,), (2,), 7.0)  # identity rows apply when entries are summed
    m.freeze()
    items = {(r, c): v for r, c, v in m.triples()}
    assert items[((0,), (0,))] == 1.0
    assert items[((0,), (1,))] == 0.0
    assert items[((0,), (2,))] == 0.0
    assert items[((1,), (0,))] == 5.0


def test_freeze_guards():
    m = flat_system(1)
    m.add_to_entry((0,), (0,), 1.0)
    with pytest.raises(NotFrozen):
        m.triples()
    m.freeze()
    with pytest.raises(AlreadyFrozen):
        m.add_to_entry((0,), (0,), 1.0)
    with pytest.raises(AlreadyFrozen):
        m.set_row_to_identity((0,))
    with pytest.raises(AlreadyFrozen):
        m.freeze()


def test_matvec_2x2():
    m = flat_system(2)
    for (r, c), v in {((0,), (0,)): 2.0, ((0,), (1,)): 1.0,
                      ((1,), (0,)): 1.0, ((1,), (1,)): 3.0}.items():
        m.add_to_entry(r, c, v)
    m.freeze()
    x = NestedVector([1.0, 1.0])
    y = m.matvec(x)
    assert y.data == [3.0, 4.0]


def test_matvec_identity():
    m = flat_system(5)
    for i in range(5):
        m.add_to_entry((i,), (i,), 1.0)
    m.freeze()
    x = NestedVector([float(i) for i in range(5)])
    assert m.matvec(x).data == x.data


def test_matvec_requires_column_slots():
    m = flat_system(2)
    with pytest.raises(ShapeMismatch):
        m.add_to_entry((0,), (9,), 1.0)
    m.add_to_entry((0,), (1,), 1.0)
    m.freeze()
    for other_keys in (NestedVector([0.0] * 3), NestedVector([[0.0, 0.0]])):
        with pytest.raises(ShapeMismatch):
            m.matvec(other_keys)


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        keys = [(i,) for i in range(n)]
        m = flat_system(n)
        dense = np.zeros((n, n))
        for _ in range(int(rng.integers(1, 50))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            v = float(rng.normal())
            m.add_to_entry(keys[i], keys[j], v)
            dense[i, j] += v
        m.freeze()
        x = rng.normal(size=n)
        y = m.matvec(NestedVector(list(x)))
        assert np.max(np.abs(np.array(y.data) - dense @ x)) <= 1e-13


def test_matvec_on_nested_keys():
    basis, x = make_th_vector(1, 1)
    m = SparseSystem(x.layout)
    m.add_to_entry((1, 0), (0, 3, 1), 2.0)
    m.add_to_entry((1, 0), (1, 0), 1.0)
    m.freeze()
    x[(0, 3, 1)] = 4.0
    x[(1, 0)] = 1.0
    y = m.matvec(x)
    assert y[(1, 0)] == 9.0
    assert y[(0, 0, 0)] == 0.0


def test_matvec_is_bitwise_deterministic():
    rng = np.random.default_rng(59)
    n = 30
    entries = [
        (int(rng.integers(n)), int(rng.integers(n)), float(rng.normal()))
        for _ in range(200)
    ]
    x = [float(v) for v in rng.normal(size=n)]

    def run():
        m = flat_system(n)
        for i, j, v in entries:
            m.add_to_entry((i,), (j,), v)
        m.freeze()
        return m.matvec(NestedVector(list(x))).data

    assert run() == run()



def mixed_system(rng, identity_first, by_offsets):
    """A system of an element batch, keyed blocks and identity rows.

    Identity rows are set by key or, with ``by_offsets``, by offset.
    Returns the frozen system, a vector laid out like its batch and the
    dense matrix accumulated straight from the adds.
    """
    x = NestedVector([[0.0] * 7, [[0.0, 0.0]] * 4, 0.0])
    keys, n = x.layout.keys, len(x.layout)
    dense = np.zeros((n, n))
    fixed = []
    m = SparseSystem(x.layout)

    def add(i, j, v):
        m.add_to_entry(keys[i], keys[j], v)
        dense[i, j] += v

    def set_identity(rows):
        if by_offsets:
            m.set_rows_to_identity(x.layout, rows)
        else:
            for i in rows:
                m.set_row_to_identity(keys[i])

    if identity_first:
        fixed += [3, 11]
        set_identity(fixed)
        add(3, 5, 2.0)
        add(12, 0, -1.5)
    offsets = rng.integers(n, size=(9, 4))
    matrix = rng.normal(size=(4, 4))
    m.add_elements(x.layout, offsets, matrix)
    for row in offsets:  # rows may repeat an offset, which then accumulates
        np.add.at(dense, np.ix_(row, row), matrix)
    for _ in range(20):
        add(int(rng.integers(n)), int(rng.integers(n)), float(rng.normal()))
    rows, cols = rng.integers(n, size=3), rng.integers(n, size=2)
    block = rng.normal(size=(3, 2))
    m.add_block([keys[i] for i in rows], [keys[j] for j in cols], block)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            dense[r, c] += block[i, j]
    fixed += [0, 14]
    set_identity(fixed[-2:])
    dense[fixed] = 0.0
    dense[fixed, fixed] = 1.0
    m.freeze()
    x.values[:] = rng.normal(size=n)
    return m, x, dense


@pytest.mark.parametrize(
    "identity_first,by_offsets",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-by-offsets", "True-by-offsets"],
)
def test_mixed_system_matvec_matches_a_dense_oracle(identity_first, by_offsets):
    rng = np.random.default_rng(67 + identity_first)
    for _ in range(10):
        m, x, dense = mixed_system(rng, identity_first, by_offsets)
        slot = x.layout.offset
        summed = np.zeros_like(dense)
        for r, c, v in m.triples():
            summed[slot[r], slot[c]] += v
        assert np.max(np.abs(summed - dense)) <= 1e-13
        expected = summed @ x.values
        y = m.matvec(x).values
        assert np.max(np.abs(y - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))
        # equal keys on another layout object multiply alike
        assert np.array_equal(m.matvec(NestedVector(x.data)).values, y)
        assert np.array_equal(m.diagonal(x.layout), np.diag(summed))


def test_diagonal_is_bytewise_the_summed_diagonal():
    """Element tables with distinct offsets per row, keyed blocks, and a row
    that repeats an offset (its off-diagonal entries then meet the diagonal)."""
    rng = np.random.default_rng(71)
    x = NestedVector([[0.0] * 6, [0.0] * 5])
    n, keys = len(x.layout), x.layout.keys
    m = SparseSystem()
    distinct = np.array([rng.permutation(n)[:4] for _ in range(7)])
    m.add_elements(x.layout, distinct, rng.normal(size=(4, 4)))
    m.add_block([keys[i] for i in (2, 5, 7)], [keys[j] for j in (5, 2)], rng.normal(size=(3, 2)))
    m.add_to_entry(keys[3], keys[3], 0.25)
    m.add_elements(x.layout, [[1, 4, 1], [6, 2, 3]], rng.normal(size=(3, 3)))
    m.add_elements(x.layout, distinct[::-1].copy(), rng.normal(size=(4, 4)))
    m.set_row_to_identity(keys[0])
    m.freeze()
    slot = x.layout.offset
    summed = np.zeros((n, n))
    for r, c, v in m.triples():
        summed[slot[r], slot[c]] += v
    assert m.diagonal(x.layout).tobytes() == np.diag(summed).tobytes()


def test_keyed_entries_are_one_scatter_per_product(monkeypatch):
    """An element table plus 600 add_to_entry calls: two bincounts per product."""
    rng = np.random.default_rng(73)
    x = NestedVector([[0.0] * 12, [0.0] * 8])
    n, keys = len(x.layout), x.layout.keys
    m = SparseSystem()
    table = np.array([rng.permutation(n)[:5] for _ in range(9)])
    element = rng.normal(size=(5, 5))
    m.add_elements(x.layout, table, element)
    dense = np.zeros((n, n))
    for row in table:
        dense[np.ix_(row, row)] += element
    for i, j, v in zip(rng.integers(n, size=600), rng.integers(n, size=600), rng.normal(size=600)):
        m.add_to_entry(keys[i], keys[j], v)
        dense[i, j] += v
    m.freeze()
    apply = m.operator(x.layout)
    calls = []
    counted = np.bincount

    def counting(*args, **kwargs):
        calls.append(None)
        return counted(*args, **kwargs)

    v = rng.normal(size=n)
    monkeypatch.setattr(np, "bincount", counting)
    y = apply(v)
    monkeypatch.undo()
    assert len(calls) <= 2
    expected = dense @ v
    assert np.max(np.abs(y - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))


def test_add_elements_adopts_one_layout():
    x, other = NestedVector([0.0] * 4), NestedVector([0.0] * 4)
    outside = ([[0, len(x.layout)]], [[0, -1]])
    m = SparseSystem()
    for offsets in outside:
        with pytest.raises(IndexOutOfRange):
            m.add_elements(x.layout, offsets, np.eye(2))
    m.add_elements(other.layout, [[0, 1]], np.eye(2))  # the raises adopted no layout
    m = SparseSystem()
    m.add_elements(x.layout, [[0, 1], [1, 2]], np.eye(2))
    for offsets in outside:  # stores nothing: matvec and len below are unchanged
        with pytest.raises(IndexOutOfRange):
            m.add_elements(x.layout, offsets, np.eye(2))
    with pytest.raises(ShapeMismatch):
        m.add_to_entry((4,), (0,), 1.0)
    with pytest.raises(ShapeMismatch):
        m.add_elements(other.layout, [[0, 1]], np.eye(2))
    with pytest.raises(ValueError):
        m.add_elements(x.layout, [[0, 1]], np.eye(3))  # 3x3 matrix, 2 offsets
    m.add_to_entry((3,), (3,), 2.0)
    m.freeze()
    x.values[:] = [1.0, 2.0, 3.0, 4.0]
    assert m.matvec(x).data == [1.0, 4.0, 3.0, 8.0]
    assert len(m) == 8  # the 2x2 blocks overlap on (1, 1)

    # identity rows by offset adopt the layout the same way
    m = SparseSystem()
    m.set_rows_to_identity(x.layout, [3, 0])
    m.add_to_entry((2,), (1,), 5.0)
    m.add_to_entry((1,), (2,), 6.0)
    m.set_row_to_identity((1,))
    with pytest.raises(ShapeMismatch):
        m.set_rows_to_identity(other.layout, [2])
    for outside in ([4], [-1]):
        with pytest.raises(IndexOutOfRange):
            m.set_rows_to_identity(x.layout, outside)
    with pytest.raises(ShapeMismatch):
        m.add_elements(other.layout, [[0, 1]], np.eye(2))
    m.add_elements(x.layout, [[1, 2]], np.eye(2))
    m.freeze()
    assert m.matvec(x).data == [1.0, 2.0, 13.0, 4.0]
    assert [(r, c) for r, c, _ in m.triples()] == [
        ((0,), (0,)), ((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,)), ((3,), (3,))
    ]


def test_offset_tables_must_be_2d():
    x, other = NestedVector([0.0] * 4), NestedVector([0.0] * 4)
    m = SparseSystem()
    for offsets, matrix in (([], np.zeros((0, 0))), ([0, 1], np.eye(2)), ([[[0, 1]]], np.eye(2))):
        with pytest.raises(ShapeMismatch, match="offset table"):
            m.add_elements(x.layout, offsets, matrix)
    m.add_elements(other.layout, np.zeros((0, 2), dtype=int), np.eye(2))  # zero elements
    m.add_elements(other.layout, [[2, 3]], np.eye(2))  # the raises adopted no layout
    m.freeze()
    assert [(r, c) for r, c, _ in m.triples()] == [
        ((2,), (2,)), ((2,), (3,)), ((3,), (2,)), ((3,), (3,))
    ]


def test_offset_tables_must_be_integers():
    x = NestedVector([0.0] * 4)
    m = SparseSystem()
    for offsets in ([[0.5, 1.7]], [[True, False]], np.array([[0, 1]], dtype=float)):
        with pytest.raises(TypeError):
            m.add_elements(x.layout, offsets, np.eye(2))
        with pytest.raises(TypeError):
            m.set_rows_to_identity(x.layout, np.ravel(offsets))
    m.set_rows_to_identity(x.layout, [])  # an empty list stays accepted
    m.add_elements(x.layout, np.array([[0, 1]], dtype=np.int32), np.eye(2))
    m.freeze()
    assert [(r, c) for r, c, _ in m.triples()] == [
        ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))
    ]


def test_a_key_outside_the_layout_stores_nothing():
    with pytest.raises(ShapeMismatch):
        SparseSystem().add_to_entry((0,), (0,), 1.0)  # no layout yet
    x = NestedVector([[0.0, 0.0], [0.0, 0.0, 0.0]])
    m = SparseSystem(x.layout)
    m.add_to_entry((0, 0), (0, 0), 1.5)
    m.add_block([(0, 1), (1, 2)], [(1, 0)], [[2.0], [3.0]])
    with pytest.raises(ShapeMismatch):
        m.add_block([(0, 0), (0, 2)], [(1, 0)], [[1.0], [1.0]])  # (0, 2) is no entry
    with pytest.raises(ShapeMismatch):
        m.add_to_entry((1,), (0, 0), 1.0)  # (1,) is an inner node
    with pytest.raises(ShapeMismatch):
        m.set_row_to_identity((2, 0))
    m.set_row_to_identity((1, 1))
    m.freeze()
    assert m.triples() == (
        ((0, 0), (0, 0), 1.5), ((0, 1), (1, 0), 2.0), ((1, 1), (1, 1), 1.0), ((1, 2), (1, 0), 3.0)
    )
    x.values[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
    same = NestedVector(x.data)
    assert same.layout is not x.layout
    assert m.matvec(x).data == [[1.5, 6.0], [0.0, 4.0, 9.0]]
    assert np.array_equal(m.matvec(same).values, m.matvec(x).values)
    assert m.diagonal(x.layout).tolist() == [1.5, 0.0, 0.0, 1.0, 0.0]
    assert np.array_equal(m.diagonal(same.layout), m.diagonal(x.layout))


def interning_sum(blocks, identity):
    """Summed entries built the way the key-interning SparseSystem built them.

    ``blocks`` holds (row keys, column keys, dense block) in insertion
    order, ``identity`` the identity row keys.
    """
    keys = sorted(set(identity).union(*(r + c for r, c, _ in blocks)))
    ids = {key: k for k, key in enumerate(keys)}
    fixed = np.array([ids[key] for key in identity], dtype=np.intp)
    rows, cols, values = [fixed], [fixed], [np.zeros(len(fixed))]
    for r, c, block in blocks:
        r = np.array([ids[key] for key in r], dtype=np.intp)
        c = np.array([ids[key] for key in c], dtype=np.intp)
        rows.append(np.repeat(r, len(c)))
        cols.append(np.tile(c, len(r)))
        values.append(block.ravel())
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    order = np.argsort(rows * len(keys) + cols, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    summed = np.bincount(np.cumsum(new) - 1, weights=values, minlength=int(new.sum()))
    rows, cols = rows[new], cols[new]
    on_fixed = np.isin(rows, fixed)
    summed[on_fixed] = 0.0
    summed[on_fixed & (rows == cols)] = 1.0
    return keys, rows, cols, summed


def test_summed_taylor_hood_system_is_bitwise_the_interned_sum():
    basis = make_basis(StructuredGrid(32, 32), taylor_hood_tree())
    system = SparseSystem()
    assemble_stokes_matrix(basis, system)
    rhs = NestedVector()
    rhs.resize_from_basis(basis)
    apply_dirichlet(system, rhs, basis)
    system.freeze()

    view = basis.local_view()
    view.bind(0)
    matrix = assemble_element_matrix(view, view.geometry)
    blocks = []
    for e in range(basis.grid.num_elements):
        view.bind(e)
        blocks.append((view.multi_indices(), view.multi_indices(), matrix))
    identity = []
    for_each_boundary_dof(subspace_basis(basis, (0,)), identity.append)
    keys, rows, cols, values = interning_sum(blocks, tuple(identity))

    triples = system.triples()
    assert len(triples) == len(system) == 377_289
    assert [r for r, _, _ in triples] == [keys[k] for k in rows.tolist()]
    assert [c for _, c, _ in triples] == [keys[k] for k in cols.tolist()]
    assert np.array([v for _, _, v in triples]).tobytes() == values.tobytes()
