"""Nested vectors and multi-index keyed sparse systems."""

import numpy as np
import pytest

from fembasis import (
    AlreadyFrozen,
    MultiIndex,
    NestedVector,
    NotFrozen,
    ShapeMismatch,
    SparseSystem,
    StructuredGrid,
    make_basis,
    parse_tree,
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
    z = v.zeros_like()
    assert all(value == 0.0 for _, value in z.entries())


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


def test_add_to_entry_accumulates():
    m = SparseSystem()
    m.add_to_entry((0,), (1,), 2.0)
    m.add_to_entry((0,), (1,), 0.5)
    m.add_to_entry((0,), (0,), 0.0)  # structural zero stays stored
    assert len(m) == 2
    assert dict(m.items())[((0,), (1,))] == 2.5


def test_set_row_to_identity():
    m = SparseSystem()
    m.add_to_entry((0,), (0,), 3.0)
    m.add_to_entry((0,), (1,), 4.0)
    m.add_to_entry((1,), (0,), 5.0)
    m.set_row_to_identity((0,))
    m.add_to_entry((0,), (2,), 7.0)  # identity rows apply when entries are summed
    items = dict(m.items())
    assert items[((0,), (0,))] == 1.0
    assert items[((0,), (1,))] == 0.0
    assert items[((0,), (2,))] == 0.0
    assert items[((1,), (0,))] == 5.0


def test_freeze_guards():
    m = SparseSystem()
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
    m = SparseSystem()
    for (r, c), v in {((0,), (0,)): 2.0, ((0,), (1,)): 1.0,
                      ((1,), (0,)): 1.0, ((1,), (1,)): 3.0}.items():
        m.add_to_entry(r, c, v)
    m.freeze()
    x = NestedVector([1.0, 1.0])
    y = m.matvec(x)
    assert y.data == [3.0, 4.0]


def test_matvec_identity():
    m = SparseSystem()
    for i in range(5):
        m.add_to_entry((i,), (i,), 1.0)
    m.freeze()
    x = NestedVector([float(i) for i in range(5)])
    assert m.matvec(x).data == x.data


def test_matvec_requires_column_slots():
    m = SparseSystem()
    m.add_to_entry((0,), (9,), 1.0)
    m.freeze()
    with pytest.raises(ShapeMismatch):
        m.matvec(NestedVector([0.0, 0.0]))


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        keys = [(i,) for i in range(n)]
        m = SparseSystem()
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
    m = SparseSystem()
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
        m = SparseSystem()
        for i, j, v in entries:
            m.add_to_entry((i,), (j,), v)
        m.freeze()
        return m.matvec(NestedVector(list(x))).data

    assert run() == run()


def test_dump_format():
    m = SparseSystem()
    m.add_to_entry((1, 0), (0, 1), 0.5)
    m.add_to_entry((0, 1), (1, 0), -2.0)
    m.add_to_entry((0, 1), (0, 1), 1.0)
    assert m.dump().splitlines() == [
        "(0,1) (0,1) 1.0",
        "(0,1) (1,0) -2.0",
        "(1,0) (0,1) 0.5",
    ]
