"""Multi-index construction, prefix relations and layout lookups."""

import numpy as np
import pytest

from fembasis import CapacityExceeded, MultiIndex, ShapeMismatch, is_prefix
from fembasis.multiindex import Layout


def test_construction_and_rendering():
    mi = MultiIndex((0, 1, 3))
    assert tuple(mi) == (0, 1, 3)
    assert str(mi) == "(0,1,3)"
    assert str(MultiIndex(())) == "()"
    assert str(MultiIndex((7,))) == "(7)"


def test_multiindex_is_a_tuple():
    mi = MultiIndex((0, 1))
    assert mi == (0, 1)
    assert hash(mi) == hash((0, 1))
    assert MultiIndex((0, 1)) < MultiIndex((1,))  # lexicographic like tuples
    assert {mi: "x"}[(0, 1)] == "x"


def test_capacity_is_eight_digits():
    MultiIndex(range(8))
    with pytest.raises(CapacityExceeded):
        MultiIndex(range(9))


def test_digits_must_be_natural_numbers():
    with pytest.raises(ValueError):
        MultiIndex((0, -1))
    with pytest.raises(TypeError):
        MultiIndex((0.5,))


def test_is_prefix_examples():
    assert is_prefix((0, 1), (0, 1, 3))
    assert is_prefix((), (2,))
    assert not is_prefix((1,), (0, 1))
    assert is_prefix((0, 1), (0, 1))


def test_is_prefix_reflexive_and_antisymmetric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = tuple(int(d) for d in rng.integers(0, 4, size=rng.integers(0, 5)))
        b = tuple(int(d) for d in rng.integers(0, 4, size=rng.integers(0, 5)))
        assert is_prefix(a, a)
        if is_prefix(a, b) and len(a) == len(b):
            assert a == b
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b


def test_layout_slots_and_same_keys():
    layout = Layout([MultiIndex((0, 0)), MultiIndex((0, 1)), MultiIndex((1,))])
    assert layout.slot([0, 1]) == 1
    assert layout.slot(MultiIndex((1,))) == 2
    assert layout.slot((0, 0)) == 0
    for missing in ((0,), [2], (0, 0, 0)):
        with pytest.raises(ShapeMismatch):
            layout.slot(missing)
    assert layout.slot(np.array([0, 1])) == 1
    assert layout.slot((np.int64(0), np.int64(1))) == 1
    with pytest.raises(ShapeMismatch):
        layout.slot(np.array([2, 0]))  # unhashable and missing
    lazy = Layout(lambda: [(0,), (1,)], 2)
    with pytest.raises(ShapeMismatch):
        lazy.slot((2,))  # before the offset table is built
    assert lazy.slot((1,)) == 1
    slots = layout.slots([(1,), (0, 0), [0, 1]])
    assert slots.dtype == np.intp
    assert slots.tolist() == [2, 0, 1]
    assert layout.same_keys(layout)
    assert layout.same_keys(Layout([(0, 0), (0, 1), (1,)]))
    assert not layout.same_keys(Layout([(0, 0), (0, 1)]))
    assert not layout.same_keys(Layout([(0, 0), (0, 1), (2,)]))
