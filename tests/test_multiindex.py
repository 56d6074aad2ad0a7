"""Multi-index construction, prefix relations and layout degrees."""

import numpy as np
import pytest

from fembasis import CapacityExceeded, MultiIndex, PrefixNotFound, is_prefix
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


def degree(entries, prefix):
    """Layout.degree over the entries in lexicographic order."""
    return Layout(sorted(MultiIndex(e) for e in entries)).degree(prefix)


def test_prefix_degree_on_velocity_pressure_set():
    n2, n1 = 4, 3
    entries = {(0, i, j) for i in range(3) for j in range(n2)}
    entries |= {(1, k) for k in range(n1)}
    assert degree(entries, ()) == 2
    assert degree(entries, (0,)) == 3
    assert degree(entries, (0, 1)) == n2
    assert degree(entries, (1, 0)) == 0  # full entry
    with pytest.raises(PrefixNotFound):
        degree(entries, (5,))
    with pytest.raises(PrefixNotFound):
        degree(entries, (1, 0, 0))


def test_prefix_degree_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        entries = set()
        for _ in range(30):
            length = int(rng.integers(1, 4))
            entries.add(tuple(int(d) for d in rng.integers(0, 5, size=length)))
        prefixes = {e[:t] for e in entries for t in range(len(e) + 1)}
        for p in prefixes:
            if p in entries:
                assert degree(entries, p) == 0
            else:
                nxt = [e[len(p)] for e in entries if len(e) > len(p) and e[: len(p)] == p]
                assert degree(entries, p) == max(nxt) + 1
