"""Multi-indices and the prefix algebra over sets of them.

A multi-index is a short tuple of natural numbers addressing one basis
function of a global function space basis.  A set of multi-indices is read
as the set of leaf paths of an ordered tree, an index tree: the children of
every node are numbered consecutively from zero, and no entry is an inner
node.  A :class:`Layout` lists the entries of one index tree in
lexicographic order; the position of an entry is its flat offset.  Only
the layout turns keys into offsets (:meth:`Layout.slot`) and compares key
lists (:meth:`Layout.same_keys`); containers and functions ask it.  One
rule turns one value per entry into lists nested like the tree
(:func:`nesting`); nested vectors and evaluated range values both use it.
"""

from __future__ import annotations

import operator
from itertools import groupby
from typing import Iterable

import numpy as np

from .errors import CapacityExceeded, ShapeMismatch

MAX_DIGITS = 8


class MultiIndex(tuple):
    """Immutable tuple of at most eight non-negative integer digits.

    Instances compare, hash and sort exactly like tuples, so they can key
    dictionaries and be ordered lexicographically.  Rendering follows the
    compact form used everywhere in this package: ``(0,1,3)``.
    """

    __slots__ = ()

    def __new__(cls, digits: Iterable[int] = ()):
        values = tuple(operator.index(d) for d in digits)
        if len(values) > MAX_DIGITS:
            raise CapacityExceeded(
                f"multi-index has {len(values)} digits, capacity is {MAX_DIGITS}"
            )
        if any(d < 0 for d in values):
            raise ValueError(f"multi-index digits must be non-negative: {values}")
        return super().__new__(cls, values)

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self) + ")"

    def __repr__(self) -> str:
        return f"MultiIndex({tuple(self)!r})"


class Layout:
    """The entries of an index tree in lexicographic order.

    ``keys[k]`` is the multi-index at flat offset ``k`` and ``offset`` maps
    every key (or an equal plain tuple) back to its offset.  ``keys`` is
    either the entries themselves or a function that returns them; a
    function needs the entry count as ``size`` and runs on the first read
    of ``keys``.  ``offset`` and ``nest``, the :func:`nesting` of the keys,
    are built on their first read, so a layout used only through its
    length builds none of them.
    """

    __slots__ = ("_size", "_source", "_keys", "_offset", "_nest")

    def __init__(self, keys, size=None):
        if callable(keys):
            self._source, self._size, self._keys = keys, size, None
        else:
            self._source, self._keys = None, tuple(keys)
            self._size = len(self._keys)
        self._offset = self._nest = None

    @property
    def keys(self) -> tuple:
        if self._keys is None:
            self._keys, self._source = tuple(self._source()), None
        return self._keys

    @property
    def offset(self) -> dict:
        if self._offset is None:
            self._offset = {key: k for k, key in enumerate(self.keys)}
        return self._offset

    @property
    def nest(self):
        if self._nest is None:
            self._nest = nesting(self.keys)
        return self._nest

    def __len__(self) -> int:
        return self._size

    def slot(self, key) -> int:
        """Offset of ``key``: a tuple, a MultiIndex or any iterable of digits.

        Raises ShapeMismatch when ``key`` is not an entry.
        """
        try:  # one lookup for a present key; TypeError: no table yet, or unhashable
            return self._offset[key]
        except (KeyError, TypeError):
            pass
        if not isinstance(key, tuple):
            key = tuple(as_multi_index(key))
        offset = self.offset.get(key)
        if offset is None:
            raise ShapeMismatch(f"{key} is not an entry of the layout")
        return offset

    def slots(self, keys) -> np.ndarray:
        """:meth:`slot` of every key, in order, as an intp array."""
        return np.fromiter(map(self.slot, keys), dtype=np.intp)

    def same_keys(self, other: Layout) -> bool:
        """True when both layouts list the same keys in the same order."""
        return self is other or (len(self) == len(other) and self.keys == other.keys)


def nesting(paths):
    """Function nesting one value per entry of an index tree like the tree.

    ``paths`` are the entries in lexicographic order, and the function takes
    the value of ``paths[k]`` at position ``k``.  It returns that value for
    the entry ``()``, else a list per inner node of its children's results;
    empty ``paths`` give ``[]``.
    """

    def shape(entries, depth):  # the (position, path) entries below one node at ``depth``
        if len(entries[0][1]) == depth:
            return operator.itemgetter(entries[0][0])
        children = groupby(entries, lambda entry: entry[1][depth])
        parts = [shape(list(child), depth + 1) for _, child in children]
        return lambda values: [part(values) for part in parts]

    entries = list(enumerate(paths))
    return shape(entries, 0) if entries else lambda values: []


def as_multi_index(value) -> MultiIndex:
    """Normalize a MultiIndex or any iterable of integers to a MultiIndex."""
    if isinstance(value, MultiIndex):
        return value
    return MultiIndex(value)


def is_prefix(prefix, index) -> bool:
    """True when ``prefix`` is an initial digit run of ``index``.

    Every multi-index is a prefix of itself and the empty multi-index is a
    prefix of everything.
    """
    p = tuple(prefix)
    i = tuple(index)
    return len(p) <= len(i) and i[: len(p)] == p
