"""Multi-indices and the prefix algebra over sets of them.

A multi-index is a short tuple of natural numbers addressing one basis
function of a global function space basis.  A set of multi-indices is read
as the set of leaf paths of an ordered tree, an index tree: the children of
every node are numbered consecutively from zero, and no entry is an inner
node.  A :class:`Layout` lists the entries of one index tree in
lexicographic order; the position of an entry is its flat offset, and
:meth:`Layout.degree` is the child count the tree has below a prefix.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Iterable

from .errors import CapacityExceeded, PrefixNotFound

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
    of ``keys``.  ``offset`` is built on its first read, so a layout used
    only through its length builds neither.
    """

    __slots__ = ("_size", "_source", "_keys", "_offset")

    def __init__(self, keys, size=None):
        if callable(keys):
            self._source, self._size, self._keys = keys, size, None
        else:
            self._source, self._keys = None, tuple(keys)
            self._size = len(self._keys)
        self._offset = None

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

    def __len__(self) -> int:
        return self._size

    def degree(self, prefix) -> int:
        """Children of the tree below ``prefix``; 0 when it is an entry.

        Raises PrefixNotFound when ``prefix`` is neither an entry nor a
        strict prefix of one.
        """
        p = tuple(as_multi_index(prefix))
        keys = self.keys
        lo = bisect_left(keys, p)
        if lo < len(keys) and keys[lo] == p:
            return 0
        if lo == len(keys) or keys[lo][: len(p)] != p:
            raise PrefixNotFound(f"{MultiIndex(p)} is neither an entry nor a prefix")
        # the keys below p are consecutive; the last one has the largest digit
        hi = bisect_left(keys, p[:-1] + (p[-1] + 1,)) if p else len(keys)
        return keys[hi - 1][len(p)] + 1


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
