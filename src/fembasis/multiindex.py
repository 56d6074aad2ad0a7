"""Multi-indices and the prefix algebra over sets of them.

A multi-index is a short tuple of natural numbers addressing one basis
function of a global function space basis.  A set of multi-indices is read
as the set of leaf paths of an ordered tree; the helpers here test prefix
relations, compute the degree (child count) the tree has below a given
prefix, and check the defining property of such index trees: the children
of every node are numbered consecutively from zero, and no entry is an
inner node.  A :class:`Layout` lists the entries of one index tree in
lexicographic order; the position of an entry is its flat offset.
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
    every key (or an equal plain tuple) back to its offset.
    """

    __slots__ = ("keys", "offset")

    def __init__(self, keys):
        self.keys = tuple(keys)
        self.offset = {key: k for k, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

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


def is_strict_prefix(prefix, index) -> bool:
    """True when ``prefix`` is a prefix of ``index`` and shorter than it."""
    return len(tuple(prefix)) < len(tuple(index)) and is_prefix(prefix, index)


def prefix_degree(entries, prefix) -> int:
    """Number of children the index tree of ``entries`` has below ``prefix``.

    Returns ``max(k for (prefix, k, ...) in entries) + 1``, which is 0 when
    ``prefix`` is itself an entry.  Raises PrefixNotFound when ``prefix`` is
    neither an entry nor a strict prefix of one.
    """
    p = tuple(as_multi_index(prefix))
    t = len(p)
    best = -1
    seen_entry = False
    for e in entries:
        e = tuple(e)
        if e == p:
            seen_entry = True
        elif len(e) > t and e[:t] == p:
            if e[t] > best:
                best = e[t]
    if seen_entry:
        return 0
    if best < 0:
        raise PrefixNotFound(f"{MultiIndex(p)} is neither an entry nor a prefix")
    return best + 1


def validate_index_tree(entries) -> bool:
    """Check that a set of multi-indices forms a valid index tree.

    Valid means: for every entry and every strict prefix P of it with next
    digit i, the digits observed below P are exactly 0..max (no gaps), and
    P itself is not an entry.  The empty set is trivially valid.
    """
    entry_set = {tuple(e) for e in entries}
    children: dict[tuple, set] = {}
    for e in entry_set:
        for t in range(len(e)):
            children.setdefault(e[:t], set()).add(e[t])
    for prefix, digits in children.items():
        if prefix in entry_set:
            return False
        if len(digits) != max(digits) + 1:
            return False
    return True
