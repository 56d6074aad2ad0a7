"""Basis tree descriptions: node kinds, merging strategies, text grammar.

A function space basis is described by a small tree.  Leaves are tensor
Lagrange elements of a given order; ``power`` repeats one subtree a fixed
number of times; ``composite`` glues distinct subtrees together.  Power and
composite nodes carry an index merging strategy that decides how the
multi-indices of their children combine into multi-indices of the whole.

The textual grammar, used by the command line tool and round-tripped by
:func:`render_tree`::

    node  := "lagrange(" int ")"
           | "power(" node "," int ["," strat] ")"
           | "composite(" node {"," node} ["," strat] ")"
    strat := BL | BI | FL | FI | BlockedLexicographic | BlockedInterleaved
           | FlatLexicographic | FlatInterleaved

Whitespace between tokens is insignificant.  Omitted strategies default to
BlockedLexicographic on composite nodes and BlockedInterleaved on power
nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import (
    CapacityExceeded,
    InvalidStrategy,
    ParseError,
    PathOutOfRange,
    integer,
)
from .localfe import lagrange_element

MAX_DEPTH = 4


class Strategy(Enum):
    """How a non-leaf node merges the multi-indices of its children.

    Blocked strategies add a digit (in front for lexicographic, at the back
    for interleaved); flat strategies fold the child's leading digit into a
    single number, either by offsetting it past the preceding siblings
    (lexicographic) or by striding it with the child count (interleaved).
    The interleaved variants require all children to look alike and are
    therefore only allowed on power nodes.
    """

    BLOCKED_LEXICOGRAPHIC = "BlockedLexicographic"
    BLOCKED_INTERLEAVED = "BlockedInterleaved"
    FLAT_LEXICOGRAPHIC = "FlatLexicographic"
    FLAT_INTERLEAVED = "FlatInterleaved"

    @property
    def short(self) -> str:
        """The capitals of the long name: BL, BI, FL or FI."""
        return "".join(c for c in self.value if c.isupper())

    @property
    def is_interleaved(self) -> bool:
        return self in (Strategy.BLOCKED_INTERLEAVED, Strategy.FLAT_INTERLEAVED)

    @property
    def is_flat(self) -> bool:
        return self in (Strategy.FLAT_LEXICOGRAPHIC, Strategy.FLAT_INTERLEAVED)


_STRATEGY_NAMES = {s.value: s for s in Strategy}
_STRATEGY_NAMES.update({s.short: s for s in Strategy})


BasisTree = Union["Leaf", "Power", "Composite"]


def tree_depth(tree: BasisTree) -> int:
    if isinstance(tree, Power):
        return 1 + tree_depth(tree.child)
    return 1 + max(map(tree_depth, tree.children), default=0)


def _check_inner(node, children) -> None:
    """The rules every power and composite node keeps: tree children, a strategy, the depth cap."""
    for c in children:
        if not isinstance(c, (Leaf, Power, Composite)):
            raise TypeError(f"{type(node).__name__.lower()} child must be a basis tree, got {c!r}")
    if not isinstance(node.strategy, Strategy):
        raise InvalidStrategy(f"not a strategy: {node.strategy!r}")
    # depth cap keeps merged multi-indices within the 8-digit capacity
    if tree_depth(node) > MAX_DEPTH:
        raise CapacityExceeded(f"basis tree depth exceeds {MAX_DEPTH}")


@dataclass(frozen=True)
class Leaf:
    """Scalar tensor Lagrange element of the given polynomial order."""

    order: int
    children = ()  # not a field: a leaf has no children, so no path descends below it

    def __post_init__(self):
        # lagrange_element checks the order: an int (else TypeError) in SUPPORTED_ORDERS
        object.__setattr__(self, "order", lagrange_element(self.order).order)


@dataclass(frozen=True)
class Power:
    """``count`` identical copies of one subtree."""

    child: BasisTree
    count: int
    strategy: Strategy = Strategy.BLOCKED_INTERLEAVED

    def __post_init__(self):
        object.__setattr__(self, "count", integer(self.count, "power count"))
        if self.count < 1:
            raise ValueError(f"power count must be >= 1, got {self.count}")
        _check_inner(self, (self.child,))


@dataclass(frozen=True)
class Composite:
    """Ordered tuple of possibly different subtrees.

    Interleaved strategies are rejected here: they rely on all children
    producing identically shaped index sets, which only power guarantees.
    """

    children: tuple
    strategy: Strategy = Strategy.BLOCKED_LEXICOGRAPHIC

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("composite needs at least one child")
        _check_inner(self, self.children)
        if self.strategy.is_interleaved:
            raise InvalidStrategy(f"{self.strategy.value} is only allowed on power nodes")


def child_at(tree: BasisTree, path) -> BasisTree:
    """Node of ``tree`` addressed by int or numpy-integer child digits (else TypeError).

    The empty path addresses the tree itself.  Power nodes accept any digit
    below their count and always descend into the one repeated child.
    """
    node = tree
    for depth, digit in enumerate(path):
        digit = integer(digit, "path digit")
        power = isinstance(node, Power)
        count = node.count if power else len(node.children)
        if not 0 <= digit < count:
            raise PathOutOfRange(f"path {tuple(path)} has no child {digit} at depth {depth}")
        node = node.child if power else node.children[digit]
    return node


def render_tree(tree: BasisTree) -> str:
    """Canonical text for a tree; strategies always spelled out long."""
    if isinstance(tree, Leaf):
        return f"lagrange({tree.order})"
    if isinstance(tree, Power):
        return f"power({render_tree(tree.child)},{tree.count},{tree.strategy.value})"
    inner = ",".join(render_tree(c) for c in tree.children)
    return f"composite({inner},{tree.strategy.value})"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[(),]|\S")
_KEYWORDS = ("lagrange", "power", "composite")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return None, len(self.text)

    def next(self, expected: str):
        tok, at = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, expected {expected}", at)
        self.pos += 1
        return tok, at

    def expect(self, literal: str):
        tok, at = self.next(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", at)
        return at


def parse_tree(text: str) -> BasisTree:
    """Parse the grammar above into a basis tree.

    Raises ParseError with the offending position for malformed text,
    unknown strategy names included; UnsupportedOrder for orders outside
    {1, 2}; ValueError for a power count of 0; InvalidStrategy for
    interleaved strategies on composite nodes; CapacityExceeded for trees
    deeper than MAX_DEPTH.
    """
    toks = _Tokens(text)
    tree = _parse_node(toks)
    tok, at = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", at)
    return tree


def _parse_int(toks: _Tokens) -> int:
    tok, at = toks.next("an integer")
    if not tok.isdecimal():  # isdigit would pass '²', which int() refuses
        raise ParseError(f"expected an integer, found {tok!r}", at)
    return int(tok)


def _parse_node(toks: _Tokens) -> BasisTree:
    tok, at = toks.next("'lagrange', 'power' or 'composite'")
    if tok not in _KEYWORDS:
        raise ParseError(
            f"expected 'lagrange', 'power' or 'composite', found {tok!r}", at
        )
    toks.expect("(")

    if tok == "lagrange":
        order = _parse_int(toks)
        toks.expect(")")
        return Leaf(order)

    if tok == "power":
        child = _parse_node(toks)
        toks.expect(",")
        count = _parse_int(toks)
        strategy = Strategy.BLOCKED_INTERLEAVED
        nxt, _ = toks.peek()
        if nxt == ",":
            toks.next("','")
            name, nat = toks.next("a strategy name")
            if name not in _STRATEGY_NAMES:
                raise ParseError(f"expected a strategy name, found {name!r}", nat)
            strategy = _STRATEGY_NAMES[name]
        toks.expect(")")
        return Power(child, count, strategy)

    children = [_parse_node(toks)]
    strategy = Strategy.BLOCKED_LEXICOGRAPHIC
    while True:
        nxt, _ = toks.peek()
        if nxt != ",":
            break
        toks.next("','")
        name, nat = toks.peek()
        if name in _STRATEGY_NAMES:
            toks.next("a strategy name")
            strategy = _STRATEGY_NAMES[name]
            break
        children.append(_parse_node(toks))
    toks.expect(")")
    return Composite(tuple(children), strategy)
