"""Grammar, defaults, node validation and tree navigation."""

import numpy as np
import pytest

from fembasis import (
    CapacityExceeded,
    Composite,
    InvalidStrategy,
    LagrangeQk,
    Leaf,
    ParseError,
    PathOutOfRange,
    Power,
    Strategy,
    StructuredGrid,
    UnsupportedOrder,
    child_at,
    make_basis,
    parse_tree,
    render_tree,
    tree_depth,
)
from helpers import random_tree


def test_parse_taylor_hood_with_default_strategies():
    tree = parse_tree("composite(power(lagrange(2),2),lagrange(1))")
    assert tree == Composite(
        (Power(Leaf(2), 2, Strategy.BLOCKED_INTERLEAVED), Leaf(1)),
        Strategy.BLOCKED_LEXICOGRAPHIC,
    )


def test_parse_single_leaf():
    assert parse_tree("lagrange(1)") == Leaf(1)


def test_parse_accepts_short_and_long_strategy_names():
    short = parse_tree("power(lagrange(1),3,FI)")
    long = parse_tree("power(lagrange(1),3,FlatInterleaved)")
    assert short == long
    assert short.strategy is Strategy.FLAT_INTERLEAVED


def test_parse_ignores_whitespace():
    tree = parse_tree("  composite( power( lagrange(2) , 2 , BI ) , lagrange(1) , FL )  ")
    assert tree.strategy is Strategy.FLAT_LEXICOGRAPHIC
    assert tree.children[0].count == 2


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_tree("composite(lagrange(2)")
    assert err.value.position == len("composite(lagrange(2)")
    with pytest.raises(ParseError) as err:
        parse_tree("power(lagrange(1),x)")
    assert err.value.position == 18
    with pytest.raises(ParseError):
        parse_tree("lagrange(1) junk")


def test_parse_unknown_keyword():
    with pytest.raises(ParseError):
        parse_tree("simplex(1)")


def test_interleaved_on_composite_rejected():
    with pytest.raises(InvalidStrategy):
        parse_tree("composite(lagrange(1),lagrange(2),BI)")
    with pytest.raises(InvalidStrategy):
        Composite((Leaf(1),), Strategy.FLAT_INTERLEAVED)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        parse_tree("lagrange(3)")
    with pytest.raises(UnsupportedOrder):
        Leaf(0)
    for order in (0, 3):  # the leaf and the element read one list of orders
        with pytest.raises(UnsupportedOrder):
            LagrangeQk(order)
    assert [Leaf(k).order for k in (1, 2)] == [LagrangeQk(k).order for k in (1, 2)]


NON_INTEGERS = [2.0, True, np.float64(2.0), np.True_, "2"]


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_a_non_integer_leaf_order_is_refused_before_a_basis_is_built(bad):
    # refused by the leaf itself, not deep inside GlobalBasis, and never
    # rendered as a text such as lagrange(True) that parse_tree rejects
    with pytest.raises(TypeError, match="lagrange order"):
        make_basis(StructuredGrid(2, 2), Leaf(bad))


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_a_non_integer_power_count_is_refused_before_a_basis_is_built(bad):
    with pytest.raises(TypeError, match="power count"):
        make_basis(StructuredGrid(2, 2), Power(Leaf(1), bad))


def test_numpy_integer_orders_and_counts_become_ints():
    tree = Power(Leaf(np.int64(2)), np.int32(3))
    assert tree == Power(Leaf(2), 3)
    assert type(tree.count) is int and type(tree.child.order) is int
    assert render_tree(tree) == "power(lagrange(2),3,BlockedInterleaved)"
    assert parse_tree(render_tree(tree)) == tree


def test_power_count_must_be_positive():
    with pytest.raises(ValueError):
        Power(Leaf(1), 0)


def test_depth_cap():
    deep = "power(power(power(lagrange(1),2),2),2)"
    parse_tree(deep)  # depth 4 is fine
    with pytest.raises(CapacityExceeded):
        parse_tree(f"power({deep},2)")
    assert tree_depth(parse_tree(deep)) == 4


def test_child_at_navigation():
    th = parse_tree("composite(power(lagrange(2),3),lagrange(1))")
    assert child_at(th, ()) is th
    assert child_at(th, (0, 1)) == Leaf(2)
    assert child_at(th, (1,)) == Leaf(1)
    with pytest.raises(PathOutOfRange):
        child_at(th, (2,))
    with pytest.raises(PathOutOfRange):
        child_at(th, (1, 0))
    with pytest.raises(PathOutOfRange):
        child_at(th, (0, 3))


def test_render_is_canonical_and_round_trips():
    tree = parse_tree("composite(power(lagrange(2),2),lagrange(1))")
    text = render_tree(tree)
    assert text == (
        "composite(power(lagrange(2),2,BlockedInterleaved),lagrange(1),"
        "BlockedLexicographic)"
    )
    assert parse_tree(text) == tree


def test_round_trip_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree = random_tree(rng)
        assert parse_tree(render_tree(tree)) == tree


def test_trees_are_immutable_and_hashable():
    a = parse_tree("composite(power(lagrange(2),2),lagrange(1))")
    b = parse_tree("composite(power(lagrange(2),2),lagrange(1))")
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.strategy = Strategy.FLAT_LEXICOGRAPHIC
