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


def test_short_names_are_the_capitals_of_the_long_names():
    assert [s.short for s in Strategy] == ["BL", "BI", "FL", "FI"]


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
    for text, position in [("power(lagrange(1),2,XX)", 20), ("composite(lagrange(1),XX)", 22)]:
        with pytest.raises(ParseError) as err:  # an unknown strategy name
            parse_tree(text)
        assert err.value.position == position
    with pytest.raises(ParseError):
        parse_tree("lagrange(1) junk")
    # a token other than the literal the grammar expects there
    for text, position in [("lagrange(1,", 10), ("power(lagrange(1) 2)", 18)]:
        with pytest.raises(ParseError, match="^expected '[),]', found") as err:
            parse_tree(text)
        assert err.value.position == position


@pytest.mark.parametrize(
    "text, position", [("lagrange(²)", 9), ("power(lagrange(1),²)", 18)]
)
def test_a_digit_that_is_not_decimal_is_a_parse_error(text, position):
    # '²'.isdigit() is true, but int('²') raises a bare ValueError
    with pytest.raises(ParseError, match="expected an integer") as err:
        parse_tree(text)
    assert err.value.position == position


def test_decimal_digits_of_other_scripts_are_integers():
    assert parse_tree("lagrange(\uff11)") == Leaf(1)  # FULLWIDTH DIGIT ONE


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


def test_inner_nodes_refuse_a_strategy_that_is_not_a_strategy():
    for make in (lambda s: Power(Leaf(1), 2, s), lambda s: Composite((Leaf(1),), s)):
        for bad in ("BL", None):
            with pytest.raises(InvalidStrategy, match="not a strategy"):
                make(bad)


def test_inner_nodes_name_their_kind_for_a_child_that_is_not_a_tree():
    with pytest.raises(TypeError, match="power child must be a basis tree"):
        Power("lagrange(1)", 2)
    with pytest.raises(TypeError, match="composite child must be a basis tree"):
        Composite((Leaf(1), 1))


def test_composite_needs_a_child():
    for empty in ((), []):
        with pytest.raises(ValueError, match="^composite needs at least one child$"):
            Composite(empty)


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
