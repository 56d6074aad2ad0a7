"""Tensor Lagrange shape functions against closed forms and finite differences."""

import numpy as np
import pytest

from fembasis import LagrangeQk, UnsupportedOrder, lagrange_element


def fd_gradient(fe, m, point, h=1e-5):
    """Central difference gradient of shape function m, the test oracle."""
    x, y = point
    gx = (fe.values((x + h, y))[m] - fe.values((x - h, y))[m]) / (2 * h)
    gy = (fe.values((x, y + h))[m] - fe.values((x, y - h))[m]) / (2 * h)
    return np.array([gx, gy])


def test_orders_and_counts():
    assert LagrangeQk(1).count == 4
    assert LagrangeQk(2).count == 9
    with pytest.raises(UnsupportedOrder):
        LagrangeQk(3)


def test_q1_values_closed_form():
    q1 = LagrangeQk(1)
    vals = q1.values((0.0, 0.0))
    assert np.allclose(vals, [1, 0, 0, 0], atol=0)
    vals = q1.values((0.5, 0.5))
    assert np.allclose(vals, [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    vals = q1.values((0.25, 0.75))
    assert abs(vals[0] - 0.75 * 0.25) < 1e-15  # (1-x)(1-y)


def test_q2_center_node():
    q2 = LagrangeQk(2)
    vals = q2.values((0.5, 0.5))
    assert vals[4] == 1.0
    assert np.allclose(np.delete(vals, 4), 0.0, atol=1e-15)


def test_kronecker_property_is_exact():
    for order in (1, 2):
        fe = LagrangeQk(order)
        # local index b*(k+1)+a sits at (a/k, b/k)
        nodes = [(a / order, b / order) for b in range(order + 1) for a in range(order + 1)]
        for m, node in enumerate(nodes):
            vals = fe.values(node)
            expected = np.zeros(fe.count)
            expected[m] = 1.0
            assert np.max(np.abs(vals - expected)) <= 1e-14


def test_partition_of_unity():
    rng = np.random.default_rng(17)
    for order in (1, 2):
        fe = LagrangeQk(order)
        for _ in range(100):
            p = tuple(rng.random(2))
            assert abs(fe.values(p).sum() - 1.0) <= 1e-13
            assert np.max(np.abs(fe.gradients(p).sum(axis=0))) <= 1e-12


def test_q1_gradient_closed_form():
    q1 = LagrangeQk(1)
    g = q1.gradients((0.0, 0.0))
    assert np.allclose(g[0], [-1.0, -1.0], atol=1e-15)
    assert np.allclose(g[1], [1.0, 0.0], atol=1e-15)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(29)
    for order in (1, 2):
        fe = LagrangeQk(order)
        for _ in range(100):
            p = tuple(1e-4 + (1 - 2e-4) * rng.random(2))
            grads = fe.gradients(p)
            for m in range(fe.count):
                assert np.max(np.abs(grads[m] - fd_gradient(fe, m, p))) <= 1e-6


def test_shared_element_cache():
    assert lagrange_element(2) is lagrange_element(2)
    assert lagrange_element(1).order == 1
