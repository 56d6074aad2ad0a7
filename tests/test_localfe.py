"""Tensor Lagrange shape functions against closed forms and finite differences,
and the shared Gauss rules and 1-D line matrices built from them."""

import numpy as np
import pytest

import fembasis
from fembasis import (
    LagrangeQk,
    UnsupportedOrder,
    gauss_legendre_unit,
    lagrange_element,
)
from fembasis.localfe import (
    _line_integrals,
    derivatives_1d,
    lagrange_1d,
    line_matrices,
    values_1d,
)


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
    assert lagrange_element(np.int64(2)) is lagrange_element(2)  # numpy integers stay accepted


@pytest.mark.parametrize("bad", [2.0, True, np.float64(1.0), np.True_, "2"])
def test_lagrange_element_rejects_non_integer_orders_cached_or_not(bad):
    fembasis.localfe._element.cache_clear()
    with pytest.raises(TypeError):
        lagrange_element(bad)
    q1, q2 = lagrange_element(1), lagrange_element(2)
    with pytest.raises(TypeError):  # also once the integer entry is cached
        lagrange_element(bad)
    with pytest.raises(TypeError, match="lagrange order"):  # and by the class itself
        LagrangeQk(bad)
    assert (q1.order, q1.count, q2.order, q2.count) == (1, 4, 2, 9)
    assert {type(v) for v in (q1.order, q1.count, q2.order, q2.count)} == {int}
    assert type(LagrangeQk(np.int64(2)).count) is int  # numpy integers stay accepted, as ints


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gauss_rules_are_shared_read_only_and_numpys_mapped_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    points, weights = gauss_legendre_unit(n)
    assert points.tobytes() == ((x + 1.0) / 2.0).tobytes()
    assert weights.tobytes() == (w / 2.0).tobytes()
    for array in (points, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert gauss_legendre_unit(n)[0] is points and gauss_legendre_unit(n)[1] is weights


def test_gauss_rules_reject_bad_point_counts():
    with pytest.raises(ValueError):
        gauss_legendre_unit(0)
    fembasis.quadrature._line_rule.cache_clear()
    for bad, equal in ((2.0, 2), (True, 1)):
        with pytest.raises(TypeError, match="quadrature point count"):
            gauss_legendre_unit(bad)
        gauss_legendre_unit(equal)
        with pytest.raises(TypeError, match="quadrature point count"):  # also once cached
            gauss_legendre_unit(bad)
    assert gauss_legendre_unit(np.int64(2)) is gauss_legendre_unit(2)


def cell_loop_line_matrices(order, column_order, cells):
    """line_matrices as one add of the whole scaled local block per cell, the reference."""
    x, w = np.polynomial.legendre.leggauss(max(order, column_order) + 1)
    points, weights = (x + 1.0) / 2.0, w / 2.0
    values, slopes = values_1d(order, points), derivatives_1d(order, points)
    column_values = values_1d(column_order, points) * weights
    column_slopes = derivatives_1d(column_order, points) * weights
    h = 1.0 / cells
    local = np.stack(
        [slopes @ column_slopes.T / h, values @ column_values.T * h, slopes @ column_values.T]
    )
    matrices = np.zeros((3, order * cells + 1, column_order * cells + 1))
    for c in range(cells):
        rows = slice(order * c, order * (c + 1) + 1)
        cols = slice(column_order * c, column_order * (c + 1) + 1)
        matrices[:, rows, cols] += local
    return matrices


@pytest.mark.parametrize("cells", [1, 2, 7, 128])
@pytest.mark.parametrize("order,column_order", [(2, 2), (2, 1), (1, 1)])
def test_line_matrices_match_the_cell_loop_bitwise(order, column_order, cells):
    expected = cell_loop_line_matrices(order, column_order, cells)
    got = line_matrices(order, column_order, cells)
    assert len(got) == 3
    for matrix, reference in zip(got, expected):
        assert matrix.shape == reference.shape
        assert matrix.tobytes() == reference.tobytes()
    integrals = _line_integrals(order, column_order)
    assert not integrals.flags.writeable and _line_integrals(order, column_order) is integrals


@pytest.mark.parametrize("order", [1, 2])
def test_lagrange_1d_on_floats_is_values_1d_on_numpy_scalars(order):
    for x in np.linspace(0.0, 1.0, 41).tolist() + [1 / 3, 0.1, 0.7]:
        values = lagrange_1d(order, x)
        assert {type(v) for v in values} == {float}
        assert np.array(values).tobytes() == values_1d(order, np.float64(x)).tobytes()
