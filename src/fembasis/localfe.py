"""Tensor product Lagrange elements on the reference square [0,1]^2.

Order k places (k+1)^2 nodes at (a/k, b/k) for a, b in 0..k; the node with
local index m = b*(k+1) + a carries the shape function l_a(xi) * l_b(eta)
built from the one-dimensional Lagrange polynomials over the equispaced
nodes.  Orders 1 and 2 are supported, and :func:`values_1d` and
:func:`derivatives_1d` tabulate their one-dimensional values and slopes
in closed form (Q1: 1-x, x; Q2: (2x-1)(x-1), 4x(1-x), x(2x-1));
:func:`lagrange_1d` gives the values as a list, of floats at a float.
:func:`line_matrices` assembles the same polynomials into stiffness, mass
and slope-value coupling matrices of a uniformly split unit interval.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UnsupportedOrder, integer
from .quadrature import gauss_legendre_unit, read_only

SUPPORTED_ORDERS = (1, 2)  # the one list of element orders; a Leaf checks its order here too


def lagrange_1d(order: int, x) -> list:
    """:func:`values_1d` as a list, one entry per node: Python floats at a float ``x``."""
    if order == 1:
        return [1.0 - x, x]
    return [(2.0 * x - 1.0) * (x - 1.0), 4.0 * x * (1.0 - x), x * (2.0 * x - 1.0)]


def values_1d(order: int, x) -> np.ndarray:
    """1-D Lagrange polynomials of ``order`` at ``x`` (scalar or array) along axis 0.

    Bitwise equal to the product formula up to the sign of a zero: scaling by 2 is exact.
    """
    return np.array(lagrange_1d(order, x))


def derivatives_1d(order: int, x) -> np.ndarray:
    """First derivatives of :func:`values_1d` at ``x`` along axis 0.

    Q1: -1, 1; Q2: 4x-3, 4-8x, 4x-1.
    """
    x = np.asarray(x, dtype=float)
    if order == 1:
        return np.array([np.full_like(x, -1.0), np.full_like(x, 1.0)])
    return np.array([4.0 * x - 3.0, 4.0 - 8.0 * x, 4.0 * x - 1.0])


class LagrangeQk:
    """Scalar Lagrange element of tensor order ``order`` on the unit square."""

    def __init__(self, order: int):
        order = integer(order, "lagrange order")
        if order not in SUPPORTED_ORDERS:
            raise UnsupportedOrder(f"order {order} unsupported, expected one of {SUPPORTED_ORDERS}")
        self.order = order
        self.count = (order + 1) ** 2

    def values(self, point) -> np.ndarray:
        """All shape function values at a reference point, local node order."""
        xi, eta = point
        return np.outer(values_1d(self.order, eta), values_1d(self.order, xi)).ravel()

    def gradients(self, point) -> np.ndarray:
        """Reference gradients, shape (count, 2)."""
        xi, eta = point
        lx = values_1d(self.order, xi)
        ly = values_1d(self.order, eta)
        dx = derivatives_1d(self.order, xi)
        dy = derivatives_1d(self.order, eta)
        out = np.empty((self.count, 2))
        out[:, 0] = np.outer(ly, dx).ravel()
        out[:, 1] = np.outer(dy, lx).ravel()
        return out

    def __repr__(self):
        return f"LagrangeQk(order={self.order})"


_element = functools.cache(LagrangeQk)


def lagrange_element(order: int) -> LagrangeQk:
    """The shared, stateless element of ``order``; 2.0 or True raise TypeError before the cache."""
    return _element(integer(order, "lagrange order"))


@functools.cache
def _line_integrals(order: int, column_order: int) -> np.ndarray:
    """Read-only integrals of l_i' m_j', l_i m_j and l_i' m_j over [0, 1], stacked."""
    points, weights = gauss_legendre_unit(max(order, column_order) + 1)
    values, slopes = values_1d(order, points), derivatives_1d(order, points)
    column_values = values_1d(column_order, points) * weights
    column_slopes = derivatives_1d(column_order, points) * weights
    integrals = [slopes @ column_slopes.T, values @ column_values.T, slopes @ column_values.T]
    return read_only(np.stack(integrals))[0]


def line_matrices(order: int, column_order: int, cells: int):
    """Stiffness, mass and coupling matrices of continuous 1-D Lagrange elements.

    The unit interval is split into ``cells`` equal cells; global node g
    of order k sits at g / (k * cells).  Rows belong to the polynomials
    l_i of ``order``, columns to the polynomials m_j of ``column_order``.
    Returns the dense integrals of l_i' m_j', l_i m_j and l_i' m_j; the
    Gauss rule with max(order, column_order) + 1 points is exact for all.

    The reference-cell integrals are computed once per order pair and
    scaled by the cell width here.  Local entry (i, j) of cell c lands at
    (order*c + i, column_order*c + j), one strided add over all cells per
    entry; a node shared by two cells gets its two addends in either
    order, which floating-point addition does not tell apart.
    """
    stiffness, mass, coupling = _line_integrals(order, column_order)
    h = 1.0 / cells
    local = np.stack([stiffness / h, mass * h, coupling])
    columns = column_order * cells + 1
    matrices = np.zeros((3, order * cells + 1, columns))
    flat = matrices.reshape(3, -1)
    step = order * columns + column_order  # from (r, s) to (r + order, s + column_order)
    for i in range(order + 1):
        for j in range(column_order + 1):
            start = i * columns + j
            flat[:, start : start + cells * step : step] += local[:, i, j, None]
    return tuple(matrices)
