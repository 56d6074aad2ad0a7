"""Gauss-Legendre quadrature on the unit interval and unit square.

Rules are reference-element constants: like every such constant in the
package, each is built once by a cached builder and shared, read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import integer


def gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule mapped from [-1,1] to [0,1]: read-only points and weights."""
    # 2.0 and True are refused, not served the cached 2- and 1-point rules
    return _line_rule(integer(n, "quadrature point count"))


def tensor_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of the n-point rule on the unit square.

    Returns read-only points of shape (n*n, 2) and matching weights; exact
    for polynomials of degree 2n-1 per axis.
    """
    return _square_rule(integer(n, "quadrature point count"))


@functools.cache
def _line_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValueError(f"quadrature needs at least one point, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return read_only((x + 1.0) / 2.0, w / 2.0)


@functools.cache
def _square_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _line_rule(n)
    points = np.array([(xa, xb) for xb in x for xa in x])
    weights = np.array([wa * wb for wb in w for wa in w])
    return read_only(points, weights)


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays as a tuple, marked read-only: how every cached constant is returned."""
    for array in arrays:
        array.flags.writeable = False
    return arrays
