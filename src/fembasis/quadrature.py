"""Gauss-Legendre quadrature on the unit interval and unit square.

Rules are reference-element constants: each is computed on its first
request and then shared, read-only, by every caller in the process.
"""

from __future__ import annotations

import operator

import numpy as np

_LINE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SQUARE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule mapped from [-1,1] to [0,1].

    The points and weights are computed once per n and shared: both
    arrays are read-only.
    """
    n = operator.index(n)  # 2.0 is refused, not served the cached 2-point rule
    rule = _LINE_RULES.get(n)
    if rule is None:
        if n < 1:
            raise ValueError(f"quadrature needs at least one point, got {n}")
        x, w = np.polynomial.legendre.leggauss(n)
        rule = _LINE_RULES[n] = _read_only((x + 1.0) / 2.0, w / 2.0)
    return rule


def tensor_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of the n-point rule on the unit square.

    Returns points of shape (n*n, 2) and matching weights; exact for
    polynomials of degree 2n-1 per axis.  Like :func:`gauss_legendre_unit`,
    the rule is computed once per n and both arrays are shared and read-only.
    """
    n = operator.index(n)
    rule = _SQUARE_RULES.get(n)
    if rule is None:
        x, w = gauss_legendre_unit(n)
        points = np.array([(xa, xb) for xb in x for xa in x])
        weights = np.array([wa * wb for wb in w for wa in w])
        rule = _SQUARE_RULES[n] = _read_only(points, weights)
    return rule


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays
