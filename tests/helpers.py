"""Shared test utilities: random basis trees and brute-force oracles."""

from __future__ import annotations

import numpy as np

from fembasis import Composite, Leaf, Power, Strategy, gauss_legendre_unit
from fembasis.localfe import line_matrices
from fembasis.stokes import _axis_factors

ALL_STRATEGIES = (
    Strategy.BLOCKED_LEXICOGRAPHIC,
    Strategy.BLOCKED_INTERLEAVED,
    Strategy.FLAT_LEXICOGRAPHIC,
    Strategy.FLAT_INTERLEAVED,
)
COMPOSITE_STRATEGIES = (
    Strategy.BLOCKED_LEXICOGRAPHIC,
    Strategy.FLAT_LEXICOGRAPHIC,
)


def random_tree(rng, max_depth=3, max_children=4):
    """Random valid basis tree: depth <= max_depth, small arities."""

    def gen(depth):
        if depth >= max_depth or rng.random() < 0.35:
            return Leaf(int(rng.integers(1, 3)))
        if rng.random() < 0.5:
            strategy = ALL_STRATEGIES[rng.integers(len(ALL_STRATEGIES))]
            return Power(gen(depth + 1), int(rng.integers(1, max_children + 1)), strategy)
        strategy = COMPOSITE_STRATEGIES[rng.integers(len(COMPOSITE_STRATEGIES))]
        arity = int(rng.integers(1, max_children + 1))
        return Composite(tuple(gen(depth + 1) for _ in range(arity)), strategy)

    return gen(1)


def enumerate_multi_indices(basis):
    """Every global multi-index realized by any element, as a set."""
    seen = set()
    view = basis.local_view()
    for e in range(basis.grid.num_elements):
        view.bind(e)
        for i in range(view.size):
            seen.add(view.index(i))
    return seen


def prefix_degree_table(entries):
    """Expected size() of every realized prefix, from the enumerated set.

    Computes max-next-digit + 1 per strict prefix in one pass and maps each
    full entry to 0, mirroring the definition of the per-prefix degree.
    """
    table = {}
    for e in entries:
        e = tuple(e)
        for t in range(len(e)):
            p = e[:t]
            d = e[t] + 1
            if table.get(p, 0) < d:
                table[p] = d
    for e in entries:
        table[tuple(e)] = 0
    return table


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting, no library solver."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-14:
            raise ZeroDivisionError("singular test matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def trie_is_index_tree(entries):
    """Independent index-tree check: rebuild the ordered tree from paths.

    Inserts every entry into a dict trie, then requires (a) no entry marks
    an inner node, (b) every inner node's digit set is 0..max with no gaps.
    """
    TERMINAL = "terminal"
    trie: dict = {}
    for e in entries:
        node = trie
        for d in tuple(e):
            node = node.setdefault(d, {})
        node[TERMINAL] = True

    def check(node):
        digits = [k for k in node if k != TERMINAL]
        if TERMINAL in node and digits:
            return False
        if digits and sorted(digits) != list(range(max(digits) + 1)):
            return False
        return all(check(node[d]) for d in digits)

    return check(trie) if trie else True


def tree_children(node):
    """Children of an inner tree node, read through its attributes only."""
    return (node.child,) * node.count if hasattr(node, "count") else node.children


def tree_shape(tree):
    """``None`` for a leaf, else the list of the children's shapes: the nesting of a range value."""
    if hasattr(tree, "order"):
        return None
    return [tree_shape(kid) for kid in tree_children(tree)]


def tree_leaves(tree, path=()):
    """(path, order) of every leaf below ``tree``, depth first."""
    if hasattr(tree, "order"):
        return [(path, tree.order)]
    kids = tree_children(tree)
    return [leaf for i, kid in enumerate(kids) for leaf in tree_leaves(kid, path + (i,))]


def expected_leaf_index(tree, nx, ny, leaf_path, flat):
    """Plain-tuple fold of a leaf's node number through the merge rules.

    Reads the tree only through its attributes and strategy names, so it
    shares no code with the basis: walk root to leaf, then apply each
    inner node's rule leaf to root.
    """

    def degree(node):  # number of children below the root of node's index tree
        if hasattr(node, "order"):
            return (node.order * nx + 1) * (node.order * ny + 1)
        kids, rule = tree_children(node), node.strategy.short
        if rule == "BL":
            return len(kids)
        if rule == "FL":
            return sum(degree(k) for k in kids)
        return degree(kids[0]) * (len(kids) if rule == "FI" else 1)

    steps, node = [], tree
    for digit in leaf_path:
        kids = tree_children(node)
        steps.append((node.strategy.short, digit, [degree(k) for k in kids], len(kids)))
        node = kids[digit]
    mi = (flat,)
    for rule, i, degrees, m in reversed(steps):
        if rule == "BL":
            mi = (i,) + mi
        elif rule == "BI":
            mi = mi + (i,)
        elif rule == "FL":
            mi = (sum(degrees[:i]) + mi[0],) + mi[1:]
        else:
            mi = (mi[0] * m + i,) + mi[1:]
    return mi


def square_rule(n):
    """Tensor product of the n-point Gauss rule on the unit square.

    Points of shape (n*n, 2), the first coordinate running fastest, and
    matching weights; exact for polynomials of degree 2n-1 per axis.
    """
    x, w = gauss_legendre_unit(n)
    points = np.array([(xa, xb) for xb in x for xa in x])
    weights = np.array([wa * wb for wb in w for wa in w])
    return points, weights


def stokes_preconditioner(basis):
    """Upper block-triangular saddle point preconditioner of a Taylor-Hood cavity system.

    The full-space reference of the pressure-space solve: GMRes on the
    whole system, right-preconditioned by this, solves the same system
    another way.  P = [K B^T; 0 -M_p] takes the velocity Laplacian K and
    the coupling B^T of the assembled system and the Q1 pressure mass M_p
    (Elman, Silvester & Wathen, *Finite Elements and Fast Iterative
    Solvers*, ch. 4).  P^-1 v sets z_p = -M_p^-1 v_p, then
    z_u = K^-1 (v_u - B^T z_p) per velocity component, as tensor products
    of 1-D matrices on node grids Z: K^-1 is
    ``Sy (Sy^T Z Sx / (lam_y + lam_x)) Sx^T``, M_p^-1 is ``My^-1 Z Mx^-1``
    and B^T is ``My21 Z Dx21^T`` for the x component and ``Dy21 Z Mx21^T``
    for the y one, with the interior Q2 rows of the Q2-by-Q1 mass M21 and
    slope coupling D21.  Identity rows (the velocity ring) pass through
    unchanged.  Returns the flat M^-1 application over the basis layout.
    """
    nx, ny = basis.grid.nx, basis.grid.ny
    interior = np.stack([basis.node_grid((0, k))[1:-1, 1:-1] for k in range(2)])
    pressure = basis.node_grid((1,))
    sx, lam_x, px_inv, _, _ = _axis_factors(nx)
    sy, lam_y, py_inv, _, _ = _axis_factors(ny)
    (_, mx21, dx21), (_, my21, dy21) = (line_matrices(2, 1, n) for n in (nx, ny))
    eigenvalue_sums = lam_y[:, None] + lam_x[None, :]
    # B^T = left @ Z @ right of the x and the y component, stacked like ``interior``
    left = np.stack([my21[1:-1], dy21[1:-1]])
    right = np.stack([dx21[1:-1].T, mx21[1:-1].T])

    def apply(v):
        z = v.copy()
        zp = -(py_inv @ v[pressure] @ px_inv)
        z[pressure] = zp
        u = v[interior] - left @ zp @ right
        z[interior] = sy @ ((sy.T @ u @ sx) / eigenvalue_sums) @ sx.T
        return z

    return apply
