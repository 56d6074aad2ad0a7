"""Grid functions over a basis: interpolation, boundary walks, evaluation.

All operations here accept either a GlobalBasis or a SubspaceBasis.
Interpolation and boundary walks are nodal: they visit each global node of
a leaf once, on its node grid (:meth:`~fembasis.basis.GlobalBasis.node_grid`);
evaluation binds a local view to the element that contains the point.  The
range values of functions mirror the basis subtree in scope: a leaf is
addressed by its tree path relative to that subtree, so a velocity-pressure
basis expects values like [[vx, vy], p] while its velocity subspace expects
[vx, vy].  Plain scalars broadcast to every leaf.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ShapeMismatch
from .treespec import Composite, Leaf, Power, child_at


def _is_scalar(value) -> bool:
    return isinstance(value, (numbers.Real, np.floating, np.integer))


def _component(value, rel_path):
    """Leaf component of a range value; scalars broadcast to every leaf."""
    if _is_scalar(value):
        return value
    node = value
    for digit in rel_path:
        try:
            node = node[digit]
        except (TypeError, KeyError, IndexError):
            raise ShapeMismatch(
                f"range value has no component at relative path {tuple(rel_path)}"
            ) from None
    if not _is_scalar(node):
        raise ShapeMismatch(
            f"range value at relative path {tuple(rel_path)} is not a scalar"
        )
    return node


def _flat_values(basis, vector) -> np.ndarray:
    """Flat storage of ``vector``, which must be laid out for the root basis."""
    layout = basis.root_basis.layout
    if vector.layout is not layout and vector.layout.keys != layout.keys:
        raise ShapeMismatch("vector is not laid out like the basis")
    return vector.values


def _interpolate(basis, coefficients, fn, mask) -> None:
    root = basis.root_basis
    values = _flat_values(root, coefficients)
    allowed = None if mask is None else _flat_values(root, mask)
    nx, ny = root.grid.nx, root.grid.ny
    samples = {}  # range values of fn at the nodes of each order
    for leaf in basis.local_view().leaves:
        offsets = root.node_grid(leaf.tree_path).ravel()
        k = leaf.finite_element.order
        if k not in samples:
            samples[k] = [
                fn((a / (k * nx), b / (k * ny)))
                for b in range(k * ny + 1)
                for a in range(k * nx + 1)
            ]
        nodal = np.array([_component(v, leaf.rel_path) for v in samples[k]], dtype=float)
        if allowed is not None:
            chosen = allowed[offsets].astype(bool)
            offsets, nodal = offsets[chosen], nodal[chosen]
        values[offsets] = nodal


def interpolate(basis, coefficients, fn) -> None:
    """Write the nodal interpolant of ``fn`` into ``coefficients``.

    ``fn`` maps global coordinates to a range value matching the subtree of
    ``basis`` (or to a scalar, which broadcasts).  Coefficients must be
    laid out like the root basis, else ShapeMismatch.  Each global node of
    each leaf in scope is visited once, on the leaf's node grid: a leaf of
    order k takes its value at ``(a / (k*nx), b / (k*ny))``, and ``fn`` is
    called once per node position of each order.
    """
    _interpolate(basis, coefficients, fn, None)


def interpolate_masked(basis, coefficients, fn, mask) -> None:
    """Interpolate ``fn`` but write only entries whose mask slot is true.

    ``mask`` is laid out like the coefficients; no write happens anywhere
    the mask is false.  Nodes are visited as in :func:`interpolate`.
    """
    _interpolate(basis, coefficients, fn, mask)


def for_each_boundary_dof(basis, callback) -> None:
    """Call ``callback(multi_index)`` once per boundary node of ``basis``.

    The boundary nodes of a leaf are the outer ring of its node grid (its
    first and last row and column); leaves come depth first and each ring
    row by row, so every multi-index is reported exactly once.
    """
    root = basis.root_basis
    keys = root.layout.keys
    for leaf in basis.local_view().leaves:
        offsets = root.node_grid(leaf.tree_path)
        ring = np.ones(offsets.shape, dtype=bool)
        ring[1:-1, 1:-1] = False
        for offset in offsets[ring].tolist():
            callback(keys[offset])


def _range_shell(tree):
    """Zero range value shaped like a basis subtree (scalar for a leaf)."""
    if isinstance(tree, Leaf):
        return 0.0
    if isinstance(tree, Power):
        return [_range_shell(tree.child) for _ in range(tree.count)]
    return [_range_shell(c) for c in tree.children]


def evaluate_discrete(basis, coefficients, point):
    """Value of the coefficient field of ``basis`` at a global point.

    Locates the containing element and combines shape function values with
    the stored coefficients.  Returns a scalar for a single-leaf subtree,
    nested lists otherwise.  Points outside the unit square raise
    OutsideDomain.
    """
    root = basis.root_basis
    element, local = root.grid.locate(point)
    view = basis.local_view()
    view.bind(element)
    subtree = child_at(root.tree, basis.prefix_path)
    result = _range_shell(subtree)
    for leaf in view.leaves:
        values = leaf.finite_element.values(local)
        acc = 0.0
        for m in range(leaf.size):
            acc += float(coefficients[view.index(leaf.local_index(m))]) * float(values[m])
        if not leaf.rel_path:
            result = acc
        else:
            target = result
            for digit in leaf.rel_path[:-1]:
                target = target[digit]
            target[leaf.rel_path[-1]] = acc
    return result
