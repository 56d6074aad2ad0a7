"""Grid functions over a basis: interpolation, boundary walks, evaluation.

All operations here accept either a GlobalBasis or a SubspaceBasis.
Interpolation and boundary walks are nodal: they visit each global node of
a leaf once, on its node grid (:meth:`~fembasis.basis.GlobalBasis.node_grid`);
evaluation reads the containing element's row of offsets
(:meth:`~fembasis.basis.GlobalBasis.element_offsets`).  The
range values of functions mirror the basis subtree in scope: a leaf is
addressed by its tree path relative to that subtree, so a velocity-pressure
basis expects values like [[vx, vy], p] while its velocity subspace expects
[vx, vy].  Plain scalars broadcast to every leaf.
"""

from __future__ import annotations

import numbers
from operator import mul

import numpy as np

from .errors import ShapeMismatch
from .localfe import values_1d


_SCALAR_TYPES = (numbers.Real, np.floating, np.integer)


def _is_scalar(value) -> bool:
    return type(value) in (float, int) or isinstance(value, _SCALAR_TYPES)


def _component(value, rel_path):
    """Leaf component of a range value; scalars broadcast to every leaf."""
    if type(value) not in (list, tuple) and _is_scalar(value):
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


def _column(samples, rel_path) -> np.ndarray:
    """Leaf component at ``rel_path`` of every sample, as floats.

    Indexes the whole list one digit at a time; a sample that is a scalar
    (broadcast) or has no scalar there sends the column through
    :func:`_component` sample by sample, which broadcasts or raises.
    """
    column = samples
    try:
        for digit in rel_path:
            column = [value[digit] for value in column]
    except (TypeError, KeyError, IndexError):
        column = None
    if column is None or not all(issubclass(t, _SCALAR_TYPES) for t in set(map(type, column))):
        column = [_component(value, rel_path) for value in samples]
    return np.array(column, dtype=float)


def _flat_values(basis, vector) -> np.ndarray:
    """Flat storage of ``vector``, which must be laid out for the root basis."""
    if not vector.layout.same_keys(basis.root_basis.layout):
        raise ShapeMismatch("vector is not laid out like the basis")
    return vector.values


def _interpolate(basis, coefficients, fn, mask) -> None:
    root = basis.root_basis
    values = _flat_values(root, coefficients)
    allowed = None if mask is None else _flat_values(root, mask)
    nx, ny = root.grid.nx, root.grid.ny
    leaves = root._scope(basis.prefix_path).leaves
    top = max(leaf.finite_element.order for leaf in leaves)
    # node (a, b) of order k is lattice node (a*s, b*s) of the finest order,
    # s = top/k: a/(k*nx) and a*s/(top*nx) round the same rational, so fn
    # sees the same arguments; it is called once per lattice node written
    width, height = top * nx + 1, top * ny + 1
    lattice = np.arange(height * width).reshape(height, width)
    marked = np.zeros(lattice.size, dtype=bool)
    writes = []  # (relative path, offsets, lattice nodes) per leaf
    for leaf in leaves:
        offsets = leaf.node_grid
        step = top // leaf.finite_element.order
        nodes = lattice[::step, ::step]
        if allowed is not None:
            chosen = allowed[offsets].astype(bool)
            offsets, nodes = offsets[chosen], nodes[chosen]
        nodes = nodes.ravel()
        marked[nodes] = True
        writes.append((leaf.rel_path, offsets.ravel(), nodes))
    xs = [a / (top * nx) for a in range(width)]
    ys = [b / (top * ny) for b in range(height)]
    rows, cols = np.divmod(np.flatnonzero(marked), width)
    points = zip(map(xs.__getitem__, cols.tolist()), map(ys.__getitem__, rows.tolist()))
    samples = list(map(fn, points))
    sample_of = np.cumsum(marked) - 1  # lattice node -> its place in samples
    for rel_path, offsets, nodes in writes:
        if len(nodes) < len(samples):
            picked = list(map(samples.__getitem__, sample_of[nodes].tolist()))
        else:  # the leaf's nodes are all the sampled ones, in the same order
            picked = samples
        values[offsets] = _column(picked, rel_path)


def interpolate(basis, coefficients, fn) -> None:
    """Write the nodal interpolant of ``fn`` into ``coefficients``.

    ``fn`` maps global coordinates to a range value matching the subtree of
    ``basis`` (or to a scalar, which broadcasts).  Coefficients must be
    laid out like the root basis, else ShapeMismatch.  Each global node of
    each leaf in scope is visited once, on the leaf's node grid: a leaf of
    order k takes its value at ``(a / (k*nx), b / (k*ny))``, and ``fn`` is
    called once per node of the finest order in scope, whose lattice holds
    the nodes of every coarser order.
    """
    _interpolate(basis, coefficients, fn, None)


def interpolate_masked(basis, coefficients, fn, mask) -> None:
    """Interpolate ``fn`` but write only entries whose mask slot is true.

    ``mask`` is laid out like the coefficients; no write happens anywhere
    the mask is false.  Nodes are visited as in :func:`interpolate`, but
    ``fn`` is called only at the nodes that some leaf's mask marks, once
    each, in row-major order (never, for an all-false mask).
    """
    _interpolate(basis, coefficients, fn, mask)


def boundary_offsets(basis) -> np.ndarray:
    """Flat offsets of the boundary nodes of ``basis``, each once.

    The boundary nodes of a leaf are the outer ring of its node grid (its
    first and last row and column); leaves come depth first and each ring
    row by row.
    """
    grids = [leaf.node_grid for leaf in basis.root_basis._scope(basis.prefix_path).leaves]
    return np.concatenate([np.hstack((g[0], g[1:-1, [0, -1]].ravel(), g[-1])) for g in grids])


def for_each_boundary_dof(basis, callback) -> None:
    """Call ``callback(multi_index)`` per boundary node, in :func:`boundary_offsets` order."""
    keys = basis.root_basis.layout.keys
    for offset in boundary_offsets(basis).tolist():
        callback(keys[offset])


def evaluate_discrete(basis, coefficients, point):
    """Value of the coefficient field of ``basis`` at a global point.

    Gathers the coefficients of the containing element in one read through
    its row of :meth:`~fembasis.basis.GlobalBasis.element_offsets` and
    contracts each leaf's window of that row with the tensor products of
    the 1-D shape function values in x and y.
    Coefficients must be laid out like the root basis, else ShapeMismatch.
    Returns a scalar for a single-leaf subtree, nested lists otherwise.
    Points outside the unit square raise OutsideDomain.
    """
    root = basis.root_basis
    values = _flat_values(root, coefficients)
    element, (xi, eta) = root.grid.locate(point)
    scope = root._scope(basis.prefix_path)
    row = values[scope.offsets[element]].tolist()
    orders, windows, nest = scope.plan
    weights = []  # per order, the shape function values in local node order
    for k in orders:
        lx = values_1d(k, xi).tolist()
        weights.append([b * a for b in values_1d(k, eta).tolist() for a in lx])
    # sum starts from the int 0, so a zero field reads +0.0 whatever the signs of its zeros
    return nest([sum(map(mul, weights[n], row[start:stop])) for start, stop, n in windows])
