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

Interpolation samples on the lattice of the finest order in scope, which
holds the nodes of every leaf; the leaves' node grids come from the
basis's scope of the prefix, which also keeps the boundary ring.  A call
pays for its samples: ``fn`` once per lattice node, each range value read
once per tree node (leaves that take the same samples, those of one order
and, under a mask, the same picks, share the components of their common
prefix), and one scalar check and conversion per leaf.  Every partial
write goes through the one masked path: the Stokes example's Dirichlet
data is :func:`interpolate_masked` on the mask of :func:`boundary_offsets`.
"""

from __future__ import annotations

import numbers
from itertools import chain, cycle, repeat
from operator import mul

import numpy as np

from .errors import ShapeMismatch
from .localfe import lagrange_1d


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


def _components(columns, key, path):
    """Components at ``path`` of the samples ``columns[key, ()]``, or None.

    Read one digit at a time from the prefix's components, each prefix
    once per key and kept in ``columns``; None where a sample has no
    component at ``path``.
    """
    if (key, path) not in columns:
        parent, digit = _components(columns, key, path[:-1]), path[-1]
        try:
            column = None if parent is None else [value[digit] for value in parent]
        except (TypeError, KeyError, IndexError):
            column = None
        columns[key, path] = column
    return columns[key, path]


def _column(columns, key, rel_path) -> np.ndarray:
    """Leaf component at ``rel_path`` of the samples ``columns[key, ()]``, as floats.

    A column where some sample is a scalar (broadcast) or has no scalar
    at ``rel_path`` goes through :func:`_component` sample by sample,
    which broadcasts or raises.
    """
    column = _components(columns, key, rel_path)
    if column is None or not all(issubclass(t, _SCALAR_TYPES) for t in set(map(type, column))):
        column = [_component(value, rel_path) for value in columns[key, ()]]
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
    leaves = root._scope(basis.prefix_path).leaves
    nx, ny = root.grid.nx, root.grid.ny
    # node (a, b) of order k is lattice node (a*s, b*s) of the finest order,
    # s = top/k: a/(k*nx) and a*s/(top*nx) round the same rational, so fn
    # sees the same arguments; it is called once per lattice node written
    top = max(leaf.finite_element.order for leaf in leaves)
    xs = [a / (top * nx) for a in range(top * nx + 1)]
    ys = [b / (top * ny) for b in range(top * ny + 1)]
    steps = [top // leaf.finite_element.order for leaf in leaves]
    width = len(xs)
    columns = {}  # (key, path) -> components at path of the samples keyed key
    reads = []  # (relative path, offsets, key of its samples) per leaf
    if allowed is None:
        # the finest leaf takes every lattice node: fn runs on all, row by row
        rows = chain.from_iterable(map(repeat, ys, repeat(width)))
        samples = list(map(fn, zip(cycle(xs), rows)))
        for leaf, step in zip(leaves, steps):
            if step == 1:
                columns[1, ()] = samples
            elif (step, ()) not in columns:  # every step-th node of every step-th row
                starts = range(0, len(samples), step * width)
                picked = [samples[i : i + width : step] for i in starts]
                columns[step, ()] = list(chain.from_iterable(picked))
            reads.append((leaf.rel_path, leaf.node_grid.ravel(), step))
    else:
        marked = np.zeros((len(ys), width), dtype=bool)
        chosen = []
        for leaf, step in zip(leaves, steps):
            chosen.append(allowed[leaf.node_grid].astype(bool, copy=False))
            marked[::step, ::step] |= chosen[-1]
        rows, cols = np.divmod(np.flatnonzero(marked), width)
        points = zip(map(xs.__getitem__, cols.tolist()), map(ys.__getitem__, rows.tolist()))
        samples = list(map(fn, points))
        sample_of = None  # lattice node -> sample, for leaves that take a subset
        columns["all", ()] = samples  # leaves that take every sample share them, in order
        for leaf, step, keep in zip(leaves, steps, chosen):
            key = "all"
            if np.count_nonzero(keep) < len(samples):
                key = step, keep.tobytes()  # leaves with the same picks share them
                if (key, ()) not in columns:
                    if sample_of is None:
                        sample_of = (np.cumsum(marked) - 1).reshape(marked.shape)
                    taken = sample_of[::step, ::step][keep].tolist()
                    columns[key, ()] = list(map(samples.__getitem__, taken))
            reads.append((leaf.rel_path, leaf.node_grid[keep], key))
    # every column is read before the first write: a ShapeMismatch writes nothing
    written = [(offsets, _column(columns, key, rel_path)) for rel_path, offsets, key in reads]
    for offsets, column in written:
        values[offsets] = column


def interpolate(basis, coefficients, fn) -> None:
    """Write the nodal interpolant of ``fn`` into ``coefficients``.

    ``fn`` maps global coordinates to a range value matching the subtree of
    ``basis`` (or to a scalar, which broadcasts).  Coefficients must be
    laid out like the root basis, else ShapeMismatch.  Each global node of
    each leaf in scope is visited once, on the leaf's node grid: a leaf of
    order k takes its value at ``(a / (k*nx), b / (k*ny))``, and ``fn`` is
    called once per node of the finest order in scope, whose lattice holds
    the nodes of every coarser order, in row-major order.  Every leaf's
    column is read before the first write, so a range value of the wrong
    shape raises ShapeMismatch with the coefficients untouched.
    """
    _interpolate(basis, coefficients, fn, None)


def interpolate_masked(basis, coefficients, fn, mask) -> None:
    """Interpolate ``fn`` but write only entries whose mask slot is true.

    ``mask`` is laid out like the coefficients; no write happens anywhere
    the mask is false.  Nodes are visited as in :func:`interpolate`, but
    ``fn`` is called only at the nodes that some leaf's mask marks, once
    each, in row-major order (never, for an all-false mask).  A
    ShapeMismatch writes nothing.
    """
    _interpolate(basis, coefficients, fn, mask)


def boundary_offsets(basis) -> np.ndarray:
    """Flat offsets of the boundary nodes of ``basis``, each once.

    The boundary nodes of a leaf are the outer ring of its node grid (its
    first and last row and column); leaves come depth first and each ring
    row by row.  The array is read-only and built once per basis and
    prefix; every call returns the same one.
    """
    return basis.root_basis._scope(basis.prefix_path).ring


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
    xi, eta = float(xi), float(eta)
    scope = root._scope(basis.prefix_path)
    row = values[scope.offsets[element]].tolist()
    orders, windows, nest = scope.plan
    weights = []  # per order, the shape function values in local node order
    for k in orders:
        lx = lagrange_1d(k, xi)
        weights.append([b * a for b in lagrange_1d(k, eta) for a in lx])
    # sum starts from the int 0, so a zero field reads +0.0 whatever the signs of its zeros
    return nest([sum(map(mul, weights[n], row[start:stop])) for start, stop, n in windows])
