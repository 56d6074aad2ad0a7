"""Global bases over structured grids with configurable index merging.

A basis tree (see :mod:`fembasis.treespec`) turns into a global basis by
giving every leaf an index table, one row per Lagrange node holding the
node's global number on the grid, and then merging those tables through
the strategies of the inner nodes, leaf to root.  The rows of all leaf
tables are the multi-indices of the basis functions; together they form a
valid index tree.

Each strategy is one column operation on the table of child ``i``
(:func:`merge_index_table`):

* BlockedLexicographic prepends:      (i, childMI...)
* BlockedInterleaved appends:         (childMI..., i)
* FlatLexicographic offsets digit 0:  (L_i + childMI[0], childMI[1:]...)
  with L_i the summed root degrees of the preceding children
* FlatInterleaved strides digit 0:    (childMI[0]*m + i, childMI[1:]...)
  with m the child count

The rank of a multi-index in lexicographic order is the flat offset of its
basis function in every container shaped for the basis; the basis stores
the ranks per leaf and builds the ordered keys (:attr:`GlobalBasis.layout`)
on their first read.  A Lagrange leaf's basis functions are its global
nodes, so its ranks form a node grid (:meth:`GlobalBasis.node_grid`); nodal
work (interpolation, boundary nodes) visits each node once on that grid.
A subspace basis or a local view is the tree seen from one prefix.  The
basis describes each prefix once, in a scope shared by all its later uses:
the prefix, validated once; the leaves below it, depth first, with
consecutive local indices; and, built on their first read, the subtree's
element offset table (:meth:`GlobalBasis.element_offsets`, row ``e`` the
offsets of element ``e``'s local functions, windows of the node grids),
the plan by which evaluation reads a row and the ring of boundary nodes.
Assembly hands the table to the sparse system as it is, :class:`LocalView`
reads its multi-indices from a row, and
:func:`~fembasis.functions.evaluate_discrete` gathers the coefficients of
the containing element through its row.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IndexOutOfRange, PathOutOfRange, PrefixNotFound, UnboundView, integer
from .grid import StructuredGrid
from .localfe import lagrange_element
from .multiindex import Layout, MultiIndex, as_multi_index
from .treespec import BasisTree, Leaf, Power, Strategy, child_at


def merge_index_table(strategy: Strategy, child_index: int, table, child_root_degrees, child_count):
    """Rows of child ``child_index``'s index table in the parent numbering.

    ``table`` is an integer array with one multi-index per row.
    """
    column = np.full((len(table), 1), child_index, dtype=table.dtype)
    if strategy is Strategy.BLOCKED_LEXICOGRAPHIC:
        return np.hstack((column, table))
    if strategy is Strategy.BLOCKED_INTERLEAVED:
        return np.hstack((table, column))
    merged = table.copy()
    if strategy is Strategy.FLAT_LEXICOGRAPHIC:
        merged[:, 0] += sum(child_root_degrees[:child_index])
    else:
        merged[:, 0] = merged[:, 0] * child_count + child_index
    return merged


def merge_child_index(
    strategy: Strategy,
    child_index: int,
    child_mi,
    *,
    child_root_degrees=None,
    child_count=None,
) -> MultiIndex:
    """Merge one child multi-index into the parent numbering.

    ``child_root_degrees`` (root degree of every child's index tree, in
    child order) is required for FlatLexicographic; ``child_count`` for
    FlatInterleaved.  Flat strategies need a non-empty child multi-index.
    """
    mi = as_multi_index(child_mi)
    if not isinstance(strategy, Strategy):
        raise TypeError(f"not a strategy: {strategy!r}")
    if strategy.is_flat and not mi:
        raise ValueError("flat strategies need a non-empty child multi-index")
    if strategy is Strategy.FLAT_LEXICOGRAPHIC and child_root_degrees is None:
        raise ValueError("FlatLexicographic needs child_root_degrees")
    if strategy is Strategy.FLAT_INTERLEAVED and child_count is None:
        raise ValueError("FlatInterleaved needs child_count")
    limit = len(child_root_degrees) if strategy is Strategy.FLAT_LEXICOGRAPHIC else child_count
    child_index = integer(child_index, "child index")
    if child_index < 0 or (strategy.is_flat and child_index >= limit):
        raise IndexOutOfRange(f"child index {child_index} outside {limit} children")
    table = np.array([mi], dtype=np.int64).reshape(1, len(mi))
    merged = merge_index_table(strategy, child_index, table, child_root_degrees, child_count)
    return MultiIndex(merged[0].tolist())


def _leaf_tables(tree: BasisTree, grid: StructuredGrid) -> list:
    """(path, order, index table) of every leaf below ``tree``, depth first."""
    if isinstance(tree, Leaf):
        k = tree.order
        nodes = (k * grid.nx + 1) * (k * grid.ny + 1)
        return [((), k, np.arange(nodes, dtype=np.int64)[:, None])]
    if isinstance(tree, Power):
        children = [_leaf_tables(tree.child, grid)] * tree.count
    else:
        children = [_leaf_tables(c, grid) for c in tree.children]
    # a valid index tree numbers the root's children 0..max
    degrees = [1 + max(int(t[:, 0].max()) for _, _, t in leaves) for leaves in children]
    return [
        ((i,) + path, order, merge_index_table(tree.strategy, i, table, degrees, len(children)))
        for i, leaves in enumerate(children)
        for path, order, table in leaves
    ]


def _nesting(tree: BasisTree, numbers):
    """Function shaping a list of leaf values like ``tree``.

    Leaf by leaf, depth first, takes ``values[n]`` for the next ``n`` drawn
    from the iterator ``numbers``; a leaf yields its value, an inner node
    the list of its children's.
    """
    if isinstance(tree, Leaf):
        return itemgetter(next(numbers))
    children = (tree.child,) * tree.count if isinstance(tree, Power) else tree.children
    parts = [_nesting(child, numbers) for child in children]
    return lambda values: [part(values) for part in parts]


class LeafView:
    """One leaf below a prefix: path below it, first local index, element, node grid."""

    __slots__ = ("tree_path", "rel_path", "offset", "finite_element", "node_grid")

    def __init__(self, tree_path, rel_path, offset, finite_element, node_grid):
        self.tree_path = tree_path
        self.rel_path = rel_path
        self.offset = offset
        self.finite_element = finite_element
        self.node_grid = node_grid

    @property
    def size(self) -> int:
        return self.finite_element.count


class _Scope:
    """The subtree ``node`` at ``prefix``: its ``leaves`` and their total ``size``.

    One per (basis, prefix), see :meth:`GlobalBasis._scope`.  What the
    layers read of the subtree is built on its first read and kept
    read-only: the element offset table, the evaluation plan and the
    boundary ring.  The scope does not keep the basis.
    """

    def __init__(self, basis: "GlobalBasis", prefix: tuple):
        self.prefix = prefix
        self.node = child_at(basis.tree, prefix)
        n, offset, leaves = len(prefix), 0, []
        for leaf in basis._leaves:
            if leaf.tree_path[:n] == prefix:
                path = leaf.tree_path
                leaves.append(LeafView(path, path[n:], offset, leaf.finite_element, leaf.node_grid))
                offset += leaf.size
        self.leaves = tuple(leaves)
        self.size = offset

    @cached_property
    def offsets(self) -> np.ndarray:
        """Read-only :meth:`GlobalBasis.element_offsets` of the prefix."""
        blocks = []
        for leaf in self.leaves:
            k = leaf.finite_element.order
            windows = sliding_window_view(leaf.node_grid, (k + 1, k + 1))
            blocks.append(windows[::k, ::k].reshape(-1, leaf.size))
        table = np.hstack(blocks)
        table.flags.writeable = False
        return table

    @cached_property
    def plan(self):
        """How to read a row of :attr:`offsets` leaf by leaf.

        ``(orders, windows, nest)``: the distinct leaf orders; per leaf,
        depth first, ``(start, stop, n)`` with its window ``row[start:stop]``
        and ``orders[n]`` its order; and ``nest``, which shapes one value
        per leaf like the subtree (a leaf subtree yields its one value).
        """
        orders = sorted({leaf.finite_element.order for leaf in self.leaves})
        windows = [
            (leaf.offset, leaf.offset + leaf.size, orders.index(leaf.finite_element.order))
            for leaf in self.leaves
        ]
        return orders, windows, _nesting(self.node, iter(range(len(self.leaves))))

    @cached_property
    def ring(self) -> np.ndarray:
        """Read-only offsets of the outer ring of each leaf's node grid.

        Leaves depth first, each ring row by row: the first row, then the
        first and last node of every inner row, then the last row.
        """
        grids = [leaf.node_grid for leaf in self.leaves]
        ring = np.concatenate([np.hstack((g[0], g[1:-1, [0, -1]].ravel(), g[-1])) for g in grids])
        ring.flags.writeable = False
        return ring


class GlobalBasis:
    """Function space basis of a basis tree over a structured grid.

    Immutable after construction; all mutable element-local state lives in
    the :class:`LocalView` objects it hands out.
    """

    def __init__(self, grid: StructuredGrid, tree: BasisTree):
        self.grid = grid
        self.tree = tree
        leaves = _leaf_tables(tree, grid)
        self._tables = [table for _, _, table in leaves]  # (nodes, depth), by global node number
        depth = max(table.shape[1] for table in self._tables)
        # no row is a prefix of another, so the padding never decides order
        pads = (np.full((len(t), depth - t.shape[1]), -1) for t in self._tables)
        padded = np.vstack(list(map(np.hstack, zip(self._tables, pads))))
        self._order = np.lexsort(padded.T[::-1])
        self._dimension = len(self._order)
        rank = np.empty_like(self._order)  # the inverse permutation
        rank[self._order] = np.arange(self._dimension)
        self._leaves, start, offset = [], 0, 0  # below the root
        for path, order, table in leaves:
            ranks = rank[start : start + len(table)].reshape(order * grid.ny + 1, -1)
            ranks.flags.writeable = False
            self._leaves.append(LeafView(path, path, offset, lagrange_element(order), ranks))
            start, offset = start + len(table), offset + self._leaves[-1].size
        self._scopes = {}  # prefix -> _Scope

    @cached_property
    def layout(self) -> Layout:
        """Multi-indices of all basis functions in flat-offset order.

        The layout knows its length at once; its keys are built on their
        first read (flat-offset work never reads them).
        """
        tables, order, dimension = self._tables, self._order, self._dimension

        def keys():
            # every digit is below the dimension; one shared int object per value
            ints = list(range(dimension))
            rows = (row for table in tables for row in table.tolist())
            by_leaf = [MultiIndex(map(ints.__getitem__, row)) for row in rows]
            return [by_leaf[k] for k in order.tolist()]

        return Layout(keys, dimension)

    def _scope(self, prefix=()) -> _Scope:
        """The subtree at ``prefix``, built on its first request; each request checks the digits."""
        prefix = tuple(prefix)
        if prefix:  # (0, 1.0) would find the key (0, 1); the root, asked per evaluation, is free
            prefix = tuple(integer(digit, "path digit") for digit in prefix)
        scope = self._scopes.get(prefix)
        if scope is None:
            scope = self._scopes[prefix] = _Scope(self, prefix)
        return scope

    # -- basis-like surface shared with SubspaceBasis ----------------------

    @property
    def root_basis(self) -> "GlobalBasis":
        return self

    @property
    def prefix_path(self) -> tuple:
        return ()

    def dimension(self) -> int:
        """Total number of basis functions (equals len of the index set)."""
        return self._dimension

    def size(self, prefix=()) -> int:
        """Degree of the index tree below ``prefix``; 0 at a full entry.

        Read off the leaf index tables; a prefix of no entry raises PrefixNotFound.
        """
        prefix = as_multi_index(prefix)
        n, last = len(prefix), -1  # the largest digit n of a row below prefix
        for table in (table for table in self._tables if table.shape[1] >= n):
            below = table[np.all(table[:, :n] == prefix, axis=1)]
            if table.shape[1] > n:
                last = max(last, int(below[:, n].max(initial=-1)))
            elif len(below):
                return 0  # prefix is an entry
        if last < 0:
            raise PrefixNotFound(f"{prefix} is neither an entry nor a prefix")
        return last + 1

    def local_view(self) -> "LocalView":
        return LocalView(self, ())

    def node_grid(self, leaf_path) -> np.ndarray:
        """Flat offsets of one leaf's basis functions on its node grid.

        ``leaf_path`` must address a leaf of order k; the read-only integer
        array has shape ``(k*ny + 1, k*nx + 1)`` and entry ``[b, a]`` is
        the offset of the function at node ``(a / (k*nx), b / (k*ny))``.
        """
        scope = self._scope(leaf_path)  # raises PathOutOfRange or TypeError if invalid
        if not isinstance(scope.node, Leaf):
            raise PathOutOfRange(f"path {scope.prefix} is not a leaf")
        return scope.leaves[0].node_grid

    def element_offsets(self, prefix=()) -> np.ndarray:
        """Flat offsets of every element's local basis functions.

        Row ``e`` of the read-only ``(num_elements, local size)`` integer
        table lists, in local-view order, the offsets of the functions of
        the leaves below ``prefix`` on element ``e``: per leaf of order k
        the ``(k+1)``-square window of its node grid at ``(k*i, k*j)``,
        row by row, for the element at cell ``(i, j)``.
        """
        return self._scope(prefix).offsets

    def leaf_dof_index(self, leaf_path, flat: int) -> MultiIndex:
        """Global multi-index of flat basis function ``flat`` of one leaf.

        ``leaf_path`` must address a leaf of the basis tree; ``flat`` is the
        leaf's own global node number.
        """
        offsets = self.node_grid(leaf_path)
        flat = integer(flat, "flat index")
        if not 0 <= flat < offsets.size:
            raise IndexOutOfRange(f"flat index {flat} outside leaf size {offsets.size}")
        return self.layout.keys[offsets.flat[flat]]


class LocalView:
    """Element-local window onto a basis (or onto one of its subtrees).

    ``leaves`` and ``max_size`` are those of the basis's scope of the
    prefix, shared with every view of it.  ``bind`` fixes the element and
    keeps only its row of the scope's :meth:`GlobalBasis.element_offsets`.
    The first ``index`` (or ``multi_indices``) after ``bind`` turns the row
    into one multi-index per local basis function, the basis's own key
    objects, and later calls answer from that list; the element's geometry
    is built on the first read of ``geometry`` after ``bind``.  Unbound
    views only answer structural queries (max_size, leaves).
    """

    def __init__(self, basis: GlobalBasis, prefix: tuple = ()):
        self._basis = basis
        self._scope = basis._scope(prefix)
        self._element = None
        self._geometry = None
        self._offsets = None  # the bound element's row of the scope's offset table
        self._indices = None  # its keys, once index or multi_indices asks

    @property
    def basis(self) -> GlobalBasis:
        return self._basis

    @property
    def prefix_path(self) -> tuple:
        return self._scope.prefix

    @property
    def leaves(self) -> tuple:
        return self._scope.leaves

    @property
    def max_size(self) -> int:
        """Upper bound for size over all elements (exact on this grid)."""
        return self._scope.size

    @property
    def bound(self) -> bool:
        return self._element is not None

    @property
    def element(self) -> int:
        if self._element is None:
            raise UnboundView("view is not bound to an element")
        return self._element

    @property
    def geometry(self):
        if self._element is None:
            raise UnboundView("view is not bound to an element")
        if self._geometry is None:
            self._geometry = self._basis.grid.element_geometry(self._element)
        return self._geometry

    @property
    def size(self) -> int:
        if self._element is None:
            raise UnboundView("size requires a bound view")
        return len(self._offsets)

    def bind(self, element: int) -> None:
        """Bind to an element (int or numpy integer); keys are built on the first ``index``."""
        table = self._scope.offsets
        if type(element) is not int:  # the common case pays this one test
            element = integer(element, "element")
        if not 0 <= element < len(table):
            raise IndexOutOfRange(f"element {element} outside [0, {len(table)})")
        self._offsets = table[element]
        self._indices = None
        self._geometry = None
        self._element = element

    def unbind(self) -> None:
        self._element = None
        self._geometry = None
        self._offsets = None
        self._indices = None

    def _bound_indices(self, caller: str) -> list:
        if self._element is None:
            raise UnboundView(f"{caller} requires a bound view")
        keys = self._basis.layout.keys
        self._indices = [keys[r] for r in self._offsets.tolist()]
        return self._indices

    def index(self, local: int) -> MultiIndex:
        """Global multi-index of local function ``local`` (int or numpy integer) when bound."""
        indices = self._indices
        if indices is None:
            indices = self._bound_indices("index")
        if type(local) is not int:  # the common case pays this one test
            local = integer(local, "local index")
        if not 0 <= local < len(indices):
            raise IndexOutOfRange(f"local index {local} outside [0, {len(indices)})")
        return indices[local]

    def multi_indices(self) -> tuple:
        indices = self._indices
        if indices is None:
            indices = self._bound_indices("multi_indices")
        return tuple(indices)


class SubspaceBasis:
    """A subtree of a global basis that keeps reporting root multi-indices.

    Local views enumerate only the leaves below ``prefix_path`` but hand out
    the unchanged multi-indices of the root basis, so coefficients always
    live in containers shaped for the root.
    """

    def __init__(self, root: GlobalBasis, prefix: tuple):
        self._root = root
        self._prefix = root._scope(prefix).prefix  # validates the prefix

    @property
    def root_basis(self) -> GlobalBasis:
        return self._root

    @property
    def prefix_path(self) -> tuple:
        return self._prefix

    @property
    def grid(self) -> StructuredGrid:
        return self._root.grid

    def local_view(self) -> LocalView:
        return LocalView(self._root, self._prefix)


def make_basis(grid: StructuredGrid, tree: BasisTree) -> GlobalBasis:
    """Build the global basis of ``tree`` over ``grid``."""
    return GlobalBasis(grid, tree)


def subspace_basis(basis, path) -> SubspaceBasis:
    """Restrict a basis to the subtree at ``path``.

    Accepts a GlobalBasis or another SubspaceBasis (paths concatenate).
    The empty path yields a subspace that behaves like the full basis.
    """
    full = tuple(basis.prefix_path) + tuple(path)
    return SubspaceBasis(basis.root_basis, full)
