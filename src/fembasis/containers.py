"""Multi-index addressable containers: nested vectors and sparse systems.

A :class:`NestedVector` keeps its scalars in one flat numpy array over a
:class:`~fembasis.multiindex.Layout`, the multi-indices of an index tree
in lexicographic order; a multi-index addresses exactly the slot at its
flat offset.  Vectors shaped for a basis share the basis's layout, and the
nested-list form survives only as the derived ``data`` view.

A :class:`SparseSystem` keys matrix entries by (row, column) multi-index
pairs and stores every key as an integer id: its slot once the system has
adopted a layout, else its place in one interned key map.  It keeps dense
element matrices with their offset tables, keyed dense blocks and a set of
identity rows as they were added.
Products read them directly: a gather, one GEMM per element batch and a
scatter, the keyed blocks as one COO product, then the identity rows.
Sorting the entries row-major and adding up duplicates happens only when
the entries themselves are read (:meth:`~SparseSystem.triples`, ``len``).
"""

from __future__ import annotations

import numpy as np

from .errors import AlreadyFrozen, IndexOutOfRange, NotFrozen, ShapeMismatch
from .multiindex import Layout, MultiIndex, as_multi_index


def _dtype(values):
    """Storage type: bool when every value is a bool, float64 otherwise."""
    if values and all(isinstance(v, (bool, np.bool_)) for v in values):
        return bool
    return float


class NestedVector:
    """Scalars shaped like an index tree, stored flat in offset order.

    ``NestedVector(nested_list)`` takes the layout from the list's nesting
    (a plain scalar is the one-slot vector addressed by ``()``);
    :meth:`resize_from_basis` takes it from a basis.
    """

    __slots__ = ("_layout", "_values")

    def __init__(self, data=0.0):
        keys, values = [], []

        def walk(node, path):
            if isinstance(node, list):
                for d, child in enumerate(node):
                    walk(child, path + (d,))
            else:
                keys.append(MultiIndex(path))
                values.append(node)

        walk(data, ())
        self._layout = Layout(keys)
        self._values = np.array(values, dtype=_dtype(values))

    @classmethod
    def from_flat(cls, layout: Layout, values) -> "NestedVector":
        """Vector over ``layout`` holding ``values`` (not copied)."""
        vector = cls.__new__(cls)
        vector._layout = layout
        vector._values = values
        return vector

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def values(self) -> np.ndarray:
        """The flat storage in offset order (shared, not a copy)."""
        return self._values

    @property
    def data(self):
        """Nested-list view of the values, built anew on every access."""
        root = []
        for key, value in zip(self._layout.keys, self._values.tolist()):
            if not key:
                return value
            node = root
            for digit in key[:-1]:
                if len(node) == digit:
                    node.append([])
                node = node[digit]
            node.append(value)
        return root

    def resize_from_basis(self, basis, fill=0.0) -> None:
        """Shape this vector for (the root basis of) ``basis``.

        Every basis function gets one slot initialized to ``fill``; a bool
        fill stores bools, any other fill float64.  Existing content is
        discarded.
        """
        self._layout = basis.root_basis.layout
        self._values = np.full(len(self._layout), fill, dtype=_dtype((fill,)))

    def __getitem__(self, key):
        return self._values.item(self._layout.slot(key))

    def __setitem__(self, key, value) -> None:
        self._values[self._layout.slot(key)] = value

    def entries(self):
        """Yield (multi-index, value) for every scalar slot, in offset order."""
        return zip(self._layout.keys, self._values.tolist())

    def copy(self) -> "NestedVector":
        return NestedVector.from_flat(self._layout, self._values.copy())

    def zeros_like(self) -> "NestedVector":
        return NestedVector.from_flat(self._layout, np.zeros(len(self._layout)))

    def __eq__(self, other):
        if not isinstance(other, NestedVector):
            return NotImplemented
        same_keys = self._layout.same_keys(other._layout)
        return same_keys and bool(np.array_equal(self._values, other._values))

    def __repr__(self):
        return f"NestedVector({self.data!r})"


def _in_range(layout: Layout, offsets) -> np.ndarray:
    """``offsets`` as an intp array; an offset outside ``layout`` raises IndexOutOfRange."""
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.size and not 0 <= offsets.min() <= offsets.max() < len(layout):
        raise IndexOutOfRange(f"offsets outside a layout of {len(layout)} entries")
    return offsets


def _entries(parts):
    """Flat (rows, cols, values) of parts, element by element, each row-major."""
    rows, cols, values = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for r, c, matrix in parts:
        rows.append(np.repeat(r, c.shape[1], axis=1).ravel())
        cols.append(np.tile(c, r.shape[1]).ravel())
        values.append(np.broadcast_to(matrix.ravel(), (len(r), matrix.size)).ravel())
    return tuple(map(np.concatenate, (rows, cols, values)))


class SparseSystem:
    """Sparse matrix keyed by (row, column) multi-index pairs.

    Lives in two phases: an accumulation phase (the add_* and set_*
    methods) and, after freeze(), an immutable phase that supports
    deterministic matrix-vector products.  Keys are stored as integer ids:
    their offsets in a layout once the system has adopted one (add_elements,
    set_rows_to_identity), else ids interned on first use.  An adopted
    layout's keys are read only by the keyed methods.
    """

    def __init__(self):
        self._layout = None
        self._ids = {}  # key -> id in order of first use, until a layout is adopted
        self._parts = []  # (row ids (E, m), column ids (E, n), matrix (m, n)) of E elements
        self._identity = {}  # insertion-ordered set of row ids
        self._summed = None  # (key layout, row ranks, column ranks, values) once frozen
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_mutable(self):
        if self._frozen:
            raise AlreadyFrozen("system is frozen")

    def _id(self, key) -> int:
        if self._layout is not None:
            return self._layout.slot(key)
        return self._ids.setdefault(as_multi_index(key), len(self._ids))

    def _adopt(self, layout: Layout) -> None:
        """Make the offsets of ``layout`` the ids of all keys, those added so far included."""
        if self._layout is layout:
            return
        if self._layout is not None:
            raise ShapeMismatch("the system holds entries of another layout")
        moved = layout.slots(self._ids)
        self._parts = [(moved[r], moved[c], m) for r, c, m in self._parts]
        self._identity = dict.fromkeys(moved[list(self._identity)].tolist())
        self._layout, self._ids = layout, None

    def add_elements(self, layout: Layout, offsets, matrix) -> None:
        """Accumulate ``matrix`` onto offsets[e] x offsets[e] for every row e.

        ``offsets`` is an integer table of offsets into ``layout``; table
        and element matrix are stored as they are.  The system adopts
        ``layout``: its offsets become the ids of all keys, those added
        before included.  A key without an offset, or a second layout,
        raises ShapeMismatch; an offset outside ``layout`` IndexOutOfRange.
        """
        self._require_mutable()
        offsets = _in_range(layout, offsets)
        self._adopt(layout)
        matrix = np.asarray(matrix, dtype=float).reshape(offsets.shape[1], offsets.shape[1])
        self._parts.append((offsets, offsets, matrix))

    def add_block(self, rows, cols, values) -> None:
        """Accumulate the dense ``values`` onto the entries rows x cols."""
        self._require_mutable()
        rows = np.fromiter(map(self._id, rows), dtype=np.intp)[None]
        cols = np.fromiter(map(self._id, cols), dtype=np.intp)[None]
        values = np.asarray(values, dtype=float).reshape(rows.size, cols.size)
        self._parts.append((rows, cols, values))

    def add_to_entry(self, row, col, value) -> None:
        """Accumulate ``value`` onto entry (row, col), creating it at 0."""
        self.add_block((row,), (col,), value)

    def set_row_to_identity(self, row) -> None:
        """Make ``row`` an identity row: 1 on the diagonal, 0 elsewhere.

        The row is applied when entries are summed or multiplied, so every
        stored entry of the row is zeroed (and kept), including entries
        added to it after this call.
        """
        self._require_mutable()
        self._identity[self._id(row)] = None

    def set_rows_to_identity(self, layout: Layout, offsets) -> None:
        """:meth:`set_row_to_identity` on the keys at ``offsets`` of ``layout``, in order.

        The system adopts ``layout`` as :meth:`add_elements` does.  An
        offset outside ``layout`` raises IndexOutOfRange.
        """
        self._require_mutable()
        offsets = _in_range(layout, offsets)
        self._adopt(layout)
        self._identity.update(dict.fromkeys(offsets.ravel().tolist()))

    def _fixed(self) -> np.ndarray:
        return np.fromiter(self._identity, dtype=np.intp, count=len(self._identity))

    def _sum(self):
        fixed = self._fixed()
        # each identity row's diagonal joins as a structural entry
        structural = (fixed[:, None], fixed[:, None], np.zeros((1, 1)))
        rows, cols, values = _entries([structural] + self._parts)
        layout = self._layout
        if layout is None:
            # interned ids follow first use; rank them in key order
            layout = Layout(sorted(self._ids))
            rank = layout.slots(self._ids)
            rows, cols, fixed = rank[rows], rank[cols], rank[fixed]
        # row-major by one combined key; stable, and bincount adds in input
        # order: duplicates are summed in the order they were added
        order = np.argsort(rows * len(layout) + cols, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = np.bincount(np.cumsum(new) - 1, weights=values, minlength=int(new.sum()))
        rows, cols = rows[new], cols[new]
        on_fixed = np.isin(rows, fixed)
        summed[on_fixed] = 0.0
        summed[on_fixed & (rows == cols)] = 1.0
        return layout, rows, cols, summed

    def _arrays(self):
        if self._summed is None or not self._frozen:
            self._summed = self._sum()
        return self._summed

    def freeze(self) -> None:
        """Switch to the immutable phase; entries are summed only when read."""
        self._require_mutable()
        self._frozen = True

    def triples(self):
        """Sorted (row, col, value) triples; requires a frozen system."""
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        layout, row_ids, col_ids, values = self._arrays()
        keys = layout.keys
        rows = map(keys.__getitem__, row_ids.tolist())
        cols = map(keys.__getitem__, col_ids.tolist())
        return tuple(zip(rows, cols, values.tolist()))

    def __len__(self) -> int:
        return len(self._arrays()[3]) if self._parts or self._identity else 0

    def _placement(self, layout: Layout):
        """Map of ids to slots of ``layout``; requires a frozen system."""
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        if layout is self._layout:
            return lambda ids: ids
        keys = self._ids if self._layout is None else self._layout.keys
        return layout.slots(keys).__getitem__

    def operator(self, layout: Layout):
        """The product v -> A v of a frozen system on flat arrays over ``layout``.

        Each element batch is a gather, one GEMM with its matrix and one
        bincount scatter; keyed blocks add as one COO product, and
        identity rows copy their slot of v.  ``layout`` needs a slot for
        every key of the system, else ShapeMismatch.
        """
        place, n = self._placement(layout), len(layout)
        batches = [(place(r).ravel(), place(c), m.T) for r, c, m in self._parts if len(r) > 1]
        rows, cols, values = _entries(part for part in self._parts if len(part[0]) == 1)
        rows, cols, fixed = place(rows), place(cols), place(self._fixed())

        def apply(v):
            y = np.zeros(n)
            for r, c, matrix_t in batches:
                y += np.bincount(r, weights=(v[c] @ matrix_t).ravel(), minlength=n)
            y += np.bincount(rows, weights=values * v[cols], minlength=n)
            y[fixed] = v[fixed]
            return y

        return apply

    def diagonal(self, layout: Layout) -> np.ndarray:
        """Diagonal of a frozen system as a flat array over ``layout``.

        Entries (k, k) add in the order they were added, as in triples();
        identity rows read 1.0, rows without a diagonal entry 0.0.
        """
        place = self._placement(layout)
        ids, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for r, c, matrix in self._parts:
            on = r[:, :, None] == c[:, None, :]
            ids.append(np.broadcast_to(r[:, :, None], on.shape)[on])
            values.append(np.broadcast_to(matrix, on.shape)[on])
        ids, values = place(np.concatenate(ids)), np.concatenate(values)
        diagonal = np.zeros(len(layout))
        diagonal += np.bincount(ids, weights=values, minlength=len(layout))
        diagonal[place(self._fixed())] = 1.0
        return diagonal

    def matvec(self, x: NestedVector) -> NestedVector:
        """y = A x for a frozen system; y is shaped like x.

        ``x`` must provide a scalar slot for every key of the system;
        missing slots raise ShapeMismatch.
        """
        return NestedVector.from_flat(x.layout, self.operator(x.layout)(x.values))
