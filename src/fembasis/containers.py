"""Multi-index addressable containers: nested vectors and sparse systems.

A :class:`NestedVector` keeps its scalars in one flat numpy array over a
:class:`~fembasis.multiindex.Layout`, the multi-indices of an index tree
in lexicographic order; a multi-index addresses exactly the slot at its
flat offset.  Vectors shaped for a basis share the basis's layout, and the
nested-list form survives only as the derived ``data`` view.

A :class:`SparseSystem` lives on one layout and stores every (row,
column) multi-index key as its offset there, so vectors it multiplies
must be laid out like it.  It has two stores beside its identity rows:
element tables (an offset table and one dense element matrix each) and
keyed entries (flat sequences of row slots, column slots and values).
Products read the stores directly, and entries that meet sum in one
order everywhere: identity diagonals, tables, keyed entries, each in the
order added.  Sorting the entries and adding up duplicates happens only
when they are read (:meth:`~SparseSystem.triples`, ``len``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import AlreadyFrozen, IndexOutOfRange, NotFrozen, ShapeMismatch
from .multiindex import Layout, MultiIndex


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

    def __eq__(self, other):
        if not isinstance(other, NestedVector):
            return NotImplemented
        same_keys = self._layout.same_keys(other._layout)
        return same_keys and bool(np.array_equal(self._values, other._values))

    def __repr__(self):
        return f"NestedVector({self.data!r})"


def _in_range(layout: Layout, offsets) -> np.ndarray:
    """``offsets`` as intp: TypeError unless integer, IndexOutOfRange outside ``layout``."""
    offsets = np.asarray(offsets)
    if offsets.size and not np.issubdtype(offsets.dtype, np.integer):
        raise TypeError(f"offsets must be integers, not {offsets.dtype}")
    offsets = offsets.astype(np.intp, copy=False)
    if offsets.size and not 0 <= offsets.min() <= offsets.max() < len(layout):
        raise IndexOutOfRange(f"offsets outside a layout of {len(layout)} entries")
    return offsets


def _entries(tables):
    """Flat (rows, cols, values) of each element table, element by element, each row-major."""
    for offsets, matrix in tables:
        size = offsets.shape[1]
        cols = offsets.repeat(size, axis=0).ravel()
        yield offsets.repeat(size), cols, np.tile(matrix.ravel(), len(offsets))


_NO_LAYOUT = Layout(())  # a system's layout until it has one: no key is an entry


class SparseSystem:
    """Sparse matrix keyed by (row, column) multi-index pairs of one layout.

    Lives in two phases: an accumulation phase (the add_* and set_*
    methods) and, after freeze(), an immutable phase that supports
    deterministic matrix-vector products.  The system lives on one
    :class:`~fembasis.multiindex.Layout`, given as ``SparseSystem(layout)``
    or taken by the first add_elements or set_rows_to_identity, and stores
    every key as its offset there.  A key that is not an entry of the
    layout, or any key before the system has a layout, raises
    ShapeMismatch and stores nothing.

    add_elements stores element tables; add_to_entry and add_block append
    keyed entries.  Entries that meet sum in one order: identity
    diagonals, tables, keyed entries, each in the order added.
    """

    def __init__(self, layout: Layout | None = None):
        self._layout = _NO_LAYOUT if layout is None else layout
        self._tables = []  # (offsets (E, m), matrix (m, m)) of E elements, per add_elements
        self._keyed = ([], [], [])  # row slots, column slots, values, in the order added
        self._identity = {}  # insertion-ordered set of row slots
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_mutable(self):
        if self._frozen:
            raise AlreadyFrozen("system is frozen")

    def _adopt(self, layout: Layout) -> None:
        """Take ``layout`` if the system has none; else it must be the system's own."""
        if self._layout is _NO_LAYOUT:
            self._layout = layout
        elif self._layout is not layout:
            raise ShapeMismatch("the system lives on another layout")

    def add_elements(self, layout: Layout, offsets, matrix) -> None:
        """Accumulate ``matrix`` onto offsets[e] x offsets[e] for every row e.

        ``offsets`` is an integer table of offsets into ``layout``; table
        and element matrix are stored as they are.  ``layout`` must be the
        system's layout (the same object), or becomes it if the system has
        none yet; another layout or a table that is not 2-D raises
        ShapeMismatch, a non-integer table TypeError and an offset outside
        ``layout`` IndexOutOfRange.
        """
        self._require_mutable()
        offsets = _in_range(layout, offsets)
        if offsets.ndim != 2:
            raise ShapeMismatch(f"offset table has shape {offsets.shape}, expected 2-D")
        matrix = np.asarray(matrix, dtype=float).reshape(offsets.shape[1], offsets.shape[1])
        self._adopt(layout)
        self._tables.append((offsets, matrix))

    def add_block(self, rows, cols, values) -> None:
        """Accumulate the dense ``values`` onto the entries rows x cols."""
        self._require_mutable()
        rows, cols = self._layout.slots(rows), self._layout.slots(cols)
        values = np.asarray(values, dtype=float).reshape(rows.size, cols.size)
        outer = rows.repeat(cols.size), np.tile(cols, rows.size), values
        for store, items in zip(self._keyed, outer):
            store.extend(items.ravel().tolist())

    def add_to_entry(self, row, col, value) -> None:
        """Accumulate the scalar ``value`` onto entry (row, col), creating it at 0."""
        self._require_mutable()
        r, c, value = self._layout.slot(row), self._layout.slot(col), float(value)
        rows, cols, values = self._keyed
        rows.append(r)
        cols.append(c)
        values.append(value)

    def set_row_to_identity(self, row) -> None:
        """Make ``row`` an identity row: 1 on the diagonal, 0 elsewhere.

        The row is applied when entries are summed or multiplied, so every
        stored entry of the row is zeroed (and kept), including entries
        added to it after this call.
        """
        self._require_mutable()
        self._identity[self._layout.slot(row)] = None

    def set_rows_to_identity(self, layout: Layout, offsets) -> None:
        """:meth:`set_row_to_identity` on the keys at ``offsets`` of ``layout``, in order.

        ``layout`` and ``offsets`` are checked as in :meth:`add_elements`.
        """
        self._require_mutable()
        offsets = _in_range(layout, offsets)
        self._adopt(layout)
        self._identity.update(dict.fromkeys(offsets.ravel().tolist()))

    def _fixed(self) -> np.ndarray:
        return np.fromiter(self._identity, dtype=np.intp, count=len(self._identity))

    def _keyed_arrays(self):
        rows, cols, values = self._keyed
        return np.asarray(rows, np.intp), np.asarray(cols, np.intp), np.asarray(values, float)

    def _sum(self):
        fixed = self._fixed()
        # each identity row's diagonal joins as a structural entry, summed first
        tables = _entries([(fixed[:, None], np.zeros((1, 1))), *self._tables])
        rows, cols, values = map(np.concatenate, zip(*tables, self._keyed_arrays()))
        # row-major by one combined key; stable, and bincount adds in input
        # order: duplicates are summed in the order of the stores
        order = np.argsort(rows * len(self._layout) + cols, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = np.bincount(np.cumsum(new) - 1, weights=values, minlength=int(new.sum()))
        rows, cols = rows[new], cols[new]
        on_fixed = np.isin(rows, fixed)
        summed[on_fixed] = 0.0
        summed[on_fixed & (rows == cols)] = 1.0
        return rows, cols, summed

    @cached_property
    def _summed(self):  # read only once frozen, so it never goes stale
        return self._sum()

    def freeze(self) -> None:
        """Switch to the immutable phase; the keyed sequences become arrays, once."""
        self._require_mutable()
        self._keyed = self._keyed_arrays()
        self._frozen = True

    def triples(self):
        """Sorted (row, col, value) triples; requires a frozen system."""
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        row_slots, col_slots, values = self._summed
        keys = self._layout.keys
        rows = map(keys.__getitem__, row_slots.tolist())
        cols = map(keys.__getitem__, col_slots.tolist())
        return tuple(zip(rows, cols, values.tolist()))

    def __len__(self) -> int:
        if not (self._tables or len(self._keyed[0]) or self._identity):
            return 0  # an empty system has nothing to sum
        return len((self._summed if self._frozen else self._sum())[2])

    def _require_laid_out_like(self, layout: Layout) -> None:
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        if not self._layout.same_keys(layout):
            raise ShapeMismatch("vectors must be laid out like the system")

    def operator(self, layout: Layout):
        """The product v -> A v of a frozen system on flat arrays over ``layout``.

        ``layout`` must list the system's keys in the same order, else
        ShapeMismatch.  Each element table is a gather, one GEMM with its
        matrix and one bincount scatter; all keyed entries are gathered,
        scaled and scattered by one bincount; then identity rows copy
        their slot of v.  The product is compiled once; every call
        returns the same one.
        """
        self._require_laid_out_like(layout)
        return self._product

    @cached_property
    def _product(self):
        n, fixed = len(self._layout), self._fixed()
        tables = [(offsets.ravel(), offsets, matrix.T) for offsets, matrix in self._tables]
        rows, cols, values = self._keyed

        def apply(v):
            sums = [np.bincount(r, (v[c] @ matrix_t).ravel(), n) for r, c, matrix_t in tables]
            if len(values):
                sums.append(np.bincount(rows, v[cols] * values, n))
            # bincount sums from +0.0, so the first sum needs no zero vector to start from
            y = sum(sums[1:], sums[0]) if sums else np.zeros(n)
            y[fixed] = v[fixed]
            return y

        return apply

    def diagonal(self, layout: Layout) -> np.ndarray:
        """Diagonal of a frozen system as a flat array over ``layout``.

        Entries (k, k) sum in the order of triples(); identity rows read
        1.0, rows without a diagonal entry 0.0.  ``layout`` is checked as
        in :meth:`operator`.
        """
        self._require_laid_out_like(layout)
        slots, values = [], []
        # offsets below 2**31 sort faster, and repeat alike, as a 32-bit copy
        narrow = np.int32 if len(layout) < 2**31 else np.intp
        for offsets, matrix in self._tables:
            if np.diff(np.sort(offsets.astype(narrow, copy=False), axis=1), axis=1).all():
                # no element repeats an offset: each meets the diagonal at matrix[i, i] only
                slots.append(offsets.ravel())
                values.append(np.tile(np.diag(matrix), len(offsets)))
            else:
                on = offsets[:, :, None] == offsets[:, None, :]
                slots.append(np.broadcast_to(offsets[:, :, None], on.shape)[on])
                values.append(np.broadcast_to(matrix, on.shape)[on])
        rows, cols, keyed = self._keyed
        on = rows == cols
        if on.any() or not slots:  # an empty keyed part would only cost a copy below
            slots.append(rows[on])
            values.append(keyed[on])
        # a lone part is counted as it is: a concatenated copy of it costs more than the count
        slots, values = (p[0] if len(p) == 1 else np.concatenate(p) for p in (slots, values))
        diagonal = np.bincount(slots, values, len(layout))
        diagonal[self._fixed()] = 1.0
        return diagonal

    def matvec(self, x: NestedVector) -> NestedVector:
        """y = A x for a frozen system; y is shaped like x.

        ``x`` must be laid out like the system (equal keys in the same
        order), else ShapeMismatch.
        """
        return NestedVector.from_flat(x.layout, self.operator(x.layout)(x.values))
